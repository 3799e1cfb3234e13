// Substitution, cofactoring, and single-variable quantification on AIGs.
//
// Every rebuild goes through one per-node step, rebuildAnd: a node whose
// fanins come back unchanged is kept without calling mkAnd, any other is
// rebuilt with structural hashing.  Two loops drive it.  cofactorPair, the
// elimination rebuild, runs once up a topological cone list the caller
// already holds and builds both cofactors in the same step.  The iterative
// DFS of substituteImpl serves callers without such a list.  Memoization
// lives in the manager's generation-stamped TraversalCache and lasts one
// call (no heap allocation on the hot path; see aig.hpp for why there is no
// cross-call cache).
// existsVar/forallVar realize ∃v.phi = phi[0/v] | phi[1/v] and
// ∀v.phi = phi[0/v] & phi[1/v] with two DFS cofactors; the elimination
// kernel (ElimKernel) builds the same pairs with cofactorPair.
#include "src/aig/aig.hpp"

#include <cassert>

namespace hqs {

AigEdge Aig::rebuildAnd(std::uint32_t idx, AigEdge img0, AigEdge img1)
{
    const AigEdge f0 = nodes_[idx].fanin0;
    const AigEdge f1 = nodes_[idx].fanin1;
    const AigEdge a = img0 ^ f0.complemented();
    const AigEdge b = img1 ^ f1.complemented();
    // Fanins that came back unchanged make the node its own image: mkAnd
    // on its own fanin pair can only find it again (see aig.hpp).
    return a == f0 && b == f1 ? AigEdge(idx, false) : mkAnd(a, b);
}

/// Core bottom-up rebuild shared by every substitution flavour.
/// @p lookup is called for input nodes as lookup(Var, AigEdge* out) and
/// returns true when the variable is mapped.  Results are memoized per old
/// node index in trav_ (slot = rebuilt edge code for the uncomplemented
/// node function).
template <class Lookup>
AigEdge Aig::substituteImpl(AigEdge root, Lookup&& lookup)
{
    // trav_ is sized to the pool at entry; mkAnd may append nodes beyond
    // that, but only old indices (< oldSize) are ever queried.
    trav_.reset(nodes_.size());
    trav_.set(0, constFalse().code());

    stack_.clear();
    stack_.push_back(root.nodeIndex());
    while (!stack_.empty()) {
        const std::uint32_t idx = stack_.back();
        if (trav_.has(idx)) {
            stack_.pop_back();
            continue;
        }
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            AigEdge mapped;
            trav_.set(idx, lookup(n.extVar, &mapped) ? mapped.code()
                                                     : AigEdge(idx, false).code());
            stack_.pop_back();
            continue;
        }
        const std::uint32_t i0 = n.fanin0.nodeIndex();
        const std::uint32_t i1 = n.fanin1.nodeIndex();
        if (!trav_.has(i0)) {
            stack_.push_back(i0);
            continue;
        }
        if (!trav_.has(i1)) {
            stack_.push_back(i1);
            continue;
        }
        const AigEdge img0 = AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i0)));
        const AigEdge img1 = AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i1)));
        ++stats_.rebuildVisits;
        trav_.set(idx, rebuildAnd(idx, img0, img1).code());
        stack_.pop_back();
    }
    return AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(root.nodeIndex()))) ^
           root.complemented();
}

AigEdge Aig::substitute(AigEdge root, const Substitution& sub)
{
    if (sub.empty() || isConstant(root)) return root;
    if (sub.size() == 1) {
        const Var v = sub.domain().front();
        return compose(root, v, sub.image(v));
    }
    return substituteImpl(root, [&sub](Var v, AigEdge* out) {
        if (!sub.maps(v)) return false;
        *out = sub.image(v);
        return true;
    });
}

AigEdge Aig::cofactor(AigEdge root, Var v, bool value)
{
    return compose(root, v, value ? constTrue() : constFalse());
}

AigEdge Aig::compose(AigEdge root, Var v, AigEdge g)
{
    if (!hasVariable(v) || isConstant(root)) return root;
    // A one-variable lookup rather than scratchSubstitution(): the caller
    // may be building the scratch map at this moment.
    return substituteImpl(root, [v, g](Var x, AigEdge* out) {
        if (x != v) return false;
        *out = g;
        return true;
    });
}

namespace {
// cofactorPair keeps both images of a node in one traversal slot: phi[0/v]'s
// edge code in the low half, phi[1/v]'s in the high half.
std::uint64_t packPair(AigEdge lo, AigEdge hi)
{
    return (static_cast<std::uint64_t>(hi.code()) << 32) | lo.code();
}
AigEdge lowImage(std::uint64_t slot) { return AigEdge::fromCode(static_cast<std::uint32_t>(slot)); }
AigEdge highImage(std::uint64_t slot)
{
    return AigEdge::fromCode(static_cast<std::uint32_t>(slot >> 32));
}
} // namespace

std::pair<AigEdge, AigEdge> Aig::cofactorPair(AigEdge root, Var v,
                                              const std::vector<std::uint32_t>& cone,
                                              const Deadline& deadline,
                                              const Substitution* renameHigh)
{
    assert(cone.empty() ? isConstant(root) : cone.front() == root.nodeIndex());
    assert(!renameHigh || !renameHigh->maps(v));
    if (cone.empty()) return {root, root};
    // The list holds every cone node after its fanins, so each slot read
    // below was written earlier in this pass: no stamps are consulted.
    // trav_ is sized to the pool at entry; mkAnd appends beyond it, but
    // only cone indices are written or read.
    trav_.reset(nodes_.size());
    std::vector<std::uint64_t>& slot = trav_.slot;
    slot[0] = packPair(constFalse(), constFalse());
    std::uint32_t steps = 0;
    for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
        const std::uint32_t idx = *it;
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            const AigEdge self(idx, false);
            if (n.extVar == v) {
                slot[idx] = packPair(constFalse(), constTrue());
            } else if (renameHigh && renameHigh->maps(n.extVar)) {
                slot[idx] = packPair(self, renameHigh->image(n.extVar));
            } else {
                slot[idx] = packPair(self, self);
            }
            continue;
        }
        // Read both fanin slots before mkAnd can grow nodes_ under n.
        const std::uint64_t s0 = slot[n.fanin0.nodeIndex()];
        const std::uint64_t s1 = slot[n.fanin1.nodeIndex()];
        ++stats_.rebuildVisits;
        const AigEdge lo = rebuildAnd(idx, lowImage(s0), lowImage(s1));
        const AigEdge hi = rebuildAnd(idx, highImage(s0), highImage(s1));
        slot[idx] = packPair(lo, hi);
        if (++steps % kDeadlinePollNodes == 0 && deadline.expired()) return {AigEdge(), AigEdge()};
    }
    const std::uint64_t top = slot[root.nodeIndex()];
    return {lowImage(top) ^ root.complemented(), highImage(top) ^ root.complemented()};
}

AigEdge Aig::existsVar(AigEdge root, Var v)
{
    return mkOr(cofactor(root, v, false), cofactor(root, v, true));
}

AigEdge Aig::forallVar(AigEdge root, Var v)
{
    return mkAnd(cofactor(root, v, false), cofactor(root, v, true));
}

} // namespace hqs
