// Substitution, cofactoring and the elimination rebuild on AIGs.
//
// Every rebuild goes through one per-node step, rebuildAnd: a node whose
// fanins come back unchanged is kept without calling mkAnd, any other is
// rebuilt with structural hashing.  Two loops drive it.  cofactorPair, the
// elimination rebuild, runs once up a topological cone list the caller
// already holds and builds both cofactors in the same step.  The iterative
// DFS of substituteImpl serves callers without such a list.  Memoization
// lives in the manager's generation-stamped TraversalCache and lasts one
// call (no heap allocation on the hot path; see aig.hpp for why there is no
// cross-call cache).  dependentCounts runs up the same cone list to price
// an elimination before it is built: the nodes that depend on v are the
// nodes its cofactor pair can rebuild.
#include "src/aig/aig.hpp"

#include <bit>
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
                                              const Substitution* renameHigh, std::size_t cap)
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
    // mkAnd allocates at most one node, so checking after every image stops
    // the pass at cap + 1 new nodes.
    const std::size_t capEnd = cap < kNoCap - nodes_.size() ? nodes_.size() + cap : kNoCap;
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
        if (nodes_.size() > capEnd) return {AigEdge(), AigEdge()};
        const AigEdge hi = rebuildAnd(idx, highImage(s0), highImage(s1));
        if (nodes_.size() > capEnd) return {AigEdge(), AigEdge()};
        slot[idx] = packPair(lo, hi);
        if (++steps % kDeadlinePollNodes == 0 && deadline.expired()) return {AigEdge(), AigEdge()};
    }
    const std::uint64_t top = slot[root.nodeIndex()];
    return {lowImage(top) ^ root.complemented(), highImage(top) ^ root.complemented()};
}

void Aig::dependentCounts(const std::vector<std::uint32_t>& cone,
                          const std::vector<Var>& candidates, std::vector<std::uint32_t>& out)
{
    out.assign(candidates.size(), 0);
    std::vector<std::uint64_t>& slot = trav_.slot;
    for (std::size_t base = 0; base < candidates.size(); base += 64) {
        // Stamp this pass's candidate inputs with their bits; every other
        // slot the pass reads is written by the pass first.
        const std::size_t n = std::min<std::size_t>(64, candidates.size() - base);
        trav_.reset(nodes_.size());
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
            const auto input = inputOfVar_.find(candidates[base + i]);
            if (input == inputOfVar_.end()) continue;
            trav_.orBits(input->second, std::uint64_t{1} << i);
            any = true;
        }
        if (!any) continue;
        slot[0] = 0;
        std::uint32_t* counts = out.data() + base;
        for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
            const std::uint32_t idx = *it;
            const Node& nd = nodes_[idx];
            if (nd.extVar != kNoVar) {
                if (!trav_.has(idx)) slot[idx] = 0;
                continue;
            }
            std::uint64_t mask = slot[nd.fanin0.nodeIndex()] | slot[nd.fanin1.nodeIndex()];
            slot[idx] = mask;
            for (; mask != 0; mask &= mask - 1) ++counts[std::countr_zero(mask)];
        }
    }
}

} // namespace hqs
