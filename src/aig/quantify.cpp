// Substitution, cofactoring, and single-variable quantification on AIGs.
//
// All operations are implemented on top of one iterative parallel
// substitution that rebuilds the cone bottom-up with structural hashing.
// Per-call memoization lives in the manager's generation-stamped
// TraversalCache (no heap allocation on the hot path); single-variable
// substitutions are additionally memoized per *node* in the lossy
// operation cache, which persists across calls so later cofactors of
// overlapping cones skip shared subgraphs entirely.
// existsVar/forallVar realize ∃v.phi = phi[0/v] | phi[1/v] and
// ∀v.phi = phi[0/v] & phi[1/v], the primitives behind Theorems 1 and 2.
#include <cassert>

#include "src/aig/aig.hpp"

namespace hqs {

namespace {
constexpr std::size_t kOpCacheSize = 1u << 14; // entries; lossy direct-mapped
}

bool Aig::opLookup(std::uint32_t idx, Var v, std::uint32_t gCode, std::uint32_t* resCode)
{
    if (opCache_.empty()) return false;
    const std::uint64_t key = (static_cast<std::uint64_t>(idx) << 32) | gCode;
    const OpEntry& e =
        opCache_[static_cast<std::size_t>(opHash(idx, v, gCode)) & (opCache_.size() - 1)];
    if (e.key == key && e.var == v) {
        *resCode = e.res;
        ++stats_.opCacheHits;
        return true;
    }
    ++stats_.opCacheMisses;
    return false;
}

void Aig::opInsert(std::uint32_t idx, Var v, std::uint32_t gCode, std::uint32_t resCode)
{
    if (opCache_.empty()) opCache_.resize(kOpCacheSize);
    OpEntry& e =
        opCache_[static_cast<std::size_t>(opHash(idx, v, gCode)) & (opCache_.size() - 1)];
    e.key = (static_cast<std::uint64_t>(idx) << 32) | gCode;
    e.var = v;
    e.res = resCode;
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
        // Note: reading fanins again (n may be dangling after mkAnd grows
        // nodes_), so re-fetch via index.
        const AigEdge f0 = nodes_[idx].fanin0;
        const AigEdge f1 = nodes_[idx].fanin1;
        const AigEdge a =
            AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i0))) ^ f0.complemented();
        const AigEdge b =
            AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i1))) ^ f1.complemented();
        trav_.set(idx, mkAnd(a, b).code());
        stack_.pop_back();
    }
    return AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(root.nodeIndex()))) ^
           root.complemented();
}

/// Single-variable substitution phi[g/v] with per-node operation caching:
/// the computed table persists across calls, so repeated cofactors over an
/// evolving matrix reuse every shared subcone.
AigEdge Aig::substituteOne(AigEdge root, Var v, AigEdge g)
{
    if (isConstant(root)) return root;
    const std::uint32_t gCode = g.code();

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
            trav_.set(idx, n.extVar == v ? gCode : AigEdge(idx, false).code());
            stack_.pop_back();
            continue;
        }
        std::uint32_t cached = 0;
        if (opLookup(idx, v, gCode, &cached)) {
            trav_.set(idx, cached);
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
        const AigEdge f0 = nodes_[idx].fanin0; // re-fetch: mkAnd may grow nodes_
        const AigEdge f1 = nodes_[idx].fanin1;
        const AigEdge a =
            AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i0))) ^ f0.complemented();
        const AigEdge b =
            AigEdge::fromCode(static_cast<std::uint32_t>(trav_.get(i1))) ^ f1.complemented();
        const AigEdge res = mkAnd(a, b);
        trav_.set(idx, res.code());
        opInsert(idx, v, gCode, res.code());
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
        return hasVariable(v) ? substituteOne(root, v, sub.image(v)) : root;
    }
    return substituteImpl(root, [&sub](Var v, AigEdge* out) {
        if (!sub.maps(v)) return false;
        *out = sub.image(v);
        return true;
    });
}

AigEdge Aig::cofactor(AigEdge root, Var v, bool value)
{
    if (!hasVariable(v)) return root;
    return substituteOne(root, v, value ? constTrue() : constFalse());
}

AigEdge Aig::compose(AigEdge root, Var v, AigEdge g)
{
    if (!hasVariable(v)) return root;
    return substituteOne(root, v, g);
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
