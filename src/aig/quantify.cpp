// Substitution, cofactoring, and single-variable quantification on AIGs.
//
// All operations are implemented on top of one iterative parallel
// substitution that rebuilds the cone bottom-up with structural hashing; a
// node whose fanins come back unchanged is kept without calling mkAnd.
// Memoization lives in the manager's generation-stamped TraversalCache and
// lasts one call (no heap allocation on the hot path; see aig.hpp for why
// there is no cross-call cache).
// existsVar/forallVar realize ∃v.phi = phi[0/v] | phi[1/v] and
// ∀v.phi = phi[0/v] & phi[1/v], the primitives behind Theorems 1 and 2.
#include "src/aig/aig.hpp"

namespace hqs {

/// Core bottom-up rebuild shared by every substitution flavour.
/// @p lookup is called for input nodes as lookup(Var, AigEdge* out) and
/// returns true when the variable is mapped.  Results are memoized per old
/// node index in trav_ (slot = rebuilt edge code for the uncomplemented
/// node function).  A non-null @p deadline is polled every
/// kDeadlinePollNodes rebuilt AND nodes; once it has expired the rebuild
/// stops and returns an invalid edge.
template <class Lookup>
AigEdge Aig::substituteImpl(AigEdge root, Lookup&& lookup, const Deadline* deadline)
{
    std::uint32_t rebuilt = 0;
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
        // Fanins that came back unchanged make the node its own image: mkAnd
        // on its own fanin pair can only find it again (see aig.hpp).
        trav_.set(idx, (a == f0 && b == f1 ? AigEdge(idx, false) : mkAnd(a, b)).code());
        stack_.pop_back();
        if (deadline && ++rebuilt % kDeadlinePollNodes == 0 && deadline->expired()) {
            return AigEdge();
        }
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
    return substituteImpl(
        root,
        [&sub](Var v, AigEdge* out) {
            if (!sub.maps(v)) return false;
            *out = sub.image(v);
            return true;
        },
        nullptr);
}

AigEdge Aig::cofactor(AigEdge root, Var v, bool value)
{
    return composeImpl(root, v, value ? constTrue() : constFalse(), nullptr);
}

AigEdge Aig::cofactor(AigEdge root, Var v, bool value, const Deadline& deadline)
{
    return composeImpl(root, v, value ? constTrue() : constFalse(), &deadline);
}

AigEdge Aig::compose(AigEdge root, Var v, AigEdge g) { return composeImpl(root, v, g, nullptr); }

AigEdge Aig::composeImpl(AigEdge root, Var v, AigEdge g, const Deadline* deadline)
{
    if (!hasVariable(v) || isConstant(root)) return root;
    // A one-variable lookup rather than scratchSubstitution(): the caller
    // may be building the scratch map at this moment.
    return substituteImpl(
        root,
        [v, g](Var x, AigEdge* out) {
            if (x != v) return false;
            *out = g;
            return true;
        },
        deadline);
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
