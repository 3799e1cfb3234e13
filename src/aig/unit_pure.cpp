// Syntactic unit/pure variable detection on AIGs (Theorem 6 of the paper).
//
// One top-down sweep over the cone, processing nodes in descending index
// order (a node's fanins always have smaller indices, so all parents of a
// node are handled before the node itself).  Per node we track:
//   * reachEven / reachOdd — parities of the negation counts over all paths
//     from the node to the output (the root edge's complement bit counts);
//   * clean — existence of a negation-free path to the output.
// Then for an input node n_v:
//   * positive unit  iff clean(n_v)                      (negation-free path)
//   * negative unit  iff some clean parent reaches n_v over a complemented
//     edge (the "only negation right at the variable" case)
//   * positive pure  iff reachEven and not reachOdd
//   * negative pure  iff reachOdd  and not reachEven
// The same sweep counts the cone's AND nodes and, per variable, the AND
// nodes that read it as a fanin, and lists the cone's nodes in the order it
// visits them, so callers that need the cone size, the support or a
// topological order of the cone (Aig::cofactorPair) do not walk it again.
// Cost: O(|phi| + |V|), as stated in the paper.  The per-node flags live
// as bits in the manager's generation-stamped TraversalCache.
#include "src/aig/aig.hpp"

namespace hqs {

namespace {
constexpr std::uint64_t kReachEven = 1;
constexpr std::uint64_t kReachOdd = 2;
constexpr std::uint64_t kClean = 4;
constexpr std::uint64_t kNegUnit = 8;
} // namespace

UnitPureInfo Aig::detectUnitPure(AigEdge root) const
{
    UnitPureInfo info;
    detectUnitPure(root, info);
    return info;
}

void Aig::detectUnitPure(AigEdge root, UnitPureInfo& info) const
{
    for (std::vector<Var>* list : {&info.posUnit, &info.negUnit, &info.posPure, &info.negPure})
        list->clear();
    info.coneSize = 0;
    info.occurrences.clear();
    info.cone.clear();
    if (isConstant(root)) return;

    const std::uint32_t rootIdx = root.nodeIndex();
    trav_.reset(nodes_.size());
    auto occurs = [&info](Var v) {
        if (v >= info.occurrences.size()) info.occurrences.resize(v + 1, 0);
        ++info.occurrences[v];
    };
    if (nodes_[rootIdx].extVar != kNoVar) occurs(nodes_[rootIdx].extVar);

    if (root.complemented()) {
        std::uint64_t bits = kReachOdd;
        // phi = ~v: assigning v = 1 falsifies phi, so v is negative unit.
        if (nodes_[rootIdx].extVar != kNoVar) bits |= kNegUnit;
        trav_.set(rootIdx, bits);
    } else {
        trav_.set(rootIdx, kReachEven | kClean);
    }

    for (std::uint32_t idx = rootIdx; idx > 0; --idx) {
        if (!trav_.has(idx)) continue; // outside the cone
        const std::uint64_t bits = trav_.get(idx);
        if ((bits & (kReachEven | kReachOdd)) == 0) continue;
        info.cone.push_back(idx);
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            const Var v = n.extVar;
            if (bits & kClean) info.posUnit.push_back(v);
            if (bits & kNegUnit) info.negUnit.push_back(v);
            if ((bits & kReachEven) && !(bits & kReachOdd)) info.posPure.push_back(v);
            if ((bits & kReachOdd) && !(bits & kReachEven)) info.negPure.push_back(v);
            continue;
        }
        ++info.coneSize;
        for (const AigEdge f : {n.fanin0, n.fanin1}) {
            const std::uint32_t child = f.nodeIndex();
            if (child == 0) continue; // constant
            if (nodes_[child].extVar != kNoVar) occurs(nodes_[child].extVar);
            std::uint64_t childBits = 0;
            if (f.complemented()) {
                if (bits & kReachEven) childBits |= kReachOdd;
                if (bits & kReachOdd) childBits |= kReachEven;
                if ((bits & kClean) && nodes_[child].extVar != kNoVar) childBits |= kNegUnit;
            } else {
                childBits |= bits & (kReachEven | kReachOdd | kClean);
            }
            if (childBits != 0) trav_.orBits(child, childBits);
        }
    }
}

} // namespace hqs
