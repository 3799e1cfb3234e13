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
// The per-node flags live as bits in the manager's TraversalCache slots.
// A bitmap holds the nodes that have flags and are not visited yet; the
// sweep jumps from one set bit to the next lower one, so it never tests a
// pool index outside the cone.  Cost: O(|phi| + |V|) for the cone and its
// variables, as stated in the paper, plus one word per 64 pool indices
// below the root to clear and skip the bitmap.
#include "src/aig/aig.hpp"

#include <bit>

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
    std::vector<std::uint64_t>& flags = trav_.slot;
    scanBits_.assign(rootIdx / 64 + 1, 0);
    // A node's flags are valid while its bit is set: the first parent to
    // reach it writes them, later parents OR into them, and its bit is
    // cleared only once every parent (all at higher indices) is done.
    auto reach = [&](std::uint32_t idx, std::uint64_t bits) {
        std::uint64_t& word = scanBits_[idx / 64];
        const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
        flags[idx] = (word & bit) ? flags[idx] | bits : bits;
        word |= bit;
    };
    auto occurs = [&info](Var v) {
        if (v >= info.occurrences.size()) info.occurrences.resize(v + 1, 0);
        ++info.occurrences[v];
    };
    if (nodes_[rootIdx].extVar != kNoVar) occurs(nodes_[rootIdx].extVar);

    if (root.complemented()) {
        std::uint64_t bits = kReachOdd;
        // phi = ~v: assigning v = 1 falsifies phi, so v is negative unit.
        if (nodes_[rootIdx].extVar != kNoVar) bits |= kNegUnit;
        reach(rootIdx, bits);
    } else {
        reach(rootIdx, kReachEven | kClean);
    }

    // Descending over the set bits: the highest set bit of the current
    // word is the next cone node; visiting it sets only lower bits.
    for (std::size_t w = scanBits_.size(); w-- > 0;) {
        while (const std::uint64_t word = scanBits_[w]) {
            const int top = 63 - std::countl_zero(word);
            scanBits_[w] = word & ~(std::uint64_t{1} << top);
            const auto idx = static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(top));
            const std::uint64_t bits = flags[idx];
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
                reach(child, childBits);
            }
        }
    }
}

} // namespace hqs
