#include "src/aig/aig.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "src/base/fault.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

namespace {

/// Smallest power of two >= @p n (and >= @p floor).
std::size_t nextPow2(std::size_t n, std::size_t floor)
{
    std::size_t cap = floor;
    while (cap < n) cap <<= 1;
    return cap;
}

constexpr std::size_t kStrashInitialSize = 1u << 10;

} // namespace

Aig::Aig()
{
    nodes_.push_back(Node{}); // node 0: the constant (FALSE as uncomplemented)
    strash_.assign(kStrashInitialSize, 0u);
}

AigEdge Aig::variable(Var v)
{
    auto it = inputOfVar_.find(v);
    if (it != inputOfVar_.end()) return AigEdge(it->second, false);
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    Node n;
    n.extVar = v;
    nodes_.push_back(n);
    inputOfVar_.emplace(v, idx);
    stats_.peakAllocatedNodes = std::max<std::uint64_t>(stats_.peakAllocatedNodes, nodes_.size());
    return AigEdge(idx, false);
}

bool Aig::hasVariable(Var v) const { return inputOfVar_.contains(v); }

bool Aig::isInput(AigEdge e) const { return node(e).extVar != kNoVar; }

Var Aig::inputVariable(AigEdge e) const
{
    assert(isInput(e));
    return node(e).extVar;
}

bool Aig::isAnd(AigEdge e) const
{
    return e.nodeIndex() != 0 && node(e).extVar == kNoVar;
}

AigEdge Aig::fanin0(AigEdge e) const
{
    assert(isAnd(e));
    return node(e).fanin0;
}

AigEdge Aig::fanin1(AigEdge e) const
{
    assert(isAnd(e));
    return node(e).fanin1;
}

AigEdge Aig::mkAnd(AigEdge a, AigEdge b)
{
    // Substitution continues with a smaller operand pair instead of
    // recursing: each round replaces an AND operand by one of its fanins,
    // whose index is lower, so the loop ends, and only the final mkAndRaw
    // allocates.
    for (;;) {
        // Level 1: constant folding and trivial cases.
        if (a == constFalse() || b == constFalse()) return constFalse();
        if (a == constTrue()) return b;
        if (b == constTrue()) return a;
        if (a == b) return a;
        if (a == ~b) return constFalse();

        // Level 2 (Brummayer & Biere, MEMICS 2006): look one level into
        // AND operands.  Asymmetric rules first: x an AND, y any edge.
        const Node& na = node(a);
        const Node& nb = node(b);
        const bool andA = na.extVar == kNoVar;
        const bool andB = nb.extVar == kNoVar;
        if (!andA && !andB) return mkAndRaw(a, b);
        bool substituted = false;
        for (int side = 0; side < 2 && !substituted; ++side) {
            if (!(side == 0 ? andA : andB)) continue;
            const AigEdge x = side == 0 ? a : b;
            const AigEdge y = side == 0 ? b : a;
            const AigEdge x0 = (side == 0 ? na : nb).fanin0;
            const AigEdge x1 = (side == 0 ? na : nb).fanin1;
            if (!x.complemented()) {
                if (x0 == ~y || x1 == ~y) { // (p & q) & ~p  ->  0
                    ++stats_.rewriteContradiction;
                    return constFalse();
                }
                if (x0 == y || x1 == y) { // (p & q) & p  ->  p & q
                    ++stats_.rewriteIdempotence;
                    return x;
                }
            } else {
                if (x0 == ~y || x1 == ~y) { // ~(p & q) & ~p  ->  ~p
                    ++stats_.rewriteSubsumption;
                    return y;
                }
                if (x0 == y || x1 == y) { // ~(p & q) & p  ->  p & ~q
                    ++stats_.rewriteSubstitution;
                    a = y;
                    b = ~(x0 == y ? x1 : x0);
                    substituted = true;
                }
            }
        }
        if (substituted) continue;
        if (!andA || !andB) return mkAndRaw(a, b);

        // Symmetric rules: both operands ANDs.
        const AigEdge a0 = na.fanin0, a1 = na.fanin1;
        const AigEdge b0 = nb.fanin0, b1 = nb.fanin1;
        if (!a.complemented() && !b.complemented()) {
            // (p & q) & (~p & r)  ->  0
            if (a0 == ~b0 || a0 == ~b1 || a1 == ~b0 || a1 == ~b1) {
                ++stats_.rewriteContradiction;
                return constFalse();
            }
        } else if (a.complemented() && b.complemented()) {
            // ~(p & q) & ~(p & ~q)  ->  ~p, whichever fanins p and q are
            if ((a0 == b0 && a1 == ~b1) || (a0 == b1 && a1 == ~b0)) {
                ++stats_.rewriteResolution;
                return ~a0;
            }
            if ((a1 == b0 && a0 == ~b1) || (a1 == b1 && a0 == ~b0)) {
                ++stats_.rewriteResolution;
                return ~a1;
            }
        } else {
            // n = ~(n0 & n1) negated, p = (p0 & p1) positive.
            const AigEdge pos = a.complemented() ? b : a;
            const AigEdge n0 = a.complemented() ? a0 : b0;
            const AigEdge n1 = a.complemented() ? a1 : b1;
            const AigEdge p0 = a.complemented() ? b0 : a0;
            const AigEdge p1 = a.complemented() ? b1 : a1;
            // ~(p & q) & (~p & r)  ->  ~p & r
            if (n0 == ~p0 || n0 == ~p1 || n1 == ~p0 || n1 == ~p1) {
                ++stats_.rewriteSubsumption;
                return pos;
            }
            // ~(p & q) & (p & r)  ->  (p & r) & ~q
            if (n0 == p0 || n0 == p1 || n1 == p0 || n1 == p1) {
                ++stats_.rewriteSubstitution;
                a = pos;
                b = ~(n0 == p0 || n0 == p1 ? n1 : n0);
                continue;
            }
        }
        return mkAndRaw(a, b);
    }
}

std::uint64_t Aig::strashHash(std::uint32_t aCode, std::uint32_t bCode)
{
    // splitmix64 finalizer over the packed fanin pair: cheap and uniform
    // enough that linear probing stays short at <= 0.7 load.
    std::uint64_t z = (static_cast<std::uint64_t>(aCode) << 32) | bCode;
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ull;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z;
}

AigEdge Aig::mkAndRaw(AigEdge a, AigEdge b)
{
    if (b < a) std::swap(a, b);
    const std::size_t mask = strash_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(strashHash(a.code(), b.code())) & mask;
    std::uint64_t probes = 1;
    while (const std::uint32_t entry = strash_[slot]) {
        const Node& n = nodes_[entry - 1];
        if (n.fanin0 == a && n.fanin1 == b) {
            stats_.strashProbes += probes;
            return AigEdge(entry - 1, false);
        }
        slot = (slot + 1) & mask;
        ++probes;
    }
    stats_.strashProbes += probes;
    // Each strash miss allocates a node: the memory hot path, and therefore
    // an injection site for testing bad_alloc recovery (one relaxed atomic
    // load when no fault is armed).
    fault::checkpointAlloc("aig-alloc");
    ++stats_.ands;
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    Node n;
    n.fanin0 = a;
    n.fanin1 = b;
    nodes_.push_back(n);
    stats_.peakAllocatedNodes = std::max<std::uint64_t>(stats_.peakAllocatedNodes, nodes_.size());
    strash_[slot] = idx + 1;
    ++strashCount_;
    // Grow at 0.7 load so probe chains stay short.
    if ((strashCount_ + 1) * 10 >= strash_.size() * 7) strashGrow();
    return AigEdge(idx, false);
}

void Aig::strashInsertNew(std::uint32_t idx)
{
    const Node& n = nodes_[idx];
    const std::size_t mask = strash_.size() - 1;
    std::size_t slot =
        static_cast<std::size_t>(strashHash(n.fanin0.code(), n.fanin1.code())) & mask;
    while (strash_[slot] != 0) slot = (slot + 1) & mask;
    strash_[slot] = idx + 1;
}

void Aig::strashPop(std::uint32_t idx)
{
    const Node& n = nodes_[idx];
    const std::size_t mask = strash_.size() - 1;
    std::size_t slot =
        static_cast<std::size_t>(strashHash(n.fanin0.code(), n.fanin1.code())) & mask;
    while (strash_[slot] != idx + 1) slot = (slot + 1) & mask;
    strash_[slot] = 0;
}

void Aig::strashRebuild(std::size_t size)
{
    strash_.assign(size, 0u);
    for (std::uint32_t idx = 1; idx < nodes_.size(); ++idx) {
        if (nodes_[idx].extVar == kNoVar) strashInsertNew(idx);
    }
}

void Aig::strashGrow()
{
    strashRebuild(strash_.size() * 2);
    ++stats_.strashResizes;
}

AigEdge Aig::mkXor(AigEdge a, AigEdge b)
{
    // a ^ b  =  ~(~(a & ~b) & ~(~a & b))
    return mkOr(mkAnd(a, ~b), mkAnd(~a, b));
}

AigEdge Aig::mkIte(AigEdge c, AigEdge t, AigEdge e)
{
    return mkOr(mkAnd(c, t), mkAnd(~c, e));
}

AigEdge Aig::mkAndN(const std::vector<AigEdge>& es)
{
    AigEdge acc = constTrue();
    for (AigEdge e : es) acc = mkAnd(acc, e);
    return acc;
}

AigEdge Aig::mkOrN(const std::vector<AigEdge>& es)
{
    AigEdge acc = constFalse();
    for (AigEdge e : es) acc = mkOr(acc, e);
    return acc;
}

std::vector<Var> Aig::support(AigEdge root) const
{
    std::vector<Var> out;
    trav_.reset(nodes_.size());
    stack_.clear();
    stack_.push_back(root.nodeIndex());
    while (!stack_.empty()) {
        const std::uint32_t idx = stack_.back();
        stack_.pop_back();
        if (trav_.has(idx)) continue;
        trav_.set(idx, 1);
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            out.push_back(n.extVar);
        } else if (idx != 0) {
            stack_.push_back(n.fanin0.nodeIndex());
            stack_.push_back(n.fanin1.nodeIndex());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t Aig::coneSize(AigEdge root) const
{
    std::size_t count = 0;
    trav_.reset(nodes_.size());
    stack_.clear();
    stack_.push_back(root.nodeIndex());
    while (!stack_.empty()) {
        const std::uint32_t idx = stack_.back();
        stack_.pop_back();
        if (trav_.has(idx)) continue;
        trav_.set(idx, 1);
        const Node& n = nodes_[idx];
        if (idx != 0 && n.extVar == kNoVar) {
            ++count;
            stack_.push_back(n.fanin0.nodeIndex());
            stack_.push_back(n.fanin1.nodeIndex());
        }
    }
    return count;
}

bool Aig::evaluate(AigEdge root, const std::vector<bool>& assignment) const
{
    // Iterative post-order evaluation; slot holds the node's value.
    trav_.reset(nodes_.size());
    trav_.set(0, 0);
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
            trav_.set(idx, (n.extVar < assignment.size() && assignment[n.extVar]) ? 1 : 0);
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
        const bool v0 = (trav_.get(i0) != 0) != n.fanin0.complemented();
        const bool v1 = (trav_.get(i1) != 0) != n.fanin1.complemented();
        trav_.set(idx, (v0 && v1) ? 1 : 0);
        stack_.pop_back();
    }
    return (trav_.get(root.nodeIndex()) != 0) != root.complemented();
}

AigEdge Aig::importCone(const Aig& src, AigEdge root)
{
    std::vector<AigEdge> result(src.nodes_.size(), AigEdge());
    result[0] = constFalse();
    std::vector<std::uint32_t> stack{root.nodeIndex()};
    while (!stack.empty()) {
        const std::uint32_t idx = stack.back();
        if (result[idx].isValid()) {
            stack.pop_back();
            continue;
        }
        const Node& n = src.nodes_[idx];
        if (n.extVar != kNoVar) {
            result[idx] = variable(n.extVar);
            stack.pop_back();
            continue;
        }
        const std::uint32_t i0 = n.fanin0.nodeIndex();
        const std::uint32_t i1 = n.fanin1.nodeIndex();
        if (!result[i0].isValid()) {
            stack.push_back(i0);
            continue;
        }
        if (!result[i1].isValid()) {
            stack.push_back(i1);
            continue;
        }
        const AigEdge a = result[i0] ^ n.fanin0.complemented();
        const AigEdge b = result[i1] ^ n.fanin1.complemented();
        result[idx] = mkAnd(a, b);
        stack.pop_back();
    }
    return result[root.nodeIndex()] ^ root.complemented();
}

void Aig::garbageCollect(std::vector<AigEdge*> roots, std::vector<std::uint32_t>* nodeList)
{
    const std::size_t oldSize = nodes_.size();
    stats_.peakAllocatedNodes = std::max<std::uint64_t>(stats_.peakAllocatedNodes, oldSize);

    // Mark the reachable nodes in the traversal cache; a marked node's slot
    // later holds its new index.
    trav_.reset(oldSize);
    trav_.set(0, 0);
    stack_.clear();
    for (AigEdge* r : roots) stack_.push_back(r->nodeIndex());
    while (!stack_.empty()) {
        const std::uint32_t idx = stack_.back();
        stack_.pop_back();
        if (trav_.has(idx)) continue;
        trav_.set(idx, 0);
        const Node& n = nodes_[idx];
        if (n.extVar == kNoVar) {
            stack_.push_back(n.fanin0.nodeIndex());
            stack_.push_back(n.fanin1.nodeIndex());
        }
    }

    // Compact in place in index order: fanins precede fanouts, and a node
    // only moves down, so every fanin is remapped before it is read.
    const auto remap = [this](std::uint32_t idx) {
        return static_cast<std::uint32_t>(trav_.slot[idx]);
    };
    std::uint32_t live = 1;
    std::size_t liveAnds = 0;
    for (std::uint32_t idx = 1; idx < oldSize; ++idx) {
        Node n = nodes_[idx];
        if (!trav_.has(idx)) {
            if (n.extVar != kNoVar) inputOfVar_.erase(n.extVar);
            continue;
        }
        trav_.slot[idx] = live;
        if (n.extVar == kNoVar) {
            n.fanin0 = AigEdge(remap(n.fanin0.nodeIndex()), n.fanin0.complemented());
            n.fanin1 = AigEdge(remap(n.fanin1.nodeIndex()), n.fanin1.complemented());
            ++liveAnds;
        } else {
            inputOfVar_[n.extVar] = live;
        }
        nodes_[live++] = n;
    }
    nodes_.resize(live);

    // Size the strash for the pool allowed before the next collection.
    strashRebuild(nextPow2(4 * liveAnds + 2048, kStrashInitialSize));
    strashCount_ = liveAnds;

    for (AigEdge* r : roots) *r = AigEdge(remap(r->nodeIndex()), r->complemented());
    if (nodeList) {
        for (std::uint32_t& idx : *nodeList) {
            assert(trav_.has(idx));
            idx = remap(idx);
        }
    }

    ++stats_.gcRuns;
    stats_.gcReclaimedNodes += oldSize - nodes_.size();
    stats_.peakLiveNodes = std::max<std::uint64_t>(stats_.peakLiveNodes, nodes_.size());
    publishKernelStats();
}

void Aig::releaseSince(std::size_t mark)
{
    assert(mark >= 1);
    // The strash is always the table that inserting the AND nodes in index
    // order builds: mkAnd inserts each new node, the highest index, and
    // growth and collection rehash in index order.  The entries at or above
    // the mark are the newest, so emptying their slots restores the table
    // as it was at the mark: no older entry's chain runs through them, and
    // none has to move up.
    for (std::size_t idx = nodes_.size(); idx-- > mark;) {
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            inputOfVar_.erase(n.extVar);
        } else {
            strashPop(static_cast<std::uint32_t>(idx));
            --strashCount_;
        }
    }
    if (mark < nodes_.size()) nodes_.resize(mark);
}

void Aig::publishKernelStats()
{
    stats_.peakAllocatedNodes = std::max<std::uint64_t>(stats_.peakAllocatedNodes, nodes_.size());
    const AigKernelStats& s = stats_;
    AigKernelStats& p = published_;
    OBS_COUNT("aig.ands", static_cast<std::int64_t>(s.ands - p.ands));
    OBS_COUNT("aig.rebuild.visits", static_cast<std::int64_t>(s.rebuildVisits - p.rebuildVisits));
    OBS_COUNT("aig.strash.probes", static_cast<std::int64_t>(s.strashProbes - p.strashProbes));
    OBS_COUNT("aig.strash.resizes", static_cast<std::int64_t>(s.strashResizes - p.strashResizes));
    OBS_COUNT("aig.rewrite.contradiction",
              static_cast<std::int64_t>(s.rewriteContradiction - p.rewriteContradiction));
    OBS_COUNT("aig.rewrite.idempotence",
              static_cast<std::int64_t>(s.rewriteIdempotence - p.rewriteIdempotence));
    OBS_COUNT("aig.rewrite.subsumption",
              static_cast<std::int64_t>(s.rewriteSubsumption - p.rewriteSubsumption));
    OBS_COUNT("aig.rewrite.substitution",
              static_cast<std::int64_t>(s.rewriteSubstitution - p.rewriteSubstitution));
    OBS_COUNT("aig.rewrite.resolution",
              static_cast<std::int64_t>(s.rewriteResolution - p.rewriteResolution));
    OBS_COUNT("aig.gc.runs", static_cast<std::int64_t>(s.gcRuns - p.gcRuns));
    OBS_COUNT("aig.gc.reclaimed",
              static_cast<std::int64_t>(s.gcReclaimedNodes - p.gcReclaimedNodes));
    OBS_GAUGE_MAX("aig.nodes.peak_live", static_cast<std::int64_t>(s.peakLiveNodes));
    OBS_GAUGE_MAX("aig.nodes.peak_alloc", static_cast<std::int64_t>(s.peakAllocatedNodes));
    published_ = stats_;
}

std::ostream& operator<<(std::ostream& os, AigEdge e)
{
    if (!e.isValid()) return os << "edge-invalid";
    return os << (e.complemented() ? "~n" : "n") << e.nodeIndex();
}

} // namespace hqs
