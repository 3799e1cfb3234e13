// And-Inverter Graphs: structurally hashed Boolean function representation.
//
// This is our stand-in for the `aigpp` library the paper builds on [18].
// An Aig manager owns a pool of nodes; each node is either the constant,
// an input (labelled with an external variable), or a two-input AND.
// Negation is free: edges carry a complement bit.  mkAnd performs constant
// folding, the two-level rewriting rules of Brummayer & Biere (MEMICS 2006;
// at most one new node per call) and structural hashing, so structurally
// identical functions share nodes and local redundancy folds as cones are
// rebuilt (full functional reduction — FRAIGing — is in fraig.hpp).
//
// The kernel follows the classic AIG/BDD-package disciplines (ABC's AIG
// manager; CUDD's unique table):
//   * the strash is a power-of-two open-addressing table in one flat
//     vector (linear probing, value = node index + 1, 0 = empty);
//   * traversals (substitute, cofactor, support, evaluate, the Theorem-6
//     unit/pure walk) run on a manager-owned, generation-stamped
//     TraversalCache — bumping the generation invalidates in O(1), so the
//     hot paths do no per-call heap allocation;
//   * a cone rebuild (substitute, cofactor, compose, cofactorPair, the
//     FRAIG sweep) keeps a node whose rebuilt fanins equal its own fanins
//     without calling mkAnd.  This is exact: a node exists only because no
//     rewrite rule fired on its fanin pair, whether a rule fires does not
//     depend on operand order, and the strash holds every AND node, so
//     mkAnd on that pair can only return the node itself;
//   * the elimination rebuild (cofactorPair) is one linear pass over a
//     topological cone list — the one the Theorem-6 scan records — that
//     builds phi[0/v] and phi[1/v] together, both images of a node packed
//     into one 64-bit traversal slot: no DFS stack, no "fanin done?"
//     checks.  An optional allocation cap stops it early, for the QBF
//     backend's order trial, and dependentCounts prices a candidate
//     variable over the same list.  The DFS rebuild stays only for callers
//     without a scan (certificates, Skolem reconstruction, iDQ, gate
//     composition);
//   * there is no cross-call compose/cofactor cache: each elimination
//     cofactors a fresh (variable, constant) pair, so entries would never
//     repeat within a solve;
//   * garbageCollect is a mark-and-compact pass: callers register their
//     live roots, dead cones are reclaimed, and the registered AigEdge
//     handles are rewired through a remap table.  It marks in the
//     traversal cache, compacts nodes_ in place and reuses the DFS stack,
//     so a collection allocates nothing and costs the live cone plus one
//     sequential sweep of the pool.  The elimination kernel collects as
//     soon as the garbage outgrows the live cone (ElimKernel::
//     collectIfBloated), so the pool stays within about twice the cone;
//   * after a collection the strash is sized for the pool allowed before
//     the next one (nextPow2(4 * live ANDs + 2048), under 0.7 load up to
//     twice the live set), so it neither shrinks and regrows nor keeps a
//     stale high-water size.  Growth and collection rehash from nodes_ in
//     index order (every AND node is in the table): sequential reads;
//   * the Theorem-6 scan keeps a bitmap of marked, unvisited nodes and
//     jumps between its set bits, so it costs O(cone + pool/64) instead of
//     a test of every pool index below the root;
//   * releaseSince(mark) drops the nodes allocated since mark and empties
//     their strash slots.  Since the strash always holds the table that
//     inserting every AND node in index order builds, this restores the
//     table as it was at the mark exactly, with no entry to shift back.
//     The QBF backend's order trial hands its losing build back this way
//     instead of leaving it as garbage.
//
// On top of the core the manager provides the operations HQS needs:
// cofactor/compose/parallel substitution and the elimination rebuild with
// its dependent-cone counts (quantify.cpp), support computation,
// evaluation, the Theorem-6 syntactic unit/pure detection (unit_pure.cpp),
// and a CNF bridge (cnf_bridge.hpp).
//
// Thread-safety: a manager is single-threaded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/literal.hpp"
#include "src/base/timer.hpp"

namespace hqs {

/// A (possibly complemented) reference to an AIG node.
class AigEdge {
public:
    constexpr AigEdge() : code_(kInvalidCode) {}
    constexpr AigEdge(std::uint32_t nodeIndex, bool complemented)
        : code_((nodeIndex << 1) | (complemented ? 1u : 0u))
    {
    }

    constexpr std::uint32_t nodeIndex() const { return code_ >> 1; }
    constexpr bool complemented() const { return (code_ & 1u) != 0; }
    constexpr std::uint32_t code() const { return code_; }
    static constexpr AigEdge fromCode(std::uint32_t code)
    {
        AigEdge e;
        e.code_ = code;
        return e;
    }

    constexpr bool isValid() const { return code_ != kInvalidCode; }

    constexpr AigEdge operator~() const { return fromCode(code_ ^ 1u); }
    constexpr AigEdge operator^(bool flip) const { return fromCode(code_ ^ (flip ? 1u : 0u)); }

    constexpr bool operator==(const AigEdge&) const = default;
    constexpr bool operator<(const AigEdge& o) const { return code_ < o.code_; }

private:
    static constexpr std::uint32_t kInvalidCode = static_cast<std::uint32_t>(-1);
    std::uint32_t code_;
};

/// Per-variable unit/pure classification from the Theorem-6 AIG traversal,
/// plus the cone statistics the same walk sees.  A variable can be unit and
/// pure at the same time.
struct UnitPureInfo {
    std::vector<Var> posUnit;
    std::vector<Var> negUnit;
    std::vector<Var> posPure;
    std::vector<Var> negPure;
    /// AND nodes in the cone (what Aig::coneSize reports).
    std::size_t coneSize = 0;
    /// Indexed by Var: the number of AND nodes in the cone with v as a
    /// fanin (1 for a root that is v's input itself); 0 = outside the
    /// support.  Sized to the largest occurring variable + 1.
    std::vector<std::uint32_t> occurrences;
    /// Indices of the cone's input and AND nodes (not the constant) in
    /// descending order, as the walk visits them: read backwards, a
    /// topological order, the list Aig::cofactorPair runs over.
    std::vector<std::uint32_t> cone;

    std::uint32_t occurrencesOf(Var v) const
    {
        return v < occurrences.size() ? occurrences[v] : 0;
    }
};

/// Reusable simultaneous-substitution map Var -> AigEdge for
/// Aig::substitute.  Dense and generation-stamped: clear() is O(1) and
/// leaves capacity in place, so one Substitution can be rebuilt every
/// elimination without heap churn.  Obtain a manager-owned scratch instance
/// through Aig::scratchSubstitution(), or hold your own.
class Substitution {
public:
    Substitution() = default;

    /// Map @p v to @p g (overwrites an earlier image of v).
    void set(Var v, AigEdge g)
    {
        if (v >= stamp_.size()) {
            stamp_.resize(v + 1, 0);
            image_.resize(v + 1);
        }
        if (stamp_[v] != gen_) {
            stamp_[v] = gen_;
            domain_.push_back(v);
        }
        image_[v] = g;
    }

    /// Forget every mapping; capacity is retained.
    void clear()
    {
        domain_.clear();
        if (++gen_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0u);
            gen_ = 1;
        }
    }

    bool empty() const { return domain_.empty(); }
    std::size_t size() const { return domain_.size(); }
    bool maps(Var v) const { return v < stamp_.size() && stamp_[v] == gen_; }
    /// Image of @p v (precondition: maps(v)).
    AigEdge image(Var v) const { return image_[v]; }
    /// Mapped variables in insertion order.
    const std::vector<Var>& domain() const { return domain_; }

private:
    std::vector<std::uint32_t> stamp_;
    std::vector<AigEdge> image_;
    std::vector<Var> domain_;
    std::uint32_t gen_ = 1;
};

/// Cumulative kernel instrumentation (monotonic over the manager's life).
/// Mirrored into the obs registry as aig.ands, aig.strash.*,
/// aig.rebuild.visits, aig.rewrite.*, aig.gc.* and the aig.nodes.peak_*
/// gauges by
/// publishKernelStats()/garbageCollect.
struct AigKernelStats {
    std::uint64_t ands = 0;           ///< AND nodes allocated (strash misses)
    std::uint64_t strashProbes = 0;   ///< table slots inspected by mkAnd
    std::uint64_t strashResizes = 0;  ///< doublings of the strash table
    /// AND nodes visited by cone rebuilds (substitute, cofactor, compose,
    /// cofactorPair); a cofactorPair step builds both images and counts once.
    std::uint64_t rebuildVisits = 0;
    /// mkAnd calls settled by each two-level rewriting rule (a substitution
    /// counts once per round it continues with).
    std::uint64_t rewriteContradiction = 0;
    std::uint64_t rewriteIdempotence = 0;
    std::uint64_t rewriteSubsumption = 0;
    std::uint64_t rewriteSubstitution = 0;
    std::uint64_t rewriteResolution = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t gcReclaimedNodes = 0;
    std::uint64_t peakLiveNodes = 0;  ///< max live nodes seen at a GC mark
    std::uint64_t peakAllocatedNodes = 0; ///< max pool size ever
};

class SatSolver; // cnf_bridge / fraig use the SAT solver

/// AIG manager: owns the node pool, the structural-hashing table and the
/// traversal cache.
class Aig {
public:
    Aig();

    // ----- leaves ---------------------------------------------------------
    AigEdge constFalse() const { return AigEdge(0, false); }
    AigEdge constTrue() const { return AigEdge(0, true); }

    /// The input edge for external variable @p v (created on first use).
    AigEdge variable(Var v);
    bool hasVariable(Var v) const;
    /// Input edge for @p v without creating it (precondition:
    /// hasVariable(v)).
    AigEdge existingVariable(Var v) const { return AigEdge(inputOfVar_.at(v), false); }

    bool isConstant(AigEdge e) const { return e.nodeIndex() == 0; }
    /// Value of a constant edge (precondition: isConstant(e)).
    bool constantValue(AigEdge e) const { return e.complemented(); }
    bool isInput(AigEdge e) const;
    /// External variable of an input edge (precondition: isInput(e)).
    Var inputVariable(AigEdge e) const;

    // ----- structure ------------------------------------------------------
    bool isAnd(AigEdge e) const;
    AigEdge fanin0(AigEdge e) const;
    AigEdge fanin1(AigEdge e) const;

    // ----- Boolean operations ----------------------------------------------
    AigEdge mkAnd(AigEdge a, AigEdge b);
    AigEdge mkOr(AigEdge a, AigEdge b) { return ~mkAnd(~a, ~b); }
    AigEdge mkXor(AigEdge a, AigEdge b);
    AigEdge mkEquiv(AigEdge a, AigEdge b) { return ~mkXor(a, b); }
    AigEdge mkImplies(AigEdge a, AigEdge b) { return mkOr(~a, b); }
    AigEdge mkIte(AigEdge c, AigEdge t, AigEdge e);
    AigEdge mkAndN(const std::vector<AigEdge>& es);
    AigEdge mkOrN(const std::vector<AigEdge>& es);

    // ----- substitution and quantification (quantify.cpp) -------------------
    /// phi[value/v].
    AigEdge cofactor(AigEdge root, Var v, bool value);
    /// phi[g/v] (single composition).
    AigEdge compose(AigEdge root, Var v, AigEdge g);
    /// (phi[0/v], phi[1/v]) in one ascending pass over @p cone, the cone of
    /// @p root as UnitPureInfo::cone lists it (descending indices).  With
    /// @p renameHigh (which must not map v) the second image is
    /// phi[1/v][renameHigh], Theorem 1's renamed cofactor.  Polls
    /// @p deadline every kDeadlinePollNodes steps; once it has expired both
    /// edges come back invalid and the partial copies are garbage for the
    /// next collection.  With @p cap the pass also stops, edges invalid,
    /// as soon as it has allocated more than @p cap nodes (so at most
    /// cap + 1).  The two stops are told apart by the allocation: only a
    /// capped stop leaves more than @p cap new nodes.
    std::pair<AigEdge, AigEdge> cofactorPair(AigEdge root, Var v,
                                             const std::vector<std::uint32_t>& cone,
                                             const Deadline& deadline,
                                             const Substitution* renameHigh = nullptr,
                                             std::size_t cap = kNoCap);
    static constexpr std::uint32_t kDeadlinePollNodes = 4096;
    static constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();
    /// Dependent cones: out[i] = the number of AND nodes in @p cone (a
    /// UnitPureInfo::cone list) whose support contains @p candidates[i].
    /// One ascending pass per 64 candidates ORs 64-bit fanin masks in the
    /// traversal slots.
    void dependentCounts(const std::vector<std::uint32_t>& cone,
                         const std::vector<Var>& candidates,
                         std::vector<std::uint32_t>& out);
    /// Simultaneous substitution var -> function for every entry of @p sub.
    AigEdge substitute(AigEdge root, const Substitution& sub);

    /// Manager-owned scratch Substitution, cleared on every call.  The
    /// returned reference stays valid until the manager dies; do not nest
    /// two scratchSubstitution() builds.
    Substitution& scratchSubstitution()
    {
        scratchSub_.clear();
        return scratchSub_;
    }

    // ----- cross-manager rebuild --------------------------------------------
    /// Copy the cone of @p root from @p src into this manager (structural
    /// hashing deduplicates against existing nodes).
    AigEdge importCone(const Aig& src, AigEdge root);

    // ----- inspection -------------------------------------------------------
    /// External variables the cone of @p root structurally depends on
    /// (sorted ascending).
    std::vector<Var> support(AigEdge root) const;
    /// Number of AND nodes in the cone of @p root.
    std::size_t coneSize(AigEdge root) const;
    /// Total nodes currently allocated in the manager (including garbage).
    std::size_t numNodes() const { return nodes_.size(); }

    /// Evaluate under an assignment of external variables (indexed by Var;
    /// variables beyond the vector are taken as false).
    bool evaluate(AigEdge root, const std::vector<bool>& assignment) const;

    // ----- unit/pure detection (unit_pure.cpp) -----------------------------
    /// Syntactic unit/pure classification of Theorem 6, with the cone size,
    /// per-variable occurrence counts and the cone list, in one
    /// O(cone + vars + pool/64) walk.
    UnitPureInfo detectUnitPure(AigEdge root) const;
    /// The same walk into @p out, whose vectors keep their capacity.
    void detectUnitPure(AigEdge root, UnitPureInfo& out) const;

    // ----- garbage collection ----------------------------------------------
    /// Drop every node not reachable from @p roots, compacting the node
    /// pool in place and rehashing the strash.  The edges in @p roots are
    /// updated in place, and so are the node indices in @p nodeList (each
    /// must be reachable from @p roots).  Compaction keeps relative index
    /// order, so a sorted list stays sorted.
    void garbageCollect(std::vector<AigEdge*> roots,
                        std::vector<std::uint32_t>* nodeList = nullptr);
    /// Drop every node with index >= @p mark (a numNodes() taken earlier)
    /// and delete their strash entries.  Nodes below @p mark keep their
    /// indices; no edge to a dropped node may be used afterwards.
    void releaseSince(std::size_t mark);

    // ----- instrumentation --------------------------------------------------
    const AigKernelStats& kernelStats() const { return stats_; }
    /// Push the deltas since the last publish into the obs registry
    /// (aig.ands, aig.strash.probes, aig.strash.resizes, aig.rebuild.visits,
    /// the aig.rewrite.<rule>
    /// counters, aig.gc.runs, aig.gc.reclaimed
    /// and the aig.nodes.peak_live / aig.nodes.peak_alloc gauges).  Called by
    /// garbageCollect; call once more when a solve finishes.
    void publishKernelStats();

private:
    struct Node {
        AigEdge fanin0; // invalid for const/input nodes
        AigEdge fanin1;
        Var extVar = kNoVar; // set for input nodes only
    };

    /// Generation-stamped dense per-node scratch: reset() bumps the
    /// generation (O(1)) instead of clearing, and sizes the arrays to the
    /// current pool.  Slots hold whatever the traversal needs (an edge
    /// code, a Boolean value, mark bits).  Not reentrant: one traversal at
    /// a time (traversals never call other traversals).
    struct TraversalCache {
        std::vector<std::uint32_t> stamp;
        std::vector<std::uint64_t> slot;
        std::uint32_t gen = 0;

        void reset(std::size_t n)
        {
            if (stamp.size() < n) {
                stamp.resize(n, 0u);
                slot.resize(n);
            }
            if (++gen == 0) {
                std::fill(stamp.begin(), stamp.end(), 0u);
                gen = 1;
            }
        }
        bool has(std::uint32_t i) const { return stamp[i] == gen; }
        std::uint64_t get(std::uint32_t i) const { return slot[i]; }
        void set(std::uint32_t i, std::uint64_t v)
        {
            stamp[i] = gen;
            slot[i] = v;
        }
        void orBits(std::uint32_t i, std::uint64_t bits)
        {
            if (stamp[i] == gen) {
                slot[i] |= bits;
            } else {
                stamp[i] = gen;
                slot[i] = bits;
            }
        }
    };

    AigEdge mkAndRaw(AigEdge a, AigEdge b);

    // strash helpers (aig.cpp)
    void strashGrow();
    /// Resize the strash to @p size slots and insert every AND node, in
    /// index order.
    void strashRebuild(std::size_t size);
    void strashInsertNew(std::uint32_t idx); ///< insert without duplicate check
    /// Empty the slot of AND node @p idx, one of the newest entries (see
    /// releaseSince).
    void strashPop(std::uint32_t idx);
    static std::uint64_t strashHash(std::uint32_t aCode, std::uint32_t bCode);

    // One node of every cone rebuild: AND node @p idx with @p img0 and
    // @p img1, the images of its fanins' nodes (quantify.cpp).
    AigEdge rebuildAnd(std::uint32_t idx, AigEdge img0, AigEdge img1);
    // the DFS cone rebuild behind substitute, cofactor and compose
    // (quantify.cpp)
    template <class Lookup>
    AigEdge substituteImpl(AigEdge root, Lookup&& lookup);

    const Node& node(AigEdge e) const { return nodes_[e.nodeIndex()]; }

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> strash_; ///< pow2 open addressing; node index + 1; 0 empty
    std::size_t strashCount_ = 0;       ///< AND nodes stored in strash_
    std::unordered_map<Var, std::uint32_t> inputOfVar_;

    mutable TraversalCache trav_;
    mutable std::vector<std::uint32_t> stack_; ///< reused DFS stack (same non-reentrancy rule)
    /// The Theorem-6 scan's marked-and-unvisited bitmap, one bit per node
    /// (same non-reentrancy rule).
    mutable std::vector<std::uint64_t> scanBits_;
    Substitution scratchSub_;

    AigKernelStats stats_;
    AigKernelStats published_; ///< stats_ snapshot at the last obs publish

    friend class AigCnfBridge;
    friend struct AigInspector; ///< tests: read-only access to the strash
};

std::ostream& operator<<(std::ostream& os, AigEdge e);

} // namespace hqs
