#include "src/aig/fraig.hpp"

#include <cassert>
#include <unordered_map>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/fault.hpp"
#include "src/base/rng.hpp"
#include "src/obs/obs.hpp"
#include "src/base/timer.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

/// Conflict budget per SAT equivalence query.  An abandoned query leaves
/// the node unmerged (sound, just less reduction).  A count, not wall time,
/// so the sweep merges the same nodes however loaded the host is.  Completed
/// queries take at most 2 conflicts on pec_sweep, 14 on Table I widths 6-8
/// and 327 on the XOR-tree rescue of the kernel's FRAIG registry test.
constexpr std::uint64_t kQueryConflictLimit = 1000;

/// Deterministic simulation pattern for (variable, word index).
std::uint64_t inputPattern(Var v, unsigned word, std::uint64_t seed)
{
    std::uint64_t z = seed ^ (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(word + 1) * 0xda942042e4dd58b5ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Simulation signatures of the cone nodes a sweep visits while it still
/// proves: one row of `words` words per node, appended in ascending index
/// order, so a node's fanins have their rows before it does.  A node the
/// sweep rebuilds computes its old node's function, so it is simulated
/// through that old index.  Row 0 is the constant false node's all-zero
/// signature.
class Signatures {
public:
    Signatures(unsigned words, std::uint64_t seed) : words_(words), seed_(seed), table_(words, 0)
    {
    }

    /// Append the row of old node @p idx (an input or an AND whose fanins
    /// have rows) and return its row number.
    std::uint32_t add(const Aig& aig, std::uint32_t idx)
    {
        const auto r = static_cast<std::uint32_t>(table_.size() / words_);
        if (rowOf_.size() <= idx) rowOf_.resize(std::size_t{idx} + 1, 0);
        rowOf_[idx] = r;
        table_.resize(table_.size() + words_);
        std::uint64_t* s = &table_[std::size_t{r} * words_];
        const AigEdge e(idx, false);
        if (aig.isInput(e)) {
            for (unsigned w = 0; w < words_; ++w)
                s[w] = inputPattern(aig.inputVariable(e), w, seed_);
            return r;
        }
        const AigEdge f0 = aig.fanin0(e);
        const AigEdge f1 = aig.fanin1(e);
        const std::uint64_t* s0 = row(rowOf_[f0.nodeIndex()]);
        const std::uint64_t* s1 = row(rowOf_[f1.nodeIndex()]);
        const std::uint64_t m0 = f0.complemented() ? ~0ull : 0;
        const std::uint64_t m1 = f1.complemented() ? ~0ull : 0;
        for (unsigned w = 0; w < words_; ++w) s[w] = (s0[w] ^ m0) & (s1[w] ^ m1);
        return r;
    }

    /// Rows added so far, the constant's included.
    std::size_t rows() const { return table_.size() / words_; }
    const std::uint64_t* row(std::uint32_t r) const { return &table_[std::size_t{r} * words_]; }
    unsigned words() const { return words_; }

private:
    unsigned words_;
    std::uint64_t seed_;
    std::vector<std::uint64_t> table_;
    /// Old node index -> row number, grown to the highest index added.
    std::vector<std::uint32_t> rowOf_;
};

/// An edge whose signature is row `row` of the table, complemented when
/// mask is all ones.
struct SigRef {
    std::uint32_t row;
    std::uint64_t mask;
};

std::uint64_t hashSig(const Signatures& sigs, SigRef r)
{
    const std::uint64_t* s = sigs.row(r.row);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned w = 0; w < sigs.words(); ++w) {
        h ^= s[w] ^ r.mask;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool sameSig(const Signatures& sigs, SigRef a, SigRef b)
{
    const std::uint64_t* sa = sigs.row(a.row);
    const std::uint64_t* sb = sigs.row(b.row);
    for (unsigned w = 0; w < sigs.words(); ++w) {
        if ((sa[w] ^ a.mask) != (sb[w] ^ b.mask)) return false;
    }
    return true;
}

} // namespace

AigEdge fraigReduce(Aig& aig, AigEdge root, const FraigOptions& opts, FraigStats* stats)
{
    // The sweep's signature tables are the largest transient allocation in
    // the solver; injecting bad_alloc here exercises the degradation
    // ladder's FRAIG-off rung.
    fault::checkpointAlloc("fraig");
    FraigStats localStats;
    FraigStats& st = stats ? *stats : localStats;
    const FraigStats before = st; // the registry gets this sweep's deltas
    if (aig.isConstant(root) || aig.isInput(root)) return root;
    OBS_PHASE(fraigSpan, "hqs.fraig", "phase.fraig.us");
    OBS_COUNT("fraig.runs", 1);
    if (opts.trigger) fraigSpan.arg("trigger", opts.trigger);
    const std::size_t coneBefore = aig.coneSize(root);

    // Collect the cone of the (old) root: mark reachable descending, then
    // process ascending so fanins are rebuilt before fanouts.
    const std::uint32_t rootIdx = root.nodeIndex();
    std::vector<std::uint8_t> inCone(rootIdx + 1, 0);
    inCone[rootIdx] = 1;
    for (std::uint32_t idx = rootIdx; idx > 0; --idx) {
        if (!inCone[idx]) continue;
        const AigEdge e(idx, false);
        if (!aig.isAnd(e)) continue;
        inCone[aig.fanin0(e).nodeIndex()] = 1;
        inCone[aig.fanin1(e).nodeIndex()] = 1;
    }

    Signatures sigs(opts.simWords, opts.seed);
    SatSolver sat;
    AigCnfBridge bridge(aig, sat);

    // Equivalence-class buckets over normalized signatures.  An entry is a
    // previously registered representative edge in normalized phase (its
    // signature has LSB 0 in word 0) and where its signature lives.
    struct Rep {
        AigEdge edge;
        SigRef sig;
    };
    std::unordered_map<std::uint64_t, std::vector<Rep>> buckets;
    // The normalized form of an edge whose signature is row @p row.
    auto normalize = [&sigs](AigEdge e, std::uint32_t row) {
        return sigs.row(row)[0] & 1ull ? Rep{~e, {row, ~0ull}} : Rep{e, {row, 0}};
    };
    auto registerRep = [&](const Rep& r) { buckets[hashSig(sigs, r.sig)].push_back(r); };

    // Seed the constant class so semantically constant nodes collapse.
    registerRep({aig.constFalse(), {0, 0}});

    // The sweep proves until it has issued maxQueries candidates or its
    // deadline has expired, then stops for good: a node simulated and
    // registered after that could never merge, nor let a later node merge
    // into it, so the rest of the cone is a plain rebuild.
    bool proving = true;
    auto capReached = [&] {
        return opts.maxQueries != 0 && st.candidates - before.candidates >= opts.maxQueries;
    };

    /// Try to merge @p e, whose signature is row @p row, into an existing
    /// representative.  Returns the replacement edge, or e itself when no
    /// representative matches.
    auto tryMerge = [&](AigEdge e, std::uint32_t row) -> AigEdge {
        const Rep norm = normalize(e, row);
        const bool flipped = (norm.edge != e);
        auto& bucket = buckets[hashSig(sigs, norm.sig)];
        for (const Rep& rep : bucket) {
            if (rep.edge == norm.edge) return e;              // already the representative
            if (!sameSig(sigs, rep.sig, norm.sig)) continue; // hash collision
            if (capReached() || opts.deadline.expired()) {
                proving = false;
                return e;
            }
            ++st.candidates;
            const Lit a = bridge.litFor(norm.edge);
            const Lit b = bridge.litFor(rep.edge);
            const SolveResult r1 = sat.solve({a, ~b}, opts.deadline, kQueryConflictLimit);
            if (!isConclusive(r1)) {
                ++st.timedOut;
                continue;
            }
            if (r1 == SolveResult::Sat) {
                ++st.refuted;
                continue;
            }
            const SolveResult r2 = sat.solve({~a, b}, opts.deadline, kQueryConflictLimit);
            if (!isConclusive(r2)) {
                ++st.timedOut;
                continue;
            }
            if (r2 == SolveResult::Sat) {
                ++st.refuted;
                continue;
            }
            ++st.merged;
            return flipped ? ~rep.edge : rep.edge;
        }
        bucket.push_back(norm);
        return e;
    };

    // Rebuild bottom-up, simulating and merging while the sweep proves.  On
    // huge cones an expired deadline must be noticed between queries too
    // (every 256 nodes), since simulation alone is O(nodes * simWords).
    std::vector<AigEdge> rebuilt(rootIdx + 1, AigEdge());
    rebuilt[0] = aig.constFalse();
    for (std::uint32_t idx = 1; idx <= rootIdx; ++idx) {
        if (!inCone[idx]) continue;
        if (proving && (idx & 0xff) == 0 && opts.deadline.expired()) proving = false;
        const AigEdge e(idx, false);
        if (aig.isInput(e)) {
            // Register inputs as representatives (a cone can collapse to a
            // projection), but never merge one input into another.
            if (proving) registerRep(normalize(e, sigs.add(aig, idx)));
            rebuilt[idx] = e;
            continue;
        }
        const AigEdge f0 = aig.fanin0(e);
        const AigEdge f1 = aig.fanin1(e);
        const AigEdge a = rebuilt[f0.nodeIndex()] ^ f0.complemented();
        const AigEdge b = rebuilt[f1.nodeIndex()] ^ f1.complemented();
        // Unchanged fanins: the node is its own image (see aig.hpp).
        AigEdge merged = a == f0 && b == f1 ? e : aig.mkAnd(a, b);
        if (proving) {
            const std::uint32_t row = sigs.add(aig, idx);
            if (!aig.isConstant(merged)) merged = tryMerge(merged, row);
            if (capReached()) proving = false;
        }
        rebuilt[idx] = merged;
    }
    const AigEdge result = rebuilt[rootIdx] ^ root.complemented();
    OBS_COUNT("fraig.candidates", static_cast<std::int64_t>(st.candidates - before.candidates));
    OBS_COUNT("fraig.merged", static_cast<std::int64_t>(st.merged - before.merged));
    OBS_COUNT("fraig.refuted", static_cast<std::int64_t>(st.refuted - before.refuted));
    OBS_COUNT("fraig.timed_out", static_cast<std::int64_t>(st.timedOut - before.timedOut));
    const std::size_t coneAfter = aig.coneSize(result);
    if (coneBefore > 0 && coneAfter <= coneBefore) {
        const std::int64_t permille =
            static_cast<std::int64_t>((coneBefore - coneAfter) * 1000 / coneBefore);
        OBS_OBSERVE("fraig.reduction_permille", permille);
    }
    if (capReached()) OBS_COUNT("fraig.cap_reached", 1);
    fraigSpan.arg("nodes_before", static_cast<std::int64_t>(coneBefore));
    fraigSpan.arg("nodes_after", static_cast<std::int64_t>(coneAfter));
    // Cone nodes simulated before proving stopped (the constant excluded).
    fraigSpan.arg("nodes_proved", static_cast<std::int64_t>(sigs.rows() - 1));
    return result;
}

} // namespace hqs
