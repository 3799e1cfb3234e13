#include "src/aig/fraig.hpp"

#include <cassert>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/fault.hpp"
#include "src/base/rng.hpp"
#include "src/obs/obs.hpp"
#include "src/base/timer.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

/// Deterministic simulation pattern for (variable, word index).
std::uint64_t inputPattern(Var v, unsigned word, std::uint64_t seed)
{
    std::uint64_t z = seed ^ (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(word + 1) * 0xda942042e4dd58b5ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Lazily memoized simulation signatures for nodes of @p aig.
class Signatures {
public:
    Signatures(const Aig& aig, unsigned words, std::uint64_t seed)
        : aig_(aig), words_(words), seed_(seed)
    {
    }

    /// Signature of an edge (complement applied).
    std::vector<std::uint64_t> ofEdge(AigEdge e)
    {
        std::vector<std::uint64_t> s = ofNode(e.nodeIndex());
        if (e.complemented()) {
            for (auto& w : s) w = ~w;
        }
        return s;
    }

private:
    const std::vector<std::uint64_t>& ofNode(std::uint32_t idx)
    {
        auto hit = memo_.find(idx);
        if (hit != memo_.end()) return hit->second;

        std::vector<std::uint32_t> stack{idx};
        while (!stack.empty()) {
            const std::uint32_t i = stack.back();
            if (memo_.contains(i)) {
                stack.pop_back();
                continue;
            }
            const AigEdge e(i, false);
            if (aig_.isConstant(e)) {
                memo_.emplace(i, std::vector<std::uint64_t>(words_, 0));
                stack.pop_back();
                continue;
            }
            if (aig_.isInput(e)) {
                std::vector<std::uint64_t> s(words_);
                for (unsigned w = 0; w < words_; ++w)
                    s[w] = inputPattern(aig_.inputVariable(e), w, seed_);
                memo_.emplace(i, std::move(s));
                stack.pop_back();
                continue;
            }
            const AigEdge f0 = aig_.fanin0(e);
            const AigEdge f1 = aig_.fanin1(e);
            auto it0 = memo_.find(f0.nodeIndex());
            auto it1 = memo_.find(f1.nodeIndex());
            if (it0 == memo_.end()) {
                stack.push_back(f0.nodeIndex());
                continue;
            }
            if (it1 == memo_.end()) {
                stack.push_back(f1.nodeIndex());
                continue;
            }
            std::vector<std::uint64_t> s(words_);
            for (unsigned w = 0; w < words_; ++w) {
                const std::uint64_t w0 =
                    f0.complemented() ? ~it0->second[w] : it0->second[w];
                const std::uint64_t w1 =
                    f1.complemented() ? ~it1->second[w] : it1->second[w];
                s[w] = w0 & w1;
            }
            memo_.emplace(i, std::move(s));
            stack.pop_back();
        }
        return memo_.at(idx);
    }

    const Aig& aig_;
    unsigned words_;
    std::uint64_t seed_;
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> memo_;
};

std::uint64_t hashSig(const std::vector<std::uint64_t>& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t w : s) {
        h ^= w;
        h *= 0x100000001b3ull;
    }
    return h;
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

    Signatures sigs(aig, opts.simWords, opts.seed);
    SatSolver sat;
    AigCnfBridge bridge(aig, sat);

    // Equivalence-class buckets over normalized signatures.  An entry is a
    // previously registered representative edge in normalized phase (its
    // signature has LSB 0 in word 0).
    std::unordered_map<std::uint64_t, std::vector<AigEdge>> buckets;
    auto normalize = [](AigEdge e, std::vector<std::uint64_t>& s) {
        if (s[0] & 1ull) {
            for (auto& w : s) w = ~w;
            return ~e;
        }
        return e;
    };

    // Seed the constant class so semantically constant nodes collapse.
    {
        std::vector<std::uint64_t> zero(opts.simWords, 0);
        buckets[hashSig(zero)].push_back(aig.constFalse());
    }

    /// Try to merge @p e into an existing representative.  Returns the
    /// replacement edge, or e itself when no representative matches.
    auto tryMerge = [&](AigEdge e) -> AigEdge {
        std::vector<std::uint64_t> s = sigs.ofEdge(e);
        const AigEdge norm = normalize(e, s);
        const bool flipped = (norm != e);
        auto& bucket = buckets[hashSig(s)];
        for (AigEdge rep : bucket) {
            if (rep == norm) return e; // already the representative
            if (sigs.ofEdge(rep) != s) continue; // hash collision
            if (opts.deadline.expired()) break;  // budget gone: stop proving
            if (opts.maxQueries != 0 && st.candidates >= opts.maxQueries) break;
            ++st.candidates;
            const Lit a = bridge.litFor(norm);
            const Lit b = bridge.litFor(rep);
            const Deadline dl = Deadline::in(opts.satBudgetSeconds);
            const SolveResult r1 = sat.solve({a, ~b}, dl);
            if (r1 == SolveResult::Timeout) {
                ++st.timedOut;
                continue;
            }
            if (r1 == SolveResult::Sat) {
                ++st.refuted;
                continue;
            }
            const SolveResult r2 = sat.solve({~a, b}, dl);
            if (r2 == SolveResult::Timeout) {
                ++st.timedOut;
                continue;
            }
            if (r2 == SolveResult::Sat) {
                ++st.refuted;
                continue;
            }
            ++st.merged;
            return flipped ? ~rep : rep;
        }
        bucket.push_back(norm);
        return e;
    };

    // Rebuild bottom-up with merging.  Signature computation alone is
    // O(cone * simWords), so on huge cones we must notice an expired budget
    // mid-sweep: once it is gone, keep rebuilding (cheap, and required to
    // return a valid edge) but stop proving candidates.
    bool proving = true;
    std::vector<AigEdge> rebuilt(rootIdx + 1, AigEdge());
    rebuilt[0] = aig.constFalse();
    for (std::uint32_t idx = 1; idx <= rootIdx; ++idx) {
        if (!inCone[idx]) continue;
        if (proving && (idx & 0xff) == 0 && opts.deadline.expired()) proving = false;
        const AigEdge e(idx, false);
        if (aig.isInput(e)) {
            // Register inputs as representatives (a cone can collapse to a
            // projection), but never merge one input into another.
            std::vector<std::uint64_t> s = sigs.ofEdge(e);
            const AigEdge norm = normalize(e, s);
            buckets[hashSig(s)].push_back(norm);
            rebuilt[idx] = e;
            continue;
        }
        const AigEdge f0 = aig.fanin0(e);
        const AigEdge f1 = aig.fanin1(e);
        const AigEdge a = rebuilt[f0.nodeIndex()] ^ f0.complemented();
        const AigEdge b = rebuilt[f1.nodeIndex()] ^ f1.complemented();
        AigEdge merged = aig.mkAnd(a, b);
        if (proving && !aig.isConstant(merged)) merged = tryMerge(merged);
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
        fraigSpan.arg("reduction_permille", permille);
    }
    fraigSpan.arg("nodes_before", static_cast<std::int64_t>(coneBefore));
    fraigSpan.arg("nodes_after", static_cast<std::int64_t>(coneAfter));
    return result;
}

} // namespace hqs
