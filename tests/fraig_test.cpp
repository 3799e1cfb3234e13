// Tests for FRAIG-style SAT sweeping: the reduction must preserve semantics
// and merge functionally equivalent nodes, and a sweep that stops proving at
// its query cap must return what a sweep that simulates and registers every
// node returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/aig/fraig.hpp"
#include "src/base/rng.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

std::uint64_t truthTable(const Aig& aig, AigEdge root, Var n)
{
    std::uint64_t tt = 0;
    std::vector<bool> a(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
        if (aig.evaluate(root, a)) tt |= 1ull << bits;
    }
    return tt;
}

TEST(Fraig, LeavesAreFixpoints)
{
    Aig aig;
    EXPECT_EQ(fraigReduce(aig, aig.constTrue()), aig.constTrue());
    const AigEdge x = aig.variable(0);
    EXPECT_EQ(fraigReduce(aig, x), x);
    EXPECT_EQ(fraigReduce(aig, ~x), ~x);
}

TEST(Fraig, CollapsesSemanticConstant)
{
    // (x | y) & (~x) & (~y) == false, but not by structural folding alone.
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(aig.mkAnd(aig.mkOr(x, y), ~x), ~y);
    EXPECT_EQ(fraigReduce(aig, f), aig.constFalse());
}

TEST(Fraig, CollapsesSemanticTautology)
{
    // (x & y) | ~x | ~y == true.
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkOr(aig.mkOr(aig.mkAnd(x, y), ~x), ~y);
    EXPECT_EQ(fraigReduce(aig, f), aig.constTrue());
}

TEST(Fraig, CollapsesConeToProjection)
{
    // (x & y) | (x & ~y) == x.
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkOr(aig.mkAnd(x, y), aig.mkAnd(x, ~y));
    EXPECT_EQ(fraigReduce(aig, f), x);
}

TEST(Fraig, MergesEquivalentSubfunctions)
{
    // Two different structures for XOR feed an AND; after reduction the two
    // subcones must share nodes, making the AND fold to the XOR itself.
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge xor1 = aig.mkOr(aig.mkAnd(x, ~y), aig.mkAnd(~x, y));
    const AigEdge xor2 = ~aig.mkOr(aig.mkAnd(x, y), aig.mkAnd(~x, ~y));
    const AigEdge f = aig.mkAnd(xor1, xor2);
    FraigStats stats;
    const AigEdge g = fraigReduce(aig, f, {}, &stats);
    EXPECT_EQ(truthTable(aig, g, 2), 0b0110u);
    EXPECT_GT(stats.merged, 0u);
    EXPECT_LE(aig.coneSize(g), 3u); // a single XOR structure
}

TEST(Fraig, StatsCountRefutations)
{
    // Craft two functions with identical signatures on few sim words is
    // hard to force; instead verify refuted+merged+timedOut <= candidates.
    Aig aig;
    Rng rng(7);
    std::vector<AigEdge> pool;
    for (Var v = 0; v < 4; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < 30; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkOr(a, b));
    }
    FraigStats stats;
    (void)fraigReduce(aig, pool.back(), {}, &stats);
    EXPECT_LE(stats.merged + stats.refuted + stats.timedOut, stats.candidates + stats.merged);
}

TEST(Fraig, RegistryCountersAreEachSweepsStats)
{
    // Two 12-input conjunctions look constant-false to one 64-pattern
    // simulation word, so SAT refutes those candidates; the two XOR
    // structures merge.
    Aig aig;
    AigEdge rare0 = aig.constTrue();
    AigEdge rare1 = aig.constTrue();
    for (Var v = 0; v < 12; ++v) {
        rare0 = aig.mkAnd(rare0, aig.variable(v));
        rare1 = aig.mkAnd(rare1, aig.variable(12 + v));
    }
    const AigEdge x = aig.variable(24);
    const AigEdge y = aig.variable(25);
    const AigEdge xor1 = aig.mkOr(aig.mkAnd(x, ~y), aig.mkAnd(~x, y));
    const AigEdge xor2 = ~aig.mkOr(aig.mkAnd(x, y), aig.mkAnd(~x, ~y));
    const AigEdge f = aig.mkOr(aig.mkOr(rare0, rare1), aig.mkAnd(xor1, xor2));

    FraigOptions opts;
    opts.simWords = 1;
    FraigStats stats;
    obs::MetricScope scope;
    // Two sweeps into one FraigStats: the registry must get each sweep's
    // deltas, not the running totals.
    (void)fraigReduce(aig, f, opts, &stats);
    (void)fraigReduce(aig, f, opts, &stats);
    auto counter = [&scope](const char* name) {
        return static_cast<std::size_t>(scope.value(obs::metric(name, obs::MetricKind::Counter)));
    };
    EXPECT_GT(stats.merged, 0u);
    EXPECT_GT(stats.refuted, 0u);
    EXPECT_EQ(counter("fraig.runs"), 2u);
    EXPECT_EQ(counter("fraig.candidates"), stats.candidates);
    EXPECT_EQ(counter("fraig.merged"), stats.merged);
    EXPECT_EQ(counter("fraig.refuted"), stats.refuted);
    EXPECT_EQ(counter("fraig.timed_out"), stats.timedOut);
}

// ------------------------------------------------------ reference sweep --

/// The simulation pattern fraig.cpp gives variable @p v in word @p word.
std::uint64_t referencePattern(Var v, unsigned word, std::uint64_t seed)
{
    std::uint64_t z = seed ^ (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(word + 1) * 0xda942042e4dd58b5ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// The sweep without its early stop: every cone node is simulated up front
/// into one table indexed by node, every node is rebuilt through mkAnd and
/// registered, and candidates are proved while the cap allows.  Signature
/// classes are keyed by the signature itself.  No deadline.
AigEdge referenceReduce(Aig& aig, AigEdge root, const FraigOptions& opts, FraigStats& st)
{
    if (aig.isConstant(root) || aig.isInput(root)) return root;
    const std::uint32_t rootIdx = root.nodeIndex();
    std::vector<std::uint8_t> inCone(rootIdx + 1, 0);
    inCone[rootIdx] = 1;
    for (std::uint32_t idx = rootIdx; idx > 0; --idx) {
        const AigEdge e(idx, false);
        if (!inCone[idx] || !aig.isAnd(e)) continue;
        inCone[aig.fanin0(e).nodeIndex()] = 1;
        inCone[aig.fanin1(e).nodeIndex()] = 1;
    }
    const unsigned words = opts.simWords;
    std::vector<std::uint64_t> sig(std::size_t{rootIdx + 1} * words, 0);
    for (std::uint32_t idx = 1; idx <= rootIdx; ++idx) {
        if (!inCone[idx]) continue;
        const AigEdge e(idx, false);
        for (unsigned w = 0; w < words; ++w) {
            std::uint64_t& s = sig[std::size_t{idx} * words + w];
            if (aig.isInput(e)) {
                s = referencePattern(aig.inputVariable(e), w, opts.seed);
                continue;
            }
            const AigEdge f0 = aig.fanin0(e);
            const AigEdge f1 = aig.fanin1(e);
            s = (sig[std::size_t{f0.nodeIndex()} * words + w] ^ (f0.complemented() ? ~0ull : 0)) &
                (sig[std::size_t{f1.nodeIndex()} * words + w] ^ (f1.complemented() ? ~0ull : 0));
        }
    }

    SatSolver sat;
    AigCnfBridge bridge(aig, sat);
    // Normalized signature (LSB of word 0 clear) -> representatives in
    // registration order, each in the normalized phase.
    std::map<std::vector<std::uint64_t>, std::vector<AigEdge>> classes;
    auto classOf = [&](std::uint32_t idx, bool flip) -> std::vector<AigEdge>& {
        std::vector<std::uint64_t> key(words);
        for (unsigned w = 0; w < words; ++w)
            key[w] = sig[std::size_t{idx} * words + w] ^ (flip ? ~0ull : 0);
        return classes[key];
    };
    auto flipOf = [&](std::uint32_t idx) { return (sig[std::size_t{idx} * words] & 1) != 0; };
    classOf(0, false).push_back(aig.constFalse());
    const std::size_t first = st.candidates;
    auto tryMerge = [&](AigEdge e, std::uint32_t idx) {
        const bool flip = flipOf(idx);
        const AigEdge norm = e ^ flip;
        std::vector<AigEdge>& cls = classOf(idx, flip);
        for (const AigEdge rep : cls) {
            if (rep == norm) return e;
            if (opts.maxQueries != 0 && st.candidates - first >= opts.maxQueries) break;
            ++st.candidates;
            const Lit a = bridge.litFor(norm);
            const Lit b = bridge.litFor(rep);
            SolveResult r = sat.solve({a, ~b}, Deadline::unlimited(), 1000);
            if (r == SolveResult::Unsat) r = sat.solve({~a, b}, Deadline::unlimited(), 1000);
            if (!isConclusive(r)) {
                ++st.timedOut;
            } else if (r == SolveResult::Sat) {
                ++st.refuted;
            } else {
                ++st.merged;
                return rep ^ flip;
            }
        }
        cls.push_back(norm);
        return e;
    };

    std::vector<AigEdge> rebuilt(rootIdx + 1);
    rebuilt[0] = aig.constFalse();
    for (std::uint32_t idx = 1; idx <= rootIdx; ++idx) {
        if (!inCone[idx]) continue;
        const AigEdge e(idx, false);
        if (aig.isInput(e)) {
            classOf(idx, flipOf(idx)).push_back(e ^ flipOf(idx));
            rebuilt[idx] = e;
            continue;
        }
        const AigEdge f0 = aig.fanin0(e);
        const AigEdge f1 = aig.fanin1(e);
        const AigEdge merged = aig.mkAnd(rebuilt[f0.nodeIndex()] ^ f0.complemented(),
                                         rebuilt[f1.nodeIndex()] ^ f1.complemented());
        rebuilt[idx] = aig.isConstant(merged) ? merged : tryMerge(merged, idx);
    }
    return rebuilt[rootIdx] ^ root.complemented();
}

/// Random AND/OR/XOR gates over @p vars variables, rebuilt identically
/// from the same seed; the root is the AND of the last 16.
AigEdge randomCone(Aig& aig, std::uint64_t seed, Var vars, int gates)
{
    Rng rng(seed);
    std::vector<AigEdge> pool;
    for (Var v = 0; v < vars; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < gates; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        switch (rng.below(3)) {
            case 0: pool.push_back(aig.mkAnd(a, b)); break;
            case 1: pool.push_back(aig.mkOr(a, b)); break;
            default: pool.push_back(aig.mkXor(a, b)); break;
        }
    }
    return aig.mkAndN(std::vector<AigEdge>(pool.end() - 16, pool.end()));
}

/// An OR of @p terms conjunctions of 12 literals over 40 variables: each
/// conjunction (and most of its partial products) simulates as constant
/// false on one 64-pattern word, so each is a candidate SAT refutes.
AigEdge rareOnsetCone(Aig& aig, std::uint64_t seed, int terms)
{
    Rng rng(seed);
    AigEdge out = aig.constFalse();
    for (int t = 0; t < terms; ++t) {
        AigEdge term = aig.constTrue();
        for (int k = 0; k < 12; ++k)
            term = aig.mkAnd(term, aig.variable(static_cast<Var>(rng.below(40))) ^ rng.flip());
        out = aig.mkOr(out, term);
    }
    return out;
}

/// fraigReduce and referenceReduce, each on its own copy of the cone that
/// @p build makes, must return the same edge and stats for every cap in
/// @p caps plus one that stops the sweep half-way; returns the reference's
/// unlimited candidate count.
template <class Build>
std::size_t expectSweepMatchesReference(Build&& build, const std::string& what)
{
    FraigOptions opts;
    opts.simWords = 1; // spurious candidates too, not only true merges
    std::size_t unlimited = 0;
    std::vector<std::size_t> caps{0, 1, 5};
    for (std::size_t i = 0; i < caps.size(); ++i) {
        opts.maxQueries = caps[i];
        Aig ref;
        Aig aig;
        const AigEdge refRoot = build(ref);
        const AigEdge root = build(aig);
        FraigStats refStats;
        FraigStats stats;
        const AigEdge expected = referenceReduce(ref, refRoot, opts, refStats);
        const AigEdge got = fraigReduce(aig, root, opts, &stats);
        const std::string at = what + ", cap " + std::to_string(opts.maxQueries);
        EXPECT_EQ(got, expected) << at;
        EXPECT_EQ(stats.candidates, refStats.candidates) << at;
        EXPECT_EQ(stats.merged, refStats.merged) << at;
        EXPECT_EQ(stats.refuted, refStats.refuted) << at;
        EXPECT_EQ(stats.timedOut, refStats.timedOut) << at;
        EXPECT_EQ(aig.numNodes(), ref.numNodes()) << at;
        if (caps[i] == 0) {
            unlimited = refStats.candidates;
            if (unlimited > 3) caps.push_back(unlimited / 2);
        }
    }
    return unlimited;
}

TEST(Fraig, CappedSweepMatchesTheFullReferenceOnRandomCones)
{
    std::size_t cut = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const std::size_t unlimited = expectSweepMatchesReference(
            [seed](Aig& aig) { return randomCone(aig, seed * 977, 10, 250); },
            "seed " + std::to_string(seed));
        if (unlimited > 5) ++cut;
    }
    // Most cones issue more than 5 queries, so the small caps cut them.
    EXPECT_GE(cut, 20u);
}

TEST(Fraig, CappedSweepMatchesTheFullReferenceOnRareOnsetCones)
{
    const std::size_t unlimited =
        expectSweepMatchesReference([](Aig& aig) { return rareOnsetCone(aig, 3, 10); }, "rare");
    EXPECT_GT(unlimited, 100u);
}

TEST(Fraig, QueryCapIsPerSweepWhenStatsAccumulate)
{
    // Two sweeps into one FraigStats, each with a cap the cone outlasts:
    // the second must get its own 5 queries, not the first one's remainder.
    Aig aig;
    const AigEdge f = rareOnsetCone(aig, 3, 10);
    FraigOptions opts;
    opts.simWords = 1;
    opts.maxQueries = 5;
    FraigStats stats;
    (void)fraigReduce(aig, f, opts, &stats);
    EXPECT_EQ(stats.candidates, 5u);
    (void)fraigReduce(aig, f, opts, &stats);
    EXPECT_EQ(stats.candidates, 10u);
}

TEST(Fraig, CapReachedCounterAndNodesProvedArgument)
{
    Aig aig;
    const AigEdge f = rareOnsetCone(aig, 3, 10);
    const std::size_t coneNodes = aig.coneSize(f) + aig.support(f).size();
    FraigOptions opts;
    opts.simWords = 1;
    obs::MetricScope scope;
    obs::clearTrace();
    obs::enableTracing(true);
    opts.maxQueries = 5;
    (void)fraigReduce(aig, f, opts, nullptr);
    opts.maxQueries = 0;
    (void)fraigReduce(aig, f, opts, nullptr);
    obs::enableTracing(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    obs::clearTrace();

    EXPECT_EQ(scope.value(obs::metric("fraig.runs", obs::MetricKind::Counter)), 2);
    EXPECT_EQ(scope.value(obs::metric("fraig.cap_reached", obs::MetricKind::Counter)), 1);
    const std::string json = os.str();
    std::vector<std::size_t> proved;
    const std::string key = "\"nodes_proved\":";
    for (std::size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1))
        proved.push_back(std::stoul(json.substr(at + key.size())));
    ASSERT_EQ(proved.size(), 2u);
    std::sort(proved.begin(), proved.end());
    EXPECT_GT(proved[0], 0u);
    EXPECT_LT(proved[0], coneNodes / 2); // the capped sweep stopped early
    EXPECT_EQ(proved[1], coneNodes);     // the unlimited one simulated all
}

class FraigSemanticsPreserved : public ::testing::TestWithParam<int> {};

TEST_P(FraigSemanticsPreserved, ReductionKeepsFunctionAndNeverGrows)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 3);
    Aig aig;
    const Var n = 5;
    std::vector<AigEdge> pool;
    for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < 25; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        switch (rng.below(3)) {
            case 0: pool.push_back(aig.mkAnd(a, b)); break;
            case 1: pool.push_back(aig.mkOr(a, b)); break;
            default: pool.push_back(aig.mkXor(a, b)); break;
        }
    }
    const AigEdge f = pool.back() ^ rng.flip();
    const std::uint64_t before = truthTable(aig, f, n);
    const std::size_t sizeBefore = aig.coneSize(f);
    const AigEdge g = fraigReduce(aig, f);
    EXPECT_EQ(truthTable(aig, g, n), before);
    EXPECT_LE(aig.coneSize(g), sizeBefore);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FraigSemanticsPreserved, ::testing::Range(0, 40));

} // namespace
} // namespace hqs
