// Tests for FRAIG-style SAT sweeping: the reduction must preserve semantics
// and merge functionally equivalent nodes.
#include <gtest/gtest.h>

#include "src/aig/fraig.hpp"
#include "src/base/rng.hpp"
#include "src/obs/obs.hpp"

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
