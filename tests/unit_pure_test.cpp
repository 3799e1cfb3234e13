// Tests for the Theorem-6 syntactic unit/pure detection on AIGs.
//
// The check is sound but incomplete (paper, Example 4): every variable it
// reports must satisfy the semantic Definition 5, but monotone variables can
// be missed when some path parity disagrees.  The property sweep verifies
// soundness against truth tables; dedicated cases pin down the expected
// positives and a known incompleteness witness.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/aig/aig.hpp"
#include "src/base/rng.hpp"

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

bool contains(const std::vector<Var>& vs, Var v)
{
    return std::find(vs.begin(), vs.end(), v) != vs.end();
}

TEST(UnitPure, TopLevelConjunctIsPositiveUnit)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(x, aig.mkOr(y, aig.variable(2)));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posUnit, 0));
    EXPECT_FALSE(contains(info.posUnit, 1));
    EXPECT_FALSE(contains(info.posUnit, 2));
}

TEST(UnitPure, NegatedConjunctIsNegativeUnit)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(~x, y);
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.negUnit, 0));
    EXPECT_TRUE(contains(info.posUnit, 1));
}

TEST(UnitPure, RootVariableEdgeCases)
{
    Aig aig;
    const AigEdge y = aig.variable(3);
    const UnitPureInfo posInfo = aig.detectUnitPure(y);
    EXPECT_TRUE(contains(posInfo.posUnit, 3));
    EXPECT_TRUE(contains(posInfo.posPure, 3));
    const UnitPureInfo negInfo = aig.detectUnitPure(~y);
    EXPECT_TRUE(contains(negInfo.negUnit, 3));
    EXPECT_TRUE(contains(negInfo.negPure, 3));
}

TEST(UnitPure, ConstantRootReportsNothing)
{
    Aig aig;
    const UnitPureInfo info = aig.detectUnitPure(aig.constTrue());
    EXPECT_TRUE(info.posUnit.empty());
    EXPECT_TRUE(info.negUnit.empty());
    EXPECT_TRUE(info.posPure.empty());
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, MonotonePathsGivePurity)
{
    // CNF-style encoding of (y | x1) & (y | x2): every path from y passes an
    // even number of inverters, so y is positive pure; x1, x2 likewise.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x1 = aig.variable(1);
    const AigEdge x2 = aig.variable(2);
    const AigEdge f = aig.mkAnd(aig.mkOr(y, x1), aig.mkOr(y, x2));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
    EXPECT_TRUE(contains(info.posPure, 2));
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, AntitonePathsGiveNegativePurity)
{
    // (~y | x): y occurs only negatively.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x = aig.variable(1);
    const AigEdge f = aig.mkOr(~y, x);
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.negPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
}

TEST(UnitPure, XorVariableIsNeitherUnitNorPure)
{
    Aig aig;
    const AigEdge f = aig.mkXor(aig.variable(0), aig.variable(1));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(info.posUnit.empty());
    EXPECT_TRUE(info.negUnit.empty());
    EXPECT_TRUE(info.posPure.empty());
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, PaperExample4MixedClauseSet)
{
    // The clause set of the paper's Fig. 1 / Example 4:
    // (y1 | x1) & (y1 | x2) & (y2 | ~x1) & (y2 | ~x2).
    // y1, y2 are positive pure; x1 and x2 are mixed-polarity, hence neither.
    Aig aig;
    const AigEdge y1 = aig.variable(0);
    const AigEdge y2 = aig.variable(1);
    const AigEdge x1 = aig.variable(2);
    const AigEdge x2 = aig.variable(3);
    const AigEdge f = aig.mkAnd(aig.mkAnd(aig.mkOr(y1, x1), aig.mkOr(y1, x2)),
                                aig.mkAnd(aig.mkOr(y2, ~x1), aig.mkOr(y2, ~x2)));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
    EXPECT_FALSE(contains(info.posPure, 2));
    EXPECT_FALSE(contains(info.negPure, 2));
    EXPECT_FALSE(contains(info.posPure, 3));
    EXPECT_FALSE(contains(info.negPure, 3));
}

TEST(UnitPure, SyntacticCheckIsIncompleteLikeExample4)
{
    // The paper's shape y & (~y | x) no longer reaches the check: mkAnd's
    // two-level substitution rule folds it to y & x.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x = aig.variable(1);
    const AigEdge z = aig.variable(2);
    EXPECT_EQ(aig.mkAnd(y, aig.mkOr(~y, x)), aig.mkAnd(y, x));
    // f = y & (z | (~y & x)) == y & z hides ~y one level deeper than the
    // rules look.  Semantically y is positive pure (and unit); the parity
    // check sees an odd path through ~y and misses the purity, while the
    // clean direct path still yields positive unit.  This mirrors the
    // incompleteness the paper demonstrates in Example 4.
    const AigEdge f = aig.mkAnd(y, aig.mkOr(z, aig.mkAnd(~y, x)));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posUnit, 0));
    EXPECT_FALSE(contains(info.posPure, 0)); // missed although semantically pure
    // Semantic confirmation that y *is* positive pure: f[0/y] & ~f[1/y] == 0.
    const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, 0, false), 3);
    const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, 0, true), 3);
    EXPECT_EQ(c0 & ~c1 & 0xff, 0u);
}

TEST(UnitPure, VariablesOutsideConeNotReported)
{
    Aig aig;
    (void)aig.variable(9); // exists in the manager but not in the cone
    const AigEdge f = aig.mkAnd(aig.variable(0), aig.variable(1));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_FALSE(contains(info.posUnit, 9));
    EXPECT_FALSE(contains(info.posPure, 9));
}

/// Soundness sweep: every syntactically detected unit/pure variable
/// satisfies the semantic Definition 5.
class UnitPureSoundness : public ::testing::TestWithParam<int> {};

TEST_P(UnitPureSoundness, DetectionIsSemanticallySound)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    Aig aig;
    const Var n = 5;
    std::vector<AigEdge> pool;
    for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < 14; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkOr(a, b));
    }
    const AigEdge f = pool.back() ^ rng.flip();
    if (aig.isConstant(f)) return;

    const UnitPureInfo info = aig.detectUnitPure(f);
    const std::uint64_t mask = (1ull << (1u << n)) - 1; // all 32 assignments

    for (Var v : info.posUnit) {
        EXPECT_EQ(truthTable(aig, aig.cofactor(f, v, false), n) & mask, 0u)
            << "posUnit v" << v << " must make f[0/v] unsat";
    }
    for (Var v : info.negUnit) {
        EXPECT_EQ(truthTable(aig, aig.cofactor(f, v, true), n) & mask, 0u)
            << "negUnit v" << v << " must make f[1/v] unsat";
    }
    for (Var v : info.posPure) {
        const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, v, false), n);
        const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, v, true), n);
        EXPECT_EQ(c0 & ~c1 & mask, 0u) << "posPure v" << v << " must be monotone";
    }
    for (Var v : info.negPure) {
        const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, v, false), n);
        const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, v, true), n);
        EXPECT_EQ(c1 & ~c0 & mask, 0u) << "negPure v" << v << " must be antitone";
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitPureSoundness, ::testing::Range(0, 80));

} // namespace
} // namespace hqs
