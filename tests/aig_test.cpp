// Tests for the AIG manager: construction, hashing, Boolean operations,
// substitution/cofactors/quantification, support, evaluation, simulation,
// CNF bridge, and garbage collection.
#include <gtest/gtest.h>

#include "src/aig/aig.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"

namespace hqs {
namespace {

/// Truth table of @p root over variables 0..n-1 (bit i of result = value on
/// the assignment whose bit pattern is i).
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

TEST(Aig, Constants)
{
    Aig aig;
    EXPECT_TRUE(aig.isConstant(aig.constTrue()));
    EXPECT_TRUE(aig.isConstant(aig.constFalse()));
    EXPECT_TRUE(aig.constantValue(aig.constTrue()));
    EXPECT_FALSE(aig.constantValue(aig.constFalse()));
    EXPECT_EQ(~aig.constTrue(), aig.constFalse());
}

TEST(Aig, VariablesAreMemoized)
{
    Aig aig;
    const AigEdge x = aig.variable(3);
    EXPECT_EQ(aig.variable(3), x);
    EXPECT_TRUE(aig.isInput(x));
    EXPECT_EQ(aig.inputVariable(x), 3u);
    EXPECT_TRUE(aig.hasVariable(3));
    EXPECT_FALSE(aig.hasVariable(4));
}

TEST(Aig, AndConstantFolding)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    EXPECT_EQ(aig.mkAnd(x, aig.constTrue()), x);
    EXPECT_EQ(aig.mkAnd(aig.constTrue(), x), x);
    EXPECT_EQ(aig.mkAnd(x, aig.constFalse()), aig.constFalse());
    EXPECT_EQ(aig.mkAnd(x, x), x);
    EXPECT_EQ(aig.mkAnd(x, ~x), aig.constFalse());
}

TEST(Aig, StructuralHashingSharesNodes)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge a1 = aig.mkAnd(x, y);
    const AigEdge a2 = aig.mkAnd(y, x); // commuted
    EXPECT_EQ(a1, a2);
    const std::size_t nodes = aig.numNodes();
    (void)aig.mkAnd(x, y);
    EXPECT_EQ(aig.numNodes(), nodes);
}

TEST(Aig, BooleanOperatorSemantics)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge z = aig.variable(2);
    // Truth tables over (x,y) — bit index = x + 2y; over (x,y,z) for ite.
    EXPECT_EQ(truthTable(aig, aig.mkAnd(x, y), 2), 0b1000u);
    EXPECT_EQ(truthTable(aig, aig.mkOr(x, y), 2), 0b1110u);
    EXPECT_EQ(truthTable(aig, aig.mkXor(x, y), 2), 0b0110u);
    EXPECT_EQ(truthTable(aig, aig.mkEquiv(x, y), 2), 0b1001u);
    EXPECT_EQ(truthTable(aig, aig.mkImplies(x, y), 2), 0b1101u);
    // ite(x, y, z): x ? y : z.
    const std::uint64_t tt = truthTable(aig, aig.mkIte(x, y, z), 3);
    for (unsigned bits = 0; bits < 8; ++bits) {
        const bool xv = bits & 1, yv = bits & 2, zv = bits & 4;
        EXPECT_EQ((tt >> bits) & 1u, static_cast<std::uint64_t>(xv ? yv : zv));
    }
}

TEST(Aig, MkAndNAndOrN)
{
    Aig aig;
    std::vector<AigEdge> xs;
    for (Var v = 0; v < 4; ++v) xs.push_back(aig.variable(v));
    EXPECT_EQ(truthTable(aig, aig.mkAndN(xs), 4), 1ull << 15);
    EXPECT_EQ(truthTable(aig, aig.mkOrN(xs), 4), 0xfffeull);
    EXPECT_EQ(aig.mkAndN({}), aig.constTrue());
    EXPECT_EQ(aig.mkOrN({}), aig.constFalse());
}

TEST(Aig, CofactorSemantics)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkOr(aig.mkAnd(x, y), aig.mkAnd(~x, ~y)); // x==y
    // Bit index of the truth table is x + 2y.
    EXPECT_EQ(truthTable(aig, aig.cofactor(f, 0, true), 2), 0b1100u);  // y
    EXPECT_EQ(truthTable(aig, aig.cofactor(f, 0, false), 2), 0b0011u); // ~y
    // Cofactor on an unused variable is the identity.
    EXPECT_EQ(aig.cofactor(f, 5, true), f);
}

TEST(Aig, ComposeSemantics)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge z = aig.variable(2);
    const AigEdge f = aig.mkXor(x, y);
    // f[y := x&z]  ==  x ^ (x&z)
    const AigEdge g = aig.compose(f, 1, aig.mkAnd(x, z));
    const AigEdge expect = aig.mkXor(x, aig.mkAnd(x, z));
    EXPECT_EQ(truthTable(aig, g, 3), truthTable(aig, expect, 3));
}

TEST(Aig, ParallelSubstituteIsSimultaneous)
{
    // Swap x and y in x&~y: must give y&~x (sequential substitution would
    // collapse).
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(x, ~y);
    Substitution swap;
    swap.set(0, y);
    swap.set(1, x);
    const AigEdge g = aig.substitute(f, swap);
    EXPECT_EQ(truthTable(aig, g, 2), truthTable(aig, aig.mkAnd(y, ~x), 2));
}

TEST(Aig, ScratchSubstitutionResetsBetweenUses)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    Substitution& first = aig.scratchSubstitution();
    first.set(0, y);
    EXPECT_EQ(first.size(), 1u);
    // A second acquisition clears the previous mappings in O(1).
    Substitution& second = aig.scratchSubstitution();
    EXPECT_TRUE(second.empty());
    EXPECT_FALSE(second.maps(0));
    second.set(1, x);
    EXPECT_TRUE(second.maps(1));
    EXPECT_EQ(second.image(1), x);
}

/// ∃v.f (or ∀v.f) through the elimination rebuild: one cofactor pair over
/// the cone list of a fresh Theorem-6 scan.
AigEdge quantify(Aig& aig, AigEdge f, Var v, bool exists)
{
    const auto [lo, hi] =
        aig.cofactorPair(f, v, aig.detectUnitPure(f).cone, Deadline::unlimited());
    return exists ? aig.mkOr(lo, hi) : aig.mkAnd(lo, hi);
}

TEST(Aig, QuantificationSemantics)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(x, y);
    // exists x. x&y == y ; forall x. x&y == false
    EXPECT_EQ(truthTable(aig, quantify(aig, f, 0, true), 2), truthTable(aig, y, 2));
    EXPECT_EQ(quantify(aig, f, 0, false), aig.constFalse());
    // forall x. x|y == y
    const AigEdge g = aig.mkOr(x, y);
    EXPECT_EQ(truthTable(aig, quantify(aig, g, 0, false), 2), truthTable(aig, y, 2));
}

TEST(Aig, SupportListsStructuralVariables)
{
    Aig aig;
    const AigEdge x = aig.variable(2);
    const AigEdge y = aig.variable(7);
    const AigEdge f = aig.mkOr(x, aig.mkAnd(y, aig.variable(4)));
    EXPECT_EQ(aig.support(f), (std::vector<Var>{2, 4, 7}));
    EXPECT_TRUE(aig.support(aig.constTrue()).empty());
}

TEST(Aig, ConeSizeCountsAndNodes)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    EXPECT_EQ(aig.coneSize(x), 0u);
    EXPECT_EQ(aig.coneSize(aig.mkAnd(x, y)), 1u);
    const AigEdge f = aig.mkXor(x, y); // 3 AND nodes
    EXPECT_EQ(aig.coneSize(f), 3u);
}

TEST(Aig, GarbageCollectKeepsRoots)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    AigEdge keep = aig.mkAnd(x, y);
    const std::uint64_t ttBefore = truthTable(aig, keep, 2);
    // Create garbage.
    for (Var v = 2; v < 30; ++v) (void)aig.mkAnd(aig.variable(v), x);
    const std::size_t before = aig.numNodes();
    aig.garbageCollect({&keep});
    EXPECT_LT(aig.numNodes(), before);
    EXPECT_EQ(truthTable(aig, keep, 2), ttBefore);
    // Manager still consistent: the preserved structure hashes correctly.
    const AigEdge again = aig.mkAnd(aig.variable(0), aig.variable(1));
    EXPECT_EQ(again, keep);
}

TEST(Aig, GarbageCollectComplementedRoot)
{
    Aig aig;
    AigEdge root = ~aig.mkOr(aig.variable(0), aig.variable(1));
    const std::uint64_t tt = truthTable(aig, root, 2);
    aig.garbageCollect({&root});
    EXPECT_EQ(truthTable(aig, root, 2), tt);
}

TEST(CnfBridge, BuildFromCnfMatchesEvaluation)
{
    Cnf f;
    f.addClause({Lit::pos(0), Lit::neg(1)});
    f.addClause({Lit::pos(1), Lit::pos(2)});
    Aig aig;
    const AigEdge root = buildFromCnf(aig, f);
    std::vector<bool> a(3);
    for (unsigned bits = 0; bits < 8; ++bits) {
        for (Var v = 0; v < 3; ++v) a[v] = (bits >> v) & 1u;
        EXPECT_EQ(aig.evaluate(root, a), f.evaluate(a)) << "assignment " << bits;
    }
}

TEST(CnfBridge, EmptyCnfIsTrue)
{
    Cnf f;
    Aig aig;
    EXPECT_EQ(buildFromCnf(aig, f), aig.constTrue());
}

TEST(CnfBridge, EmptyClauseIsFalse)
{
    Cnf f;
    f.addClause(Clause{});
    Aig aig;
    EXPECT_EQ(buildFromCnf(aig, f), aig.constFalse());
}

TEST(CnfBridge, TseitinEncodingIsEquisatisfiable)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkXor(x, y);

    SatSolver sat;
    AigCnfBridge bridge(aig, sat);
    const Lit out = bridge.litFor(f);

    // f is satisfiable and falsifiable.
    EXPECT_EQ(sat.solve({out}), SolveResult::Sat);
    EXPECT_NE(sat.modelValue(bridge.satVarForInput(0)),
              sat.modelValue(bridge.satVarForInput(1)));
    EXPECT_EQ(sat.solve({~out}), SolveResult::Sat);
    EXPECT_EQ(sat.modelValue(bridge.satVarForInput(0)),
              sat.modelValue(bridge.satVarForInput(1)));
}

TEST(CnfBridge, ConstantNodesEncodeCorrectly)
{
    Aig aig;
    SatSolver sat;
    AigCnfBridge bridge(aig, sat);
    EXPECT_EQ(sat.solve({bridge.litFor(aig.constTrue())}), SolveResult::Sat);
    EXPECT_EQ(sat.solve({bridge.litFor(aig.constFalse())}), SolveResult::Unsat);
}

/// Random-expression property test: build a random AIG expression and check
/// cofactor/quantification identities semantically.
class RandomAigIdentities : public ::testing::TestWithParam<int> {};

TEST_P(RandomAigIdentities, ShannonExpansionHolds)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
    Aig aig;
    const Var n = 5;
    std::vector<AigEdge> pool;
    for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < 12; ++i) {
        AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        switch (rng.below(3)) {
            case 0: pool.push_back(aig.mkAnd(a, b)); break;
            case 1: pool.push_back(aig.mkOr(a, b)); break;
            default: pool.push_back(aig.mkXor(a, b)); break;
        }
    }
    const AigEdge f = pool.back();
    const Var v = static_cast<Var>(rng.below(n));
    const AigEdge x = aig.variable(v);

    // Shannon: f == (x & f|x=1) | (~x & f|x=0)
    const AigEdge expanded =
        aig.mkOr(aig.mkAnd(x, aig.cofactor(f, v, true)), aig.mkAnd(~x, aig.cofactor(f, v, false)));
    EXPECT_EQ(truthTable(aig, f, n), truthTable(aig, expanded, n));

    // Quantification bounds: forall <= f <= exists (as sets of models).
    const std::uint64_t ttF = truthTable(aig, f, n);
    const std::uint64_t ttE = truthTable(aig, quantify(aig, f, v, true), n);
    const std::uint64_t ttA = truthTable(aig, quantify(aig, f, v, false), n);
    EXPECT_EQ(ttA & ttF, ttA); // forall implies f
    EXPECT_EQ(ttF & ttE, ttF); // f implies exists
    // Quantified results are independent of v.
    std::vector<bool> a(n, false);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        if ((bits >> v) & 1u) continue;
        const std::uint64_t flipped = bits | (1ull << v);
        EXPECT_EQ((ttE >> bits) & 1u, (ttE >> flipped) & 1u);
        EXPECT_EQ((ttA >> bits) & 1u, (ttA >> flipped) & 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAigIdentities, ::testing::Range(0, 40));

} // namespace
} // namespace hqs
