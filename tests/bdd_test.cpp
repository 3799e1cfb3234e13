// Tests for the ROBDD package: canonicity, Boolean operations,
// quantification, satCount, and agreement with the AIG representation and
// the QBF oracle.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/bdd/bdd.hpp"
#include "src/qbf/bdd_qbf_solver.hpp"
#include "src/qbf/qbf_oracle.hpp"

namespace hqs {
namespace {

std::uint64_t truthTable(const Bdd& bdd, BddRef f, Var n)
{
    std::uint64_t tt = 0;
    std::vector<bool> a(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
        if (bdd.evaluate(f, a)) tt |= 1ull << bits;
    }
    return tt;
}

TEST(Bdd, Terminals)
{
    Bdd bdd;
    EXPECT_TRUE(bdd.isConstant(bdd.constTrue()));
    EXPECT_TRUE(bdd.isConstant(bdd.constFalse()));
    EXPECT_TRUE(bdd.constantValue(bdd.constTrue()));
    EXPECT_FALSE(bdd.constantValue(bdd.constFalse()));
    EXPECT_NE(bdd.constTrue(), bdd.constFalse());
}

TEST(Bdd, CanonicityOfEquivalentFormulas)
{
    Bdd bdd;
    const BddRef x = bdd.variable(0);
    const BddRef y = bdd.variable(1);
    // De Morgan: ~(x & y) == ~x | ~y — canonical form must be identical.
    EXPECT_EQ(bdd.mkNot(bdd.mkAnd(x, y)), bdd.mkOr(bdd.mkNot(x), bdd.mkNot(y)));
    // Double negation.
    EXPECT_EQ(bdd.mkNot(bdd.mkNot(x)), x);
    // x XOR x == false.
    EXPECT_EQ(bdd.mkXor(x, x), bdd.constFalse());
    // Distribution: x&(y|x) == x.
    EXPECT_EQ(bdd.mkAnd(x, bdd.mkOr(y, x)), x);
}

TEST(Bdd, OperationSemantics)
{
    Bdd bdd;
    const BddRef x = bdd.variable(0);
    const BddRef y = bdd.variable(1);
    EXPECT_EQ(truthTable(bdd, bdd.mkAnd(x, y), 2), 0b1000u);
    EXPECT_EQ(truthTable(bdd, bdd.mkOr(x, y), 2), 0b1110u);
    EXPECT_EQ(truthTable(bdd, bdd.mkXor(x, y), 2), 0b0110u);
    EXPECT_EQ(truthTable(bdd, bdd.mkEquiv(x, y), 2), 0b1001u);
    EXPECT_EQ(truthTable(bdd, bdd.mkImplies(x, y), 2), 0b1101u);
    const BddRef z = bdd.variable(2);
    const std::uint64_t tt = truthTable(bdd, bdd.mkIte(x, y, z), 3);
    for (unsigned bits = 0; bits < 8; ++bits) {
        const bool xv = bits & 1, yv = bits & 2, zv = bits & 4;
        EXPECT_EQ((tt >> bits) & 1u, static_cast<std::uint64_t>(xv ? yv : zv));
    }
}

TEST(Bdd, CofactorAndQuantification)
{
    Bdd bdd;
    const BddRef x = bdd.variable(0);
    const BddRef y = bdd.variable(1);
    const BddRef f = bdd.mkEquiv(x, y);
    EXPECT_EQ(bdd.cofactor(f, 0, true), y);
    EXPECT_EQ(bdd.cofactor(f, 0, false), bdd.mkNot(y));
    EXPECT_EQ(bdd.existsVar(f, 0), bdd.constTrue());
    EXPECT_EQ(bdd.forallVar(f, 0), bdd.constFalse());
    // Quantifying an absent variable is the identity.
    EXPECT_EQ(bdd.existsVar(f, 7), f);
}

TEST(Bdd, FromCnfMatchesEvaluation)
{
    Cnf cnf;
    cnf.addClause({Lit::pos(0), Lit::neg(1)});
    cnf.addClause({Lit::pos(1), Lit::pos(2)});
    Bdd bdd;
    const BddRef f = bdd.fromCnf(cnf);
    std::vector<bool> a(3);
    for (unsigned bits = 0; bits < 8; ++bits) {
        for (Var v = 0; v < 3; ++v) a[v] = (bits >> v) & 1u;
        EXPECT_EQ(bdd.evaluate(f, a), cnf.evaluate(a));
    }
}

TEST(Bdd, SupportAndConeSize)
{
    Bdd bdd;
    const BddRef f = bdd.mkAnd(bdd.variable(3), bdd.mkOr(bdd.variable(1), bdd.variable(5)));
    EXPECT_EQ(bdd.support(f), (std::vector<Var>{1, 3, 5}));
    EXPECT_GE(bdd.coneSize(f), 3u);
    EXPECT_EQ(bdd.coneSize(bdd.constTrue()), 0u);
}

TEST(Bdd, SatCount)
{
    Bdd bdd;
    const BddRef x = bdd.variable(0);
    const BddRef y = bdd.variable(1);
    EXPECT_DOUBLE_EQ(bdd.satCount(bdd.mkAnd(x, y), 2), 1.0);
    EXPECT_DOUBLE_EQ(bdd.satCount(bdd.mkOr(x, y), 2), 3.0);
    EXPECT_DOUBLE_EQ(bdd.satCount(bdd.mkXor(x, y), 2), 2.0);
    EXPECT_DOUBLE_EQ(bdd.satCount(bdd.constTrue(), 3), 8.0);
    EXPECT_DOUBLE_EQ(bdd.satCount(bdd.constFalse(), 3), 0.0);
    // Extra variables double the count.
    EXPECT_DOUBLE_EQ(bdd.satCount(x, 4), 8.0);
}

/// Property sweep: random expressions agree between BDD and AIG managers.
class BddAigAgreement : public ::testing::TestWithParam<int> {};

TEST_P(BddAigAgreement, SameTruthTables)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 3);
    Bdd bdd;
    Aig aig;
    const Var n = 6;
    std::vector<BddRef> bpool;
    std::vector<AigEdge> apool;
    for (Var v = 0; v < n; ++v) {
        bpool.push_back(bdd.variable(v));
        apool.push_back(aig.variable(v));
    }
    for (int i = 0; i < 20; ++i) {
        const std::size_t ia = rng.below(bpool.size());
        const std::size_t ib = rng.below(bpool.size());
        const bool na = rng.flip(), nb = rng.flip();
        const BddRef ba = na ? bdd.mkNot(bpool[ia]) : bpool[ia];
        const BddRef bb = nb ? bdd.mkNot(bpool[ib]) : bpool[ib];
        const AigEdge aa = apool[ia] ^ na;
        const AigEdge ab = apool[ib] ^ nb;
        switch (rng.below(3)) {
            case 0:
                bpool.push_back(bdd.mkAnd(ba, bb));
                apool.push_back(aig.mkAnd(aa, ab));
                break;
            case 1:
                bpool.push_back(bdd.mkOr(ba, bb));
                apool.push_back(aig.mkOr(aa, ab));
                break;
            default:
                bpool.push_back(bdd.mkXor(ba, bb));
                apool.push_back(aig.mkXor(aa, ab));
                break;
        }
    }
    std::vector<bool> a(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
        ASSERT_EQ(bdd.evaluate(bpool.back(), a), aig.evaluate(apool.back(), a))
            << "assignment " << bits;
    }

    // Cofactor agreement on a random variable.
    const Var cv = static_cast<Var>(rng.below(n));
    const BddRef bc = bdd.cofactor(bpool.back(), cv, true);
    const AigEdge ac = aig.cofactor(apool.back(), cv, true);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
        ASSERT_EQ(bdd.evaluate(bc, a), aig.evaluate(ac, a));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BddAigAgreement, ::testing::Range(0, 40));

TEST(BddFromAig, ConvertsConesFaithfully)
{
    Rng rng(55);
    for (int trial = 0; trial < 10; ++trial) {
        Aig aig;
        Bdd bdd;
        const Var n = 5;
        std::vector<AigEdge> pool;
        for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
        for (int i = 0; i < 15; ++i) {
            const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
            const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
            pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkOr(a, b));
        }
        const AigEdge f = pool.back() ^ rng.flip();
        const BddRef g = bddFromAig(bdd, aig, f);
        std::vector<bool> a(n);
        for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
            for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
            ASSERT_EQ(bdd.evaluate(g, a), aig.evaluate(f, a)) << trial << ":" << bits;
        }
    }
}

TEST(BddFromAig, ConstantsAndInputs)
{
    Aig aig;
    Bdd bdd;
    EXPECT_EQ(bddFromAig(bdd, aig, aig.constTrue()), bdd.constTrue());
    EXPECT_EQ(bddFromAig(bdd, aig, aig.constFalse()), bdd.constFalse());
    EXPECT_EQ(bddFromAig(bdd, aig, aig.variable(3)), bdd.variable(3));
    EXPECT_EQ(bddFromAig(bdd, aig, ~aig.variable(3)), bdd.mkNot(bdd.variable(3)));
}

// ----- BDD QBF solver --------------------------------------------------------

class BddQbfAgreement : public ::testing::TestWithParam<int> {};

TEST_P(BddQbfAgreement, MatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 419 + 23);
    const Var n = 5 + static_cast<Var>(rng.below(4));
    QbfProblem q;
    q.matrix.ensureVars(n);
    const int m = static_cast<int>(n) * 2 + static_cast<int>(rng.below(2 * n));
    for (int c = 0; c < m; ++c) {
        Clause cl;
        for (int j = 0; j < 2 + static_cast<int>(rng.below(2)); ++j) {
            cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        }
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v) {
        q.prefix.addVar(rng.flip() ? QuantKind::Forall : QuantKind::Exists, v);
    }
    BddQbfSolver solver;
    const SolveResult r = solver.solve(q.matrix, q.prefix);
    ASSERT_TRUE(isConclusive(r));
    EXPECT_EQ(r == SolveResult::Sat, bruteForceQbf(q));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BddQbfAgreement, ::testing::Range(0, 50));

TEST(BddQbfSolver, ResourceLimits)
{
    Rng rng(3);
    QbfProblem q;
    const Var n = 24;
    q.matrix.ensureVars(n);
    for (int c = 0; c < 110; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v)
        q.prefix.addVar(v % 2 ? QuantKind::Exists : QuantKind::Forall, v);

    BddQbfOptions opts;
    opts.deadline = Deadline::in(1e-9);
    BddQbfSolver timed(opts);
    const SolveResult r = timed.solve(q.matrix, q.prefix);
    EXPECT_TRUE(r == SolveResult::Timeout || isConclusive(r));

    BddQbfOptions memOpts;
    memOpts.nodeLimit = 4;
    BddQbfSolver mem(memOpts);
    const SolveResult r2 = mem.solve(q.matrix, q.prefix);
    EXPECT_TRUE(r2 == SolveResult::Memout || isConclusive(r2));
}

/// AND_i (x_i | y_i) with every x ordered before every y: 2^n BDD nodes.
Cnf blowupCnf(Var n)
{
    Cnf cnf;
    cnf.ensureVars(2 * n);
    for (Var i = 0; i < n; ++i) cnf.addClause({Lit::pos(i), Lit::pos(n + i)});
    return cnf;
}

TEST(Bdd, TeardownOfALargeManagerIsCheap)
{
    // The tables are flat arrays, so freeing a manager costs a few frees,
    // not one per node or computed-table entry.
    const std::size_t nodeLimit = 500000;
    std::optional<Bdd> bdd(std::in_place);
    bdd->setResourceLimits(nodeLimit, Deadline::in(60));
    EXPECT_THROW(bdd->fromCnf(blowupCnf(40)), BddLimitExceeded);
    EXPECT_GT(bdd->numNodes(), nodeLimit);
    const Timer timer;
    bdd.reset();
    const double ms = timer.elapsedMilliseconds();
    std::printf("[ teardown ] %.2f ms for %zu nodes\n", ms, nodeLimit);
    EXPECT_LT(ms, 50.0); // generous: ~1 ms flat, ~140 ms with per-entry frees
}

TEST(BddQbfSolver, TimeoutReturnsPromptlyIncludingTeardown)
{
    // Building the matrix runs into the deadline with a pool of a few
    // hundred thousand nodes or more, which solve() frees before it returns.
    const Var n = 40;
    QbfProblem q;
    q.matrix = blowupCnf(n);
    std::vector<Var> xs, ys;
    for (Var i = 0; i < n; ++i) {
        xs.push_back(i);
        ys.push_back(n + i);
    }
    q.prefix.addBlock(QuantKind::Forall, xs);
    q.prefix.addBlock(QuantKind::Exists, ys);

    const double budgetSeconds = 0.3;
    BddQbfOptions opts;
    opts.deadline = Deadline::in(budgetSeconds);
    const Timer timer;
    const SolveResult r = BddQbfSolver(opts).solve(q.matrix, q.prefix);
    const double ms = timer.elapsedMilliseconds();
    EXPECT_EQ(r, SolveResult::Timeout);
    std::printf("[ overrun  ] %.1f ms over a %.0f ms budget\n", ms - budgetSeconds * 1e3,
                budgetSeconds * 1e3);
    // Generous, so that a loaded host does not flake it: a few ms with flat
    // tables, ~130 ms when every table entry was its own heap node.
    EXPECT_LT(ms, budgetSeconds * 1e3 + 250.0);
}

} // namespace
} // namespace hqs
