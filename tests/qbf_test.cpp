// Tests for the QBF layer: prefix bookkeeping, the elimination-based AIG
// solver, and its agreement with the BDD elimination solver and the
// brute-force oracle on randomized prefixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/circuit/families.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/bdd_qbf_solver.hpp"
#include "src/qbf/qbf_oracle.hpp"

namespace hqs {
namespace {

TEST(QbfPrefix, MergesAdjacentSameKindBlocks)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Forall, {0, 1});
    p.addBlock(QuantKind::Forall, {2});
    p.addBlock(QuantKind::Exists, {3});
    ASSERT_EQ(p.numBlocks(), 2u);
    EXPECT_EQ(p.blocks()[0].vars, (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ(p.numAlternations(), 1u);
    EXPECT_EQ(p.numVars(), 4u);
}

TEST(QbfPrefix, KindOfAndContains)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Forall, {0});
    p.addBlock(QuantKind::Exists, {1});
    EXPECT_TRUE(p.contains(0));
    EXPECT_TRUE(p.contains(1));
    EXPECT_FALSE(p.contains(2));
    EXPECT_EQ(p.kindOf(0), QuantKind::Forall);
    EXPECT_EQ(p.kindOf(1), QuantKind::Exists);
}

TEST(QbfPrefix, RemoveVarMergesNeighbours)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Exists, {0});
    p.addBlock(QuantKind::Forall, {1});
    p.addBlock(QuantKind::Exists, {2});
    p.removeVar(1);
    ASSERT_EQ(p.numBlocks(), 1u);
    EXPECT_EQ(p.blocks()[0].kind, QuantKind::Exists);
    EXPECT_EQ(p.blocks()[0].vars, (std::vector<Var>{0, 2}));
}

TEST(QbfPrefix, RemoveLastVarEmptiesPrefix)
{
    QbfPrefix p;
    p.addVar(QuantKind::Forall, 5);
    p.removeVar(5);
    EXPECT_TRUE(p.empty());
}

TEST(QbfPrefix, IndexAgreesWithAScanOfTheBlocks)
{
    // contains/kindOf answer from a Var -> block index; check them against
    // a scan of blocks() (outermost copy wins) through random additions,
    // removals, block merges and repeated variables.
    Rng rng(7);
    constexpr Var kRange = 12;
    for (int round = 0; round < 200; ++round) {
        QbfPrefix p;
        for (int step = 0; step < 30; ++step) {
            if (rng.below(3) == 0) {
                std::vector<Var> vars;
                for (std::uint64_t i = rng.below(3); i > 0; --i) {
                    vars.push_back(static_cast<Var>(rng.below(kRange)));
                }
                p.addBlock(rng.flip() ? QuantKind::Forall : QuantKind::Exists, vars);
            } else {
                p.removeVar(static_cast<Var>(rng.below(kRange)));
            }
            for (Var v = 0; v < kRange + 2; ++v) {
                const QbfBlock* first = nullptr;
                for (const QbfBlock& b : p.blocks()) {
                    if (std::find(b.vars.begin(), b.vars.end(), v) != b.vars.end()) {
                        first = &b;
                        break;
                    }
                }
                ASSERT_EQ(p.contains(v), first != nullptr) << round << "/" << step << " v" << v;
                if (first) {
                    ASSERT_EQ(p.kindOf(v), first->kind) << round << "/" << step;
                }
            }
        }
    }
}

TEST(QbfPrefix, EqualityComparesBlocksOnly)
{
    QbfPrefix a;
    a.addBlock(QuantKind::Exists, {0, 1});
    QbfPrefix b;
    b.addBlock(QuantKind::Exists, {0, 1, 40});
    EXPECT_NE(a, b);
    b.removeVar(40); // b's index still spans variable 40
    EXPECT_EQ(a, b);
}

TEST(QbfFromParsed, FreeVariablesBecomeOuterExistentials)
{
    const auto parsed = parseDqdimacsString("p cnf 3 1\na 2 0\ne 3 0\n1 2 3 0\n");
    const QbfProblem q = qbfFromParsed(parsed);
    ASSERT_EQ(q.prefix.numBlocks(), 3u);
    EXPECT_EQ(q.prefix.blocks()[0].kind, QuantKind::Exists);
    EXPECT_EQ(q.prefix.blocks()[0].vars, (std::vector<Var>{0}));
    EXPECT_EQ(q.prefix.blocks()[1].kind, QuantKind::Forall);
}

TEST(QbfFromParsed, RejectsHenkinLines)
{
    const auto parsed = parseDqdimacsString("p cnf 2 1\na 1 0\nd 2 1 0\n1 2 0\n");
    EXPECT_THROW(qbfFromParsed(parsed), ParseError);
}

// ----- Elimination solver on hand-crafted formulas -------------------------

/// Helper: solve `prefix : matrix-built-from-cnf` with the AIG solver.
SolveResult solveElim(const QbfProblem& q, AigQbfOptions opts = {})
{
    Aig aig;
    const AigEdge matrix = buildFromCnf(aig, q.matrix);
    AigQbfSolver solver(opts);
    return solver.solve(aig, matrix, q.prefix);
}

TEST(AigQbfSolver, ForallExistsEquality)
{
    // forall x exists y: (x<->y)  — SAT (y copies x).
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::neg(1)});
    q.matrix.addClause({Lit::neg(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Forall, 0);
    q.prefix.addVar(QuantKind::Exists, 1);
    EXPECT_EQ(solveElim(q), SolveResult::Sat);
}

TEST(AigQbfSolver, ExistsForallEqualityIsUnsat)
{
    // exists y forall x: (x<->y) — UNSAT.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::neg(1)});
    q.matrix.addClause({Lit::neg(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(q), SolveResult::Unsat);
}

TEST(AigQbfSolver, TrueAndFalseConstants)
{
    QbfProblem taut;
    taut.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(taut), SolveResult::Sat);

    QbfProblem contra;
    contra.matrix.addClause(Clause{});
    contra.prefix.addVar(QuantKind::Exists, 0);
    EXPECT_EQ(solveElim(contra), SolveResult::Unsat);
}

TEST(AigQbfSolver, TwoAlternations)
{
    // forall x exists y forall z: (x | y | z)&(~x | ~y | ~z) — y = ~x works:
    // clause1 = x|~x|z.. wait: y=~x gives (x|~x|z)=T and (~x|x|~z)=T. SAT.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::pos(1), Lit::pos(2)});
    q.matrix.addClause({Lit::neg(0), Lit::neg(1), Lit::neg(2)});
    q.prefix.addVar(QuantKind::Forall, 0);
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 2);
    EXPECT_EQ(solveElim(q), SolveResult::Sat);
    EXPECT_TRUE(bruteForceQbf(q));
}

TEST(AigQbfSolver, UnsupportedPrefixVariablesAreDropped)
{
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0)});
    q.prefix.addVar(QuantKind::Forall, 5); // not in the matrix
    q.prefix.addVar(QuantKind::Exists, 0);
    AigQbfSolver solver;
    Aig aig;
    const AigEdge m = buildFromCnf(aig, q.matrix);
    EXPECT_EQ(solver.solve(aig, m, q.prefix), SolveResult::Sat);
}

TEST(AigQbfSolver, UnitPureShortcutsCountInStats)
{
    // exists y forall x: y & (x | y): y is positive unit.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(1)});
    q.matrix.addClause({Lit::pos(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 0);
    Aig aig;
    const AigEdge m = buildFromCnf(aig, q.matrix);
    AigQbfSolver solver;
    EXPECT_EQ(solver.solve(aig, m, q.prefix), SolveResult::Sat);
    EXPECT_GE(solver.stats().unitEliminations, 1u);
}

TEST(AigQbfSolver, UniversalUnitIsUnsat)
{
    // forall x: x  — universal unit, unsatisfied.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0)});
    q.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(q), SolveResult::Unsat);
}

TEST(AigQbfSolver, DeadlineYieldsTimeout)
{
    // A moderately large random QBF with an expired deadline.
    Rng rng(9);
    QbfProblem q;
    const Var n = 24;
    q.matrix.ensureVars(n);
    for (int c = 0; c < 100; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v)
        q.prefix.addVar(v % 2 == 0 ? QuantKind::Forall : QuantKind::Exists, v);
    AigQbfOptions opts;
    opts.deadline = Deadline::in(1e-9);
    const SolveResult r = solveElim(q, opts);
    EXPECT_TRUE(r == SolveResult::Timeout || isConclusive(r));
}

TEST(AigQbfSolver, NodeLimitYieldsMemout)
{
    Rng rng(11);
    QbfProblem q;
    const Var n = 20;
    q.matrix.ensureVars(n);
    for (int c = 0; c < 90; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v)
        q.prefix.addVar(v % 2 == 0 ? QuantKind::Forall : QuantKind::Exists, v);
    AigQbfOptions opts;
    opts.nodeLimit = 10; // absurdly small: must trip unless solved instantly
    opts.fraig = false;
    const SolveResult r = solveElim(q, opts);
    EXPECT_TRUE(r == SolveResult::Memout || isConclusive(r));
}

/// forall inputs exists Tseitin auxiliaries: two copies of a @p width-bit
/// adder with equal outputs (an equivalence-checking miter).  One
/// ∃-elimination on its AIG rebuilds cones of many thousand nodes.
QbfProblem adderMiter(unsigned width)
{
    const PecInstance ref = makeInstance(Family::Adder, width, true);
    QbfProblem q;
    std::unordered_map<Circuit::NodeId, Var> fixed;
    std::vector<Var> inputs;
    for (Circuit::NodeId in : ref.spec.inputs()) {
        inputs.push_back(q.matrix.newVar());
        fixed.emplace(in, inputs.back());
    }
    auto fresh = [&q]() { return q.matrix.newVar(); };
    const std::vector<Var> va = tseitinEncode(ref.spec, q.matrix, fixed, fresh);
    const std::vector<Var> vb = tseitinEncode(ref.spec, q.matrix, fixed, fresh);
    for (Circuit::NodeId out : ref.spec.outputs()) {
        q.matrix.addClause({Lit::neg(va[out]), Lit::pos(vb[out])});
        q.matrix.addClause({Lit::pos(va[out]), Lit::neg(vb[out])});
    }
    q.prefix.addBlock(QuantKind::Forall, inputs);
    std::vector<Var> aux;
    for (Var v = 0; v < q.matrix.numVars(); ++v) {
        if (std::find(inputs.begin(), inputs.end(), v) == inputs.end()) aux.push_back(v);
    }
    q.prefix.addBlock(QuantKind::Exists, aux);
    return q;
}

TEST(AigQbfSolver, DeadlineHoldsInsideOneLargeElimination)
{
    // The cofactor rebuild polls the deadline, so a single elimination on a
    // large cone cannot carry the solve far past its budget.
    const QbfProblem q = adderMiter(8);
    AigQbfOptions opts;
    opts.deadline = Deadline::in(0.3);
    Timer t;
    const SolveResult r = solveElim(q, opts);
    EXPECT_LT(t.elapsedSeconds(), 0.3 + 0.15) << toString(r);
    EXPECT_TRUE(r == SolveResult::Timeout || r == SolveResult::Sat) << toString(r);
}

// ----- Randomized agreement: AIG elimination vs BDD elimination vs oracle ---

class RandomQbfAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomQbfAgreement, AllThreeSolversAgree)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
    const Var n = 5 + static_cast<Var>(rng.below(4)); // 5..8 vars
    QbfProblem q;
    q.matrix.ensureVars(n);
    const int m = static_cast<int>(n) * 2 + static_cast<int>(rng.below(2 * n));
    for (int c = 0; c < m; ++c) {
        Clause cl;
        const int k = 2 + static_cast<int>(rng.below(2));
        for (int j = 0; j < k; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v) {
        q.prefix.addVar(rng.flip() ? QuantKind::Forall : QuantKind::Exists, v);
    }

    const bool expected = bruteForceQbf(q);

    EXPECT_EQ(solveElim(q) == SolveResult::Sat, expected);

    BddQbfSolver bdd;
    EXPECT_EQ(bdd.solve(q.matrix, q.prefix) == SolveResult::Sat, expected);

    // Elimination with optimizations off must agree, too.
    AigQbfOptions plain;
    plain.unitPure = false;
    plain.fraig = false;
    EXPECT_EQ(solveElim(q, plain) == SolveResult::Sat, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomQbfAgreement, ::testing::Range(0, 60));

} // namespace
} // namespace hqs
