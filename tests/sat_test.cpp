// Unit and property tests for the CDCL SAT solver, cross-checked against the
// brute-force oracle on randomized small formulas.
#include <gtest/gtest.h>

#include "src/base/rng.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

/// Pigeonhole principle PHP(P, H): P pigeons into H < P holes, Unsat.
void addPigeonHole(SatSolver& s, int P, int H)
{
    auto p = [H](int i, int j) { return Lit::pos(static_cast<Var>(H * i + j)); };
    for (int i = 0; i < P; ++i) {
        std::vector<Lit> c;
        for (int j = 0; j < H; ++j) c.push_back(p(i, j));
        s.addClause(std::move(c));
    }
    for (int j = 0; j < H; ++j)
        for (int i1 = 0; i1 < P; ++i1)
            for (int i2 = i1 + 1; i2 < P; ++i2) s.addClause({~p(i1, j), ~p(i2, j)});
}

TEST(SatSolver, EmptyFormulaIsSat)
{
    SatSolver s;
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, SingleUnit)
{
    SatSolver s;
    s.addClause({Lit::pos(0)});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(Var(0)).isTrue());
}

TEST(SatSolver, ContradictoryUnitsAreUnsat)
{
    SatSolver s;
    EXPECT_TRUE(s.addClause({Lit::pos(0)}));
    EXPECT_FALSE(s.addClause({Lit::neg(0)}));
    EXPECT_TRUE(s.inConflict());
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, SimpleImplicationChain)
{
    // x0 & (x0->x1) & (x1->x2) & (x2->x3)
    SatSolver s;
    s.addClause({Lit::pos(0)});
    s.addClause({Lit::neg(0), Lit::pos(1)});
    s.addClause({Lit::neg(1), Lit::pos(2)});
    s.addClause({Lit::neg(2), Lit::pos(3)});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    for (Var v = 0; v < 4; ++v) EXPECT_TRUE(s.modelValue(v).isTrue());
}

TEST(SatSolver, PigeonHole3Into2IsUnsat)
{
    // p_{ij}: pigeon i (0..2) in hole j (0..1).
    SatSolver s;
    auto p = [](int i, int j) { return Lit::pos(static_cast<Var>(2 * i + j)); };
    for (int i = 0; i < 3; ++i) s.addClause({p(i, 0), p(i, 1)});
    for (int j = 0; j < 2; ++j)
        for (int i1 = 0; i1 < 3; ++i1)
            for (int i2 = i1 + 1; i2 < 3; ++i2) s.addClause({~p(i1, j), ~p(i2, j)});
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, PigeonHole5Into4IsUnsat)
{
    SatSolver s;
    addPigeonHole(s, 5, 4);
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, ModelSatisfiesFormula)
{
    Cnf f;
    Rng rng(42);
    const Var n = 12;
    f.ensureVars(n);
    for (int c = 0; c < 40; ++c) {
        Clause cl;
        for (int k = 0; k < 3; ++k) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        f.addClause(std::move(cl));
    }
    SatSolver s;
    s.addCnf(f);
    if (s.solve() == SolveResult::Sat) {
        EXPECT_TRUE(f.evaluate(s.modelBools()));
    }
}

TEST(SatSolver, AssumptionsRestrictModels)
{
    SatSolver s;
    s.addClause({Lit::pos(0), Lit::pos(1)});
    EXPECT_EQ(s.solve({Lit::neg(0)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(Var(1)).isTrue());
    EXPECT_EQ(s.solve({Lit::neg(0), Lit::neg(1)}), SolveResult::Unsat);
    // Solver remains usable after an assumption-UNSAT.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, IncrementalClauseAddition)
{
    SatSolver s;
    s.addClause({Lit::pos(0), Lit::pos(1)});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    s.addClause({Lit::neg(0)});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(Var(1)).isTrue());
    s.addClause({Lit::neg(1)});
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, TopLevelValueAfterPropagation)
{
    SatSolver s;
    s.addClause({Lit::pos(0)});
    s.addClause({Lit::neg(0), Lit::pos(1)});
    EXPECT_TRUE(s.topLevelValue(Lit::pos(0)).isTrue());
    EXPECT_TRUE(s.topLevelValue(Lit::pos(1)).isTrue());
    EXPECT_TRUE(s.topLevelValue(Lit::neg(1)).isFalse());
    EXPECT_TRUE(s.topLevelValue(Lit::pos(2)).isUndef());
}

TEST(SatSolver, DuplicateAndTautologicalClauses)
{
    SatSolver s;
    EXPECT_TRUE(s.addClause({Lit::pos(0), Lit::neg(0)})); // tautology: no-op
    EXPECT_TRUE(s.addClause({Lit::pos(1), Lit::pos(1), Lit::pos(1)}));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(Var(1)).isTrue());
}

TEST(SatSolver, BruteForceOracleSanity)
{
    Cnf sat;
    sat.addClause({Lit::pos(0), Lit::pos(1)});
    sat.addClause({Lit::neg(0)});
    EXPECT_TRUE(bruteForceSat(sat));

    Cnf unsat;
    unsat.addClause({Lit::pos(0)});
    unsat.addClause({Lit::neg(0)});
    EXPECT_FALSE(bruteForceSat(unsat));
}

/// Property sweep: random k-CNF agrees with the brute-force oracle.
class RandomCnfAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfAgreement, MatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    // Vary density around the 3-SAT phase transition to get a healthy
    // SAT/UNSAT mix.
    const Var n = 6 + static_cast<Var>(rng.below(6));            // 6..11 vars
    const int m = static_cast<int>(n * (3 + rng.below(3)));      // 3n..5n clauses
    const int k = 2 + static_cast<int>(rng.below(2));            // 2..3 literals
    Cnf f;
    f.ensureVars(n);
    for (int c = 0; c < m; ++c) {
        Clause cl;
        for (int j = 0; j < k; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        f.addClause(std::move(cl));
    }
    SatSolver s;
    s.addCnf(f);
    const SolveResult r = s.solve();
    ASSERT_TRUE(r == SolveResult::Sat || r == SolveResult::Unsat);
    EXPECT_EQ(r == SolveResult::Sat, bruteForceSat(f));
    if (r == SolveResult::Sat) EXPECT_TRUE(f.evaluate(s.modelBools()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCnfAgreement, ::testing::Range(0, 60));

/// Assumptions behave like added unit clauses.
class RandomAssumptionAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssumptionAgreement, AssumptionEqualsUnitClause)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
    const Var n = 8;
    Cnf f;
    f.ensureVars(n);
    for (int c = 0; c < 28; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        f.addClause(std::move(cl));
    }
    std::vector<Lit> assumptions;
    for (int j = 0; j < 2; ++j) assumptions.push_back(Lit(static_cast<Var>(rng.below(n)), rng.flip()));

    SatSolver withAssumptions;
    withAssumptions.addCnf(f);
    const SolveResult r1 = withAssumptions.solve(assumptions);

    Cnf g = f;
    for (Lit a : assumptions) g.addClause({a});
    EXPECT_EQ(r1 == SolveResult::Sat, bruteForceSat(g));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAssumptionAgreement, ::testing::Range(0, 30));

TEST(SatSolver, LargeRandomSatisfiableInstance)
{
    // Under-constrained 3-SAT (ratio 2.0): solvable quickly, checks that the
    // solver scales beyond toy sizes and the model is genuine.
    Rng rng(2024);
    const Var n = 600;
    Cnf f;
    f.ensureVars(n);
    for (int c = 0; c < 1200; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        f.addClause(std::move(cl));
    }
    SatSolver s;
    s.addCnf(f);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(f.evaluate(s.modelBools()));
}

TEST(SatSolver, DeadlineProducesTimeout)
{
    // A hard pigeonhole instance with an (essentially) immediate deadline.
    SatSolver s;
    addPigeonHole(s, 11, 10);
    const SolveResult r = s.solve({}, Deadline::in(0.01));
    // Either it times out (expected) or the solver is startlingly fast.
    EXPECT_TRUE(r == SolveResult::Timeout || r == SolveResult::Unsat);
}

TEST(SatSolver, ConflictLimitYieldsUnknownDeterministically)
{
    // PHP(8, 7) needs far more than 100 conflicts; the limit, unlike a
    // deadline, stops every run at the same point whatever the host load.
    for (int run = 0; run < 3; ++run) {
        SatSolver s;
        addPigeonHole(s, 8, 7);
        EXPECT_EQ(s.solve({}, Deadline::unlimited(), 100), SolveResult::Unknown) << run;
        EXPECT_EQ(s.stats().conflicts, 100u) << run;
        // The limit counts this call's conflicts: a second call gets its own.
        EXPECT_EQ(s.solve({}, Deadline::unlimited(), 100), SolveResult::Unknown) << run;
        EXPECT_EQ(s.stats().conflicts, 200u) << run;
    }

    // A limit the proof fits under does not change the answer.
    SatSolver small;
    addPigeonHole(small, 5, 4);
    EXPECT_EQ(small.solve({}, Deadline::unlimited(), 100000), SolveResult::Unsat);
}

TEST(SatSolver, StatsAreTracked)
{
    SatSolver s;
    s.addClause({Lit::pos(0), Lit::pos(1)});
    s.addClause({Lit::neg(0), Lit::pos(1)});
    s.addClause({Lit::pos(0), Lit::neg(1)});
    s.solve();
    EXPECT_GT(s.stats().decisions + s.stats().propagations, 0u);
}

} // namespace
} // namespace hqs
