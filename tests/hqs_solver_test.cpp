// End-to-end tests for the HQS solver: paper examples, option matrix, and
// randomized agreement with the expansion oracle under every configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/qbf/elim_kernel.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

DqbfFormula randomDqbf(Rng& rng, unsigned numUniv, unsigned numExist, unsigned numClauses)
{
    DqbfFormula f;
    std::vector<Var> xs, ys;
    for (unsigned i = 0; i < numUniv; ++i) xs.push_back(f.addUniversal());
    for (unsigned i = 0; i < numExist; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.flip()) deps.push_back(x);
        }
        ys.push_back(f.addExistential(std::move(deps)));
    }
    std::vector<Var> all = xs;
    all.insert(all.end(), ys.begin(), ys.end());
    for (unsigned c = 0; c < numClauses; ++c) {
        Clause cl;
        const unsigned k = 2 + static_cast<unsigned>(rng.below(2));
        for (unsigned j = 0; j < k; ++j) cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

TEST(HqsSolver, CopycatWithDependencyIsSat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
}

TEST(HqsSolver, CopycatWithoutDependencyIsUnsat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
}

TEST(HqsSolver, CrossCopycatNeedsHenkinQuantifiers)
{
    // forall x1 x2 exists y1(x2) y2(x1): y1==x2 & y2==x1 — genuinely
    // non-linear dependencies; SAT.
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x2});
    const Var y2 = f.addExistential({x1});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y2)});
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
}

TEST(HqsSolver, EmptyMatrixIsSat)
{
    DqbfFormula f;
    f.addUniversal();
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_EQ(solver.stats().decidedBy, "preprocess");
}

TEST(HqsSolver, PlainSatFormulaWorks)
{
    // No universals at all: DQBF degenerates to SAT.
    DqbfFormula f;
    const Var a = f.addExistential({});
    const Var b = f.addExistential({});
    f.matrix().addClause({Lit::pos(a), Lit::pos(b)});
    f.matrix().addClause({Lit::neg(a), Lit::pos(b)});
    f.matrix().addClause({Lit::neg(b), Lit::pos(a)});
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
}

TEST(HqsSolver, QbfShapedInputGoesStraightToBackend)
{
    // Linear dependencies: no Theorem-1 elimination should happen.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::pos(x), Lit::pos(y)});
    f.matrix().addClause({Lit::neg(x), Lit::neg(y)});
    HqsOptions opts;
    opts.preprocess = false; // keep the matrix intact so the backend runs
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_EQ(solver.stats().universalsEliminated, 0u);
    EXPECT_EQ(solver.stats().selectedUniversals, 0u);
}

TEST(HqsSolver, NonLinearInputEliminatesSelectedUniversal)
{
    // Example-1 prefix with a matrix that stays undecided through
    // preprocessing: requires one Theorem-1 elimination.
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x1});
    const Var y2 = f.addExistential({x2});
    // (y1 xor x1) | (y2 xor x2) is falsified only when both match; make it
    // richer: y1==x1 and y2==x2 (SAT with matching Skolems).
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y2)});
    HqsOptions opts;
    opts.preprocess = false;
    opts.unitPure = false;
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_EQ(solver.stats().selectedUniversals, 1u);
    EXPECT_EQ(solver.stats().universalsEliminated, 1u);
    EXPECT_GT(solver.stats().copiesIntroduced, 0u);
}

TEST(HqsSolver, SatProbeCatchesPropositionalUnsat)
{
    // A matrix that is propositionally unsatisfiable (no Skolem can help):
    // the Section-IV SAT probe must refute it without any elimination.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y1 = f.addExistential({x});
    const Var y2 = f.addExistential({});
    f.matrix().addClause({Lit::pos(y1), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(y1), Lit::neg(y2)});
    f.matrix().addClause({Lit::neg(y1), Lit::pos(y2), Lit::pos(x)});
    f.matrix().addClause({Lit::neg(y1), Lit::neg(y2), Lit::pos(x)});
    f.matrix().addClause({Lit::neg(y1), Lit::pos(y2), Lit::neg(x)});
    f.matrix().addClause({Lit::neg(y1), Lit::neg(y2), Lit::neg(x)});
    HqsOptions opts;
    opts.preprocess = false; // let the probe do the work
    opts.unitPure = false;
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    EXPECT_EQ(solver.stats().decidedBy, "sat-probe");

    // With the probe disabled the solver still gets the right answer, just
    // through elimination.
    opts.satProbe = false;
    HqsSolver noProbe(opts);
    EXPECT_EQ(noProbe.solve(f), SolveResult::Unsat);
    EXPECT_NE(noProbe.stats().decidedBy, "sat-probe");
}

TEST(HqsSolver, TimeoutIsReported)
{
    Rng rng(77);
    DqbfFormula f = randomDqbf(rng, 10, 10, 60);
    HqsOptions opts;
    opts.deadline = Deadline::in(1e-9);
    HqsSolver solver(opts);
    const SolveResult r = solver.solve(f);
    EXPECT_TRUE(r == SolveResult::Timeout || isConclusive(r));
}

TEST(HqsSolver, NodeLimitGivesMemout)
{
    Rng rng(78);
    DqbfFormula f = randomDqbf(rng, 12, 10, 80);
    HqsOptions opts;
    opts.nodeLimit = 5;
    opts.fraig = false;
    opts.preprocess = false;
    opts.unitPure = false;
    HqsSolver solver(opts);
    const SolveResult r = solver.solve(f);
    EXPECT_TRUE(r == SolveResult::Memout || isConclusive(r));
}

TEST(HqsSolver, StatsTimingIsPopulated)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::pos(x), Lit::pos(y)});
    HqsSolver solver;
    solver.solve(f);
    EXPECT_GE(solver.stats().totalMilliseconds, 0.0);
    EXPECT_FALSE(solver.stats().decidedBy.empty());
}

// ----- randomized agreement across the full option matrix -------------------

struct HqsConfig {
    const char* name;
    HqsOptions options;
};

HqsOptions makeOptions(bool pre, bool up, HqsOptions::Selection sel, HqsOptions::Backend be)
{
    HqsOptions o;
    o.preprocess = pre;
    o.gateDetection = pre;
    o.unitPure = up;
    o.selection = sel;
    o.backend = be;
    return o;
}

class HqsAgreement : public ::testing::TestWithParam<int> {};

TEST_P(HqsAgreement, MatchesExpansionOracleUnderAllConfigurations)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 409 + 3);
    const unsigned nu = 2 + static_cast<unsigned>(rng.below(3)); // 2..4
    const unsigned ne = 2 + static_cast<unsigned>(rng.below(3)); // 2..4
    const unsigned nc = 4 + static_cast<unsigned>(rng.below(10));
    DqbfFormula f = randomDqbf(rng, nu, ne, nc);

    const SolveResult expected = expansionDqbf(f);
    ASSERT_TRUE(isConclusive(expected));

    const HqsConfig configs[] = {
        {"default", makeOptions(true, true, HqsOptions::Selection::MaxSat,
                                HqsOptions::Backend::AigElimination)},
        {"no-preprocess", makeOptions(false, true, HqsOptions::Selection::MaxSat,
                                      HqsOptions::Backend::AigElimination)},
        {"no-unitpure", makeOptions(true, false, HqsOptions::Selection::MaxSat,
                                    HqsOptions::Backend::AigElimination)},
        {"bare", makeOptions(false, false, HqsOptions::Selection::MaxSat,
                             HqsOptions::Backend::AigElimination)},
        {"greedy", makeOptions(true, true, HqsOptions::Selection::Greedy,
                               HqsOptions::Backend::AigElimination)},
        {"eliminate-all", makeOptions(true, true, HqsOptions::Selection::All,
                                      HqsOptions::Backend::AigElimination)},
        {"bdd-backend", makeOptions(true, true, HqsOptions::Selection::MaxSat,
                                    HqsOptions::Backend::BddElimination)},
        {"bdd-backend-bare", makeOptions(false, false, HqsOptions::Selection::MaxSat,
                                         HqsOptions::Backend::BddElimination)},
    };
    for (const HqsConfig& cfg : configs) {
        HqsSolver solver(cfg.options);
        EXPECT_EQ(solver.solve(f), expected) << "config: " << cfg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HqsAgreement, ::testing::Range(0, 80));

/// Larger instances: HQS (default) vs expansion oracle only.
class HqsAgreementLarger : public ::testing::TestWithParam<int> {};

TEST_P(HqsAgreementLarger, MatchesExpansionOracle)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1201 + 9);
    DqbfFormula f = randomDqbf(rng, 6, 6, 20 + static_cast<unsigned>(rng.below(15)));
    const SolveResult expected = expansionDqbf(f);
    ASSERT_TRUE(isConclusive(expected));
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HqsAgreementLarger, ::testing::Range(0, 40));

// ----- Theorem 1 as one pass -------------------------------------------------
//
// HqsSolver builds phi[0/x] & phi[1/x][y'/y] in one polled pass
// (ElimKernel::eliminateForall with a renaming) and decides the copies from
// the scan's occurrence counts.  The step it replaced took four walks: cof0,
// cof1, support(cof1), then a substitution renaming only the dependers in
// that support.

/// The four-walk Theorem 1 step: @p copies pairs each depender y with its
/// copy y'; only those in the support of phi[1/x] are renamed.
AigEdge theorem1FourWalks(Aig& aig, AigEdge matrix, Var x,
                          const std::vector<std::pair<Var, Var>>& copies)
{
    const AigEdge cof0 = aig.cofactor(matrix, x, false);
    const AigEdge cof1 = aig.cofactor(matrix, x, true);
    const std::vector<Var> supp1 = aig.support(cof1);
    Substitution renaming;
    for (const auto& [y, fresh] : copies) {
        if (std::binary_search(supp1.begin(), supp1.end(), y)) renaming.set(y, aig.variable(fresh));
    }
    return aig.mkAnd(cof0, aig.substitute(cof1, renaming));
}

bool sameFunction(Aig& aig, AigEdge a, AigEdge b)
{
    const AigEdge diff = aig.mkXor(a, b);
    if (aig.isConstant(diff)) return !aig.constantValue(diff);
    SatSolver sat;
    AigCnfBridge bridge(aig, sat);
    return sat.solve({bridge.litFor(diff)}) == SolveResult::Unsat;
}

TEST(HqsTheorem1, OnePassMatchesTheFourWalkStep)
{
    std::size_t checked = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        Rng rng(seed * 7919 + 1);
        const DqbfFormula f = randomDqbf(rng, 3 + static_cast<unsigned>(rng.below(2)),
                                         4 + static_cast<unsigned>(rng.below(3)),
                                         10 + static_cast<unsigned>(rng.below(15)));
        Aig aig;
        const AigEdge matrix = buildFromCnf(aig, f.matrix());
        for (const Var x : f.universals()) {
            ElimStats stats;
            ElimKernel kernel(aig, matrix, ElimLimits{}, nullptr, stats);
            const UnitPureInfo& scan = kernel.scan();
            if (scan.occurrencesOf(x) == 0) continue;
            Substitution renaming;
            std::vector<std::pair<Var, Var>> copies;
            for (const Var y : f.dependersOf(x)) {
                if (scan.occurrencesOf(y) == 0) continue;
                const Var fresh = 1000 + y;
                renaming.set(y, aig.variable(fresh));
                copies.emplace_back(y, fresh);
            }
            ASSERT_EQ(kernel.eliminateForall(x, &renaming), SolveResult::Unknown);
            EXPECT_TRUE(sameFunction(aig, kernel.matrix(), theorem1FourWalks(aig, matrix, x, copies)))
                << "seed " << seed << ", x = " << x;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

/// A random DQBF whose existentials each depend on a proper, non-empty
/// subset of the universals, so the dependency graph is usually cyclic and
/// HQS has to eliminate universals by Theorem 1.
DqbfFormula henkinDqbf(Rng& rng)
{
    DqbfFormula f;
    const unsigned nu = 3 + static_cast<unsigned>(rng.below(2));
    const unsigned ne = 3 + static_cast<unsigned>(rng.below(3));
    std::vector<Var> xs;
    for (unsigned i = 0; i < nu; ++i) xs.push_back(f.addUniversal());
    std::vector<Var> all = xs;
    for (unsigned i = 0; i < ne; ++i) {
        std::vector<Var> deps;
        const std::size_t skip = rng.below(nu);
        for (std::size_t j = 0; j < nu; ++j) {
            if (j != skip && (deps.empty() || rng.flip())) deps.push_back(xs[j]);
        }
        all.push_back(f.addExistential(std::move(deps)));
    }
    const unsigned clauses = 4 + static_cast<unsigned>(rng.below(8));
    for (unsigned c = 0; c < clauses; ++c) {
        Clause cl;
        for (unsigned j = 0; j < 2 + rng.below(2); ++j)
            cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

TEST(HqsTheorem1, VerdictsMatchTheOracleAndEveryCertificateChecks)
{
    std::size_t withTheorem1 = 0;
    std::size_t certified = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(seed * 6007 + 11);
        const DqbfFormula f = henkinDqbf(rng);
        const SolveResult expected = expansionDqbf(f);
        ASSERT_TRUE(isConclusive(expected));
        for (const bool simplify : {true, false}) {
            HqsOptions opts;
            opts.preprocess = simplify;
            opts.gateDetection = simplify;
            opts.unitPure = simplify;
            opts.satProbe = simplify;
            opts.computeSkolem = true;
            HqsSolver solver(opts);
            ASSERT_EQ(solver.solve(f), expected) << "seed " << seed;
            if (solver.stats().universalsEliminated > 0) ++withTheorem1;
            if (expected != SolveResult::Sat) continue;
            ASSERT_TRUE(solver.skolemCertificate()) << "seed " << seed;
            const cert::CheckResult check = cert::checkCertificateText(cert::toCertificateString(
                cert::extractCertificate(f, *solver.skolemCertificate())));
            EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << cert::toString(check.status)
                                    << " (" << check.detail << ")";
            ++certified;
        }
    }
    EXPECT_GT(withTheorem1, 150u) << withTheorem1;
    EXPECT_GT(certified, 100u) << certified;
}

} // namespace
} // namespace hqs
