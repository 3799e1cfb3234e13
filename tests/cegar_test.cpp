// Tests for the CEGAR engine family (clausal abstraction + decision lists)
// and its DQCIR circuit front end:
//
//  * CegarSolver unit tests: hand-built instances with known verdicts,
//    budget/deadline behavior, restartability, and stats.
//  * The differential fuzz sweep: random small DQBFs cross-checked against
//    the expansion oracle and the HQS elimination engine, with every SAT
//    verdict certified through the production extract/serialize/check
//    pipeline (the decision lists as Skolem functions).
//  * DQCIR parsing and lowering: samples, prefix semantics, gate forms,
//    content sniffing, the corrupt-input corpus (one file per ParseError
//    branch), and solving parsed circuits with both engine families.
//  * Fault checkpoints `cegar-refine` and `dqcir-parse`: ScopedFault unit
//    tests plus the EnvFaultCegar suite the faults/* ctest rows rerun with
//    HQS_FAULT armed, proving injected faults surface as structured
//    FailureInfo instead of killing the process.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/base/fault.hpp"
#include "src/base/rng.hpp"
#include "src/cegar/cegar_solver.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/runtime/guard.hpp"

namespace hqs {
namespace {

/// Production-path verification (same pipeline as `dqbf_solve --certify`
/// + `dqbf_check`): extract, serialize, re-parse, check independently.
::testing::AssertionResult certifiesThroughProduction(const DqbfFormula& f,
                                                      const AigSkolemCertificate& skolem)
{
    const std::string text =
        cert::toCertificateString(cert::extractCertificate(f, skolem));
    cert::Certificate parsed;
    std::string detail;
    const cert::CheckStatus st = cert::parseCertificateString(text, parsed, detail);
    if (st != cert::CheckStatus::Ok)
        return ::testing::AssertionFailure()
               << "parse failed: " << cert::toString(st) << " (" << detail << ")";
    const cert::CheckResult res = cert::checkCertificate(parsed);
    if (!res.ok())
        return ::testing::AssertionFailure()
               << "check failed: " << cert::toString(res.status) << " (" << res.detail
               << ")";
    return ::testing::AssertionSuccess();
}

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
        for (unsigned j = 0; j < 2 + rng.below(2); ++j)
            cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

/// y(x) forced to equal x — SAT, identity Skolem function.
DqbfFormula copycat()
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    return f;
}

// --------------------------------------------------------------- CEGAR

TEST(Cegar, CopycatSatWithCertificate)
{
    const DqbfFormula f = copycat();
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
    EXPECT_GE(solver.stats().refinements, 1u);
    EXPECT_GE(solver.stats().abstractionVars, 1u);
}

TEST(Cegar, FreeExistentialCannotCopyUniversal)
{
    // y has no dependencies but must equal x: FALSE.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    EXPECT_GE(solver.stats().counterexamples, 1u);
}

TEST(Cegar, UniversalOnlyClauseIsUnsat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    f.addExistential({x});
    f.matrix().addClause({Lit::pos(x)});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
}

TEST(Cegar, EmptyMatrixIsSat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    f.addExistential({x});
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
}

TEST(Cegar, EmptyClauseIsUnsat)
{
    DqbfFormula f;
    f.addUniversal();
    f.matrix().addClause({});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
}

TEST(Cegar, CrossDependencySat)
{
    // y1(x2) == x2 and y2(x1) == x1: satisfiable, but only by genuinely
    // non-linear (Henkin) Skolem functions.
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x2});
    const Var y2 = f.addExistential({x1});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y2)});
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
}

TEST(Cegar, RuleLimitReturnsMemout)
{
    // Clause {y} with D_y = {x}: the false default fails under both values
    // of x, so the solver must learn one rule per projection — two rules.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::pos(y)});

    CegarOptions limited;
    limited.ruleLimit = 1;
    CegarSolver solver(limited);
    EXPECT_EQ(solver.solve(f), SolveResult::Memout);

    CegarSolver unlimited;
    EXPECT_EQ(unlimited.solve(f), SolveResult::Sat);
    EXPECT_EQ(unlimited.stats().rulesLearned, 2u);
}

TEST(Cegar, ExpiredDeadlineReturnsTimeout)
{
    CegarOptions opts;
    opts.deadline = Deadline::in(1e-9);
    CegarSolver solver(opts);
    EXPECT_EQ(solver.solve(copycat()), SolveResult::Timeout);
}

TEST(Cegar, SolveIsRestartable)
{
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    const DqbfFormula sat = copycat();
    EXPECT_EQ(solver.solve(sat), SolveResult::Sat);

    DqbfFormula unsat;
    const Var x = unsat.addUniversal();
    const Var y = unsat.addExistential({});
    unsat.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    unsat.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    EXPECT_EQ(solver.solve(unsat), SolveResult::Unsat);
    EXPECT_FALSE(solver.skolemCertificate().has_value());

    EXPECT_EQ(solver.solve(sat), SolveResult::Sat);
    EXPECT_TRUE(certifiesThroughProduction(sat, *solver.skolemCertificate()));
}

// The tentpole's correctness anchor: CEGAR vs the expansion oracle vs the
// HQS elimination engine over random small instances, with every SAT
// verdict's decision lists certified end to end.
TEST(Cegar, DifferentialFuzzAgainstOracleAndHqs)
{
    Rng rng(20260808);
    for (int iter = 0; iter < 150; ++iter) {
        const unsigned numUniv = 1 + static_cast<unsigned>(rng.below(3));
        const unsigned numExist = 1 + static_cast<unsigned>(rng.below(3));
        const unsigned numClauses = 3 + static_cast<unsigned>(rng.below(6));
        const DqbfFormula f = randomDqbf(rng, numUniv, numExist, numClauses);

        const SolveResult oracle = expansionDqbf(f);
        ASSERT_TRUE(oracle == SolveResult::Sat || oracle == SolveResult::Unsat);

        HqsSolver hqsSolver;
        EXPECT_EQ(hqsSolver.solve(f), oracle) << "HQS disagrees at iter " << iter;

        CegarOptions opts;
        opts.computeSkolem = true;
        CegarSolver cegar(opts);
        EXPECT_EQ(cegar.solve(f), oracle) << "CEGAR disagrees at iter " << iter;
        if (oracle == SolveResult::Sat) {
            ASSERT_TRUE(cegar.skolemCertificate().has_value()) << "iter " << iter;
            EXPECT_TRUE(certifiesThroughProduction(f, *cegar.skolemCertificate()))
                << "iter " << iter;
        }
    }
}

// --------------------------------------------------------------- DQCIR

const char* kSatCircuit =
    "#QCIR-G14\n"
    "forall(x1, x2)\n"
    "depend(y1, x1)\n"
    "depend(y2, x2)\n"
    "output(phi)\n"
    "g1 = xor(x1, y1)\n"
    "g2 = xor(x2, y2)\n"
    "phi = and(-g1, -g2)\n";

DqbfFormula circuitFormula(const std::string& text)
{
    return DqbfFormula::fromParsed(lowerDqcir(parseDqcirString(text)));
}

TEST(Dqcir, ParsesAndLowersSatExample)
{
    const ParsedDqcir parsed = parseDqcirString(kSatCircuit);
    EXPECT_EQ(parsed.inputs.size(), 4u);
    EXPECT_EQ(parsed.gateCount, 3u);
    EXPECT_TRUE(parsed.inputs[0].universal);
    EXPECT_TRUE(parsed.inputs[1].universal);
    EXPECT_FALSE(parsed.inputs[2].universal);
    EXPECT_EQ(parsed.inputs[2].deps, (std::vector<std::size_t>{0}));
    EXPECT_EQ(parsed.inputs[3].deps, (std::vector<std::size_t>{1}));

    const ParsedQdimacs lowered = lowerDqcir(parsed);
    ASSERT_FALSE(lowered.blocks.empty());
    EXPECT_EQ(lowered.blocks[0].kind, QuantKind::Forall);
    EXPECT_EQ(lowered.blocks[0].vars, (std::vector<Var>{0, 1}));
    ASSERT_EQ(lowered.henkin.size(), 2u);
    EXPECT_EQ(lowered.henkin[0].deps, (std::vector<Var>{0}));
    EXPECT_EQ(lowered.henkin[1].deps, (std::vector<Var>{1}));

    const DqbfFormula f = DqbfFormula::fromParsed(lowered);
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Sat);
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Sat);
}

TEST(Dqcir, FreeExistentialCircuitIsUnsat)
{
    const DqbfFormula f = circuitFormula(
        "#QCIR-G14\n"
        "forall(x)\n"
        "free(y)\n"
        "output(-g1)\n"
        "g1 = xor(x, y)\n");
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Unsat);
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Unsat);
}

TEST(Dqcir, ExistsDependsOnUniversalsToItsLeftOnly)
{
    const ParsedDqcir parsed = parseDqcirString(
        "#QCIR-G14\n"
        "forall(x1)\n"
        "exists(y)\n"
        "forall(x2)\n"
        "output(g)\n"
        "g = or(x1, -x2, y)\n");
    ASSERT_EQ(parsed.inputs.size(), 3u);
    EXPECT_EQ(parsed.inputs[1].deps, (std::vector<std::size_t>{0}));

    const ParsedQdimacs lowered = lowerDqcir(parsed);
    ASSERT_EQ(lowered.henkin.size(), 1u);
    EXPECT_EQ(lowered.henkin[0].deps, (std::vector<Var>{0}));
}

TEST(Dqcir, IteGateSolvesAsExpected)
{
    // phi = ite(x, y, -y): y(x) must be 1 at x = 1 and 0 at x = 0 — SAT
    // with y = x.
    const DqbfFormula f = circuitFormula(
        "#QCIR-G14\n"
        "forall(x)\n"
        "depend(y, x)\n"
        "output(phi)\n"
        "ny = and(-y)\n"
        "phi = ite(x, y, ny)\n");
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Sat);
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Sat);
}

TEST(Dqcir, ConstantGates)
{
    EXPECT_EQ(CegarSolver().solve(circuitFormula("#QCIR-G14\n"
                                                 "forall(x)\n"
                                                 "output(g)\n"
                                                 "g = and()\n")),
              SolveResult::Sat);
    EXPECT_EQ(CegarSolver().solve(circuitFormula("#QCIR-G14\n"
                                                 "forall(x)\n"
                                                 "output(g)\n"
                                                 "g = or()\n")),
              SolveResult::Unsat);
}

TEST(Dqcir, ContentSniffing)
{
    EXPECT_TRUE(looksLikeDqcir(kSatCircuit));
    EXPECT_TRUE(looksLikeDqcir("\n  \n#QCIR-G14\noutput(g)\ng = and()\n"));
    EXPECT_FALSE(looksLikeDqcir("c comment\np cnf 2 1\na 1 0\n1 -2 0\n"));
    EXPECT_FALSE(looksLikeDqcir(""));

    // A declared format overrides the sniff; only "" sniffs.
    const std::string cnf = "p cnf 2 1\na 1 0\n1 -2 0\n";
    EXPECT_TRUE(isCircuitInput("", kSatCircuit));
    EXPECT_FALSE(isCircuitInput("", cnf));
    EXPECT_TRUE(isCircuitInput("dqcir", kSatCircuit));
    EXPECT_TRUE(isCircuitInput("dqcir", cnf));
    EXPECT_FALSE(isCircuitInput("dqdimacs", kSatCircuit));
    EXPECT_FALSE(isCircuitInput("dqdimacs", cnf));
}

TEST(Dqcir, FileNotFoundThrows)
{
    EXPECT_THROW(parseDqcirFile("/nonexistent/file.dqcir"), ParseError);
}

// Every .dqcir file in the corrupt-input corpus must be rejected with a
// typed ParseError (not accepted, not crash); each exercises one throw
// branch of the DQCIR parser.
TEST(Dqcir, CorruptCorpusIsRejectedWithParseError)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "corrupt";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqcir") continue;
        ++count;
        EXPECT_THROW(parseDqcirFile(entry.path().string()), ParseError)
            << "accepted corrupt file " << entry.path();
    }
    EXPECT_GE(count, 20u); // one per ParseError branch of the parser
}

// The sample circuits under data/dqcir/ round-trip through parse + lower +
// both engine families with the verdict their names claim.
TEST(Dqcir, SampleFilesSolveWithBothEngineFamilies)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "dqcir";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqcir") continue;
        ++count;
        const DqbfFormula f =
            DqbfFormula::fromParsed(lowerDqcir(parseDqcirFile(entry.path().string())));
        const bool expectSat =
            entry.path().filename().string().find("unsat") == std::string::npos;
        const SolveResult expected = expectSat ? SolveResult::Sat : SolveResult::Unsat;
        HqsSolver hqs;
        EXPECT_EQ(hqs.solve(f), expected) << entry.path();
        CegarSolver cegar;
        EXPECT_EQ(cegar.solve(f), expected) << entry.path();
    }
    EXPECT_GE(count, 2u);
}

// --------------------------------------------------------------- faults

TEST(CegarFault, RefineCheckpointThrowsInjectedFault)
{
    fault::ScopedFault armed("cegar-refine");
    CegarSolver solver;
    const DqbfFormula f = copycat();
    EXPECT_THROW(solver.solve(f), fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(solver.solve(f), SolveResult::Sat); // recovers once disarmed
}

TEST(DqcirFault, ParseCheckpointThrowsInjectedFault)
{
    fault::ScopedFault armed("dqcir-parse");
    EXPECT_THROW(parseDqcirString(kSatCircuit), fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(parseDqcirString(kSatCircuit).inputs.size(), 4u);
}

// Rerun by the faults/cegar-refine-1 and faults/dqcir-parse-1 ctest rows
// with HQS_FAULT armed through the environment: the injected fault must
// surface as a structured FailureInfo out of runGuarded, never unwind.
TEST(EnvFaultCegar, ArmedSiteSurfacesAsStructuredFailure)
{
    const std::string site = fault::armedSite();
    if (site.empty()) GTEST_SKIP() << "no HQS_FAULT armed";

    const GuardedOutcome out = runGuarded(GuardOptions{}, [&](const Deadline& dl) {
        const DqbfFormula f = circuitFormula(kSatCircuit);
        CegarOptions opts;
        opts.deadline = dl;
        CegarSolver solver(opts);
        return solver.solve(f);
    });
    ASSERT_TRUE(out.failure) << "armed site " << site << " never fired";
    EXPECT_EQ(out.failure.kind, FailureKind::InjectedFault);
    EXPECT_EQ(out.failure.site, site);
    EXPECT_FALSE(isConclusive(out.result));
}

} // namespace
} // namespace hqs
