// Tests for Skolem certificates outside the HQS trace (hqs_skolem_test.cpp
// covers that): the one checker judging hand-built certificates, every
// certifying engine's certificates on random DQBFs, the iDQ solver's
// certificates, and black-box synthesis for PEC instances.  Every check
// goes through cert::extractCertificate and the independent checker, the
// path `dqbf_solve --certify` + `dqbf_check` take.
#include <gtest/gtest.h>

#include "src/base/rng.hpp"
#include "src/cegar/cegar_solver.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/idq/idq_solver.hpp"
#include "src/pec/box_synthesis.hpp"
#include "tests/certify.hpp"

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
        for (unsigned j = 0; j < 2 + rng.below(2); ++j)
            cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

/// y == x: the only Skolem function is the identity.
DqbfFormula copycat(Var& x, Var& y)
{
    DqbfFormula f;
    x = f.addUniversal();
    y = f.addExistential({x});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    return f;
}

/// The checker's verdict on a certificate for @p f.
cert::CheckStatus checkStatus(const DqbfFormula& f, const AigSkolemCertificate& skolem)
{
    return cert::checkCertificateText(
               cert::toCertificateString(cert::extractCertificate(f, skolem)))
        .status;
}

TEST(Skolem, ToTableIndexesByDependencyOrder)
{
    AigSkolemCertificate cert{std::make_shared<Aig>(), {}};
    const Var y = 9;
    cert.functions.emplace(y, cert.aig->variable(2)); // s_y = value of var 2
    EXPECT_EQ(cert.toTable(y, {2, 5}), (std::vector<bool>{false, true, false, true}));
    EXPECT_EQ(cert.toTable(y, {0, 2}), (std::vector<bool>{false, false, true, true}));
    EXPECT_EQ(cert.toTable(y, {}), (std::vector<bool>{false}));
}

TEST(Skolem, CopycatCertificateIsIdentity)
{
    Var x = 0, y = 0;
    const DqbfFormula f = copycat(x, y);
    IdqSolver solver;
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
    EXPECT_EQ(solver.skolemCertificate()->toTable(y, {x}), (std::vector<bool>{false, true}));
}

TEST(Skolem, UnsatFormulaYieldsNoCertificate)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    IdqSolver idq;
    EXPECT_EQ(idq.solve(f), SolveResult::Unsat);
    EXPECT_FALSE(idq.skolemCertificate().has_value());
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver cegar(opts);
    EXPECT_EQ(cegar.solve(f), SolveResult::Unsat);
    EXPECT_FALSE(cegar.skolemCertificate().has_value());
}

TEST(Skolem, VerifierRejectsWrongTables)
{
    Var x = 0, y = 0;
    const DqbfFormula f = copycat(x, y);
    const auto aig = std::make_shared<Aig>();

    AigSkolemCertificate bad{aig, {{y, ~aig->variable(x)}}}; // s_y = ~x
    EXPECT_EQ(checkStatus(f, bad), cert::CheckStatus::Refuted);

    // Extraction fills a missing function with constant false.
    AigSkolemCertificate incomplete{aig, {}};
    EXPECT_EQ(checkStatus(f, incomplete), cert::CheckStatus::Refuted);

    // s_y = x is the right function, but y may not read x here.
    DqbfFormula blind;
    const Var bx = blind.addUniversal();
    const Var by = blind.addExistential({});
    blind.matrix().addClause({Lit::neg(bx), Lit::pos(by)});
    AigSkolemCertificate wrongDeps{aig, {{by, aig->variable(bx)}}};
    EXPECT_EQ(checkStatus(blind, wrongDeps), cert::CheckStatus::DependencyViolation);

    AigSkolemCertificate good{aig, {{y, aig->variable(x)}}};
    EXPECT_EQ(checkStatus(f, good), cert::CheckStatus::Ok);
}

TEST(Skolem, VerifierAcceptsConstantMatrixCertificates)
{
    DqbfFormula f;
    f.addUniversal();
    const Var y = f.addExistential({});
    // Empty matrix: any function works.
    const auto aig = std::make_shared<Aig>();
    EXPECT_EQ(checkStatus(f, AigSkolemCertificate{aig, {{y, aig->constFalse()}}}),
              cert::CheckStatus::Ok);
}

/// Every certifying engine, on one random formula: a certificate exactly on
/// SAT, and the checker accepts it.
class SkolemExtractionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkolemExtractionSweep, ExtractedCertificatesVerify)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 887 + 31);
    DqbfFormula f = randomDqbf(rng, 3, 3, 5 + static_cast<unsigned>(rng.below(9)));
    const SolveResult expected = expansionDqbf(f);
    ASSERT_TRUE(isConclusive(expected));

    auto expectCertified = [&](const char* name, SolveResult r, const auto& solver) {
        EXPECT_EQ(r, expected) << name;
        EXPECT_EQ(solver.skolemCertificate().has_value(), expected == SolveResult::Sat) << name;
        if (solver.skolemCertificate()) {
            EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate())) << name;
        }
    };
    HqsOptions hopts;
    hopts.computeSkolem = true;
    HqsSolver hqs(hopts);
    expectCertified("hqs", hqs.solve(f), hqs);
    IdqSolver idq;
    expectCertified("idq", idq.solve(f), idq);
    CegarOptions copts;
    copts.computeSkolem = true;
    CegarSolver cegar(copts);
    expectCertified("cegar", cegar.solve(f), cegar);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkolemExtractionSweep, ::testing::Range(0, 60));

class IdqCertificateSweep : public ::testing::TestWithParam<int> {};

TEST_P(IdqCertificateSweep, SatAnswersCarryValidCertificates)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1543 + 11);
    DqbfFormula f = randomDqbf(rng, 3, 3, 4 + static_cast<unsigned>(rng.below(8)));
    IdqSolver solver;
    const SolveResult r = solver.solve(f);
    ASSERT_TRUE(isConclusive(r));
    if (r == SolveResult::Sat) {
        ASSERT_TRUE(solver.skolemCertificate().has_value());
        EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
    } else {
        EXPECT_FALSE(solver.skolemCertificate().has_value());
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IdqCertificateSweep, ::testing::Range(0, 60));

// ----- black-box synthesis ----------------------------------------------------

TEST(BoxSynthesis, RealizableAdderSynthesizesFullAdderCells)
{
    const PecInstance inst = makeInstance(Family::Adder, 3, true);
    const auto boxes = synthesizeBoxes(inst);
    ASSERT_TRUE(boxes.has_value());
    EXPECT_TRUE(boxesRealizeSpec(inst, *boxes));
    // Only the FIRST box's sum is uniquely determined (its carry-in is the
    // true ripple carry and its sum is a primary output): it must be
    // a XOR b XOR cin (index bits: 0=a, 1=b, 2=cin).  The second box's
    // functions have don't-care freedom — e.g. the solver may pick an
    // inverted carry convention between the first box's carry output and
    // the second box, as long as the pair is consistent (which
    // boxesRealizeSpec above already verified).
    const std::vector<bool>& sum = boxes->tables[0][0];
    for (unsigned idx = 0; idx < 8; ++idx) {
        const bool a = idx & 1, b = idx & 2, cin = idx & 4;
        EXPECT_EQ(sum[idx], (a != b) != cin) << "index " << idx;
    }
}

TEST(BoxSynthesis, UnrealizableInstancesYieldNothing)
{
    EXPECT_FALSE(synthesizeBoxes(makeInstance(Family::Adder, 3, false)).has_value());
    EXPECT_FALSE(synthesizeBoxes(makeInstance(Family::PecXor, 4, false)).has_value());
}

class BoxSynthesisAllFamilies : public ::testing::TestWithParam<int> {};

TEST_P(BoxSynthesisAllFamilies, SynthesizedBoxesRealizeEveryFamily)
{
    const Family fam = allFamilies()[static_cast<std::size_t>(GetParam())];
    const PecInstance inst = makeInstance(fam, 3, true);
    const auto boxes = synthesizeBoxes(inst, Deadline::in(60));
    ASSERT_TRUE(boxes.has_value()) << inst.name;
    EXPECT_TRUE(boxesRealizeSpec(inst, *boxes)) << inst.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BoxSynthesisAllFamilies, ::testing::Range(0, 7));

TEST(BoxSynthesis, CertificateFromIdqSolverAlsoSynthesizes)
{
    const PecInstance inst = makeInstance(Family::Bitcell, 3, true);
    PecEncoding enc = encodePec(inst);
    IdqOptions opts;
    opts.deadline = Deadline::in(60);
    IdqSolver solver(opts);
    const SolveResult r = solver.solve(enc.formula);
    if (r != SolveResult::Sat) GTEST_SKIP() << "baseline timed out: " << r;
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(enc.formula, *solver.skolemCertificate()));
    EXPECT_TRUE(boxesRealizeSpec(inst, boxesFromSkolem(enc, *solver.skolemCertificate())));
}

} // namespace
} // namespace hqs
