// Certification subsystem tests: extractor -> serializer -> parser ->
// independent checker round trips, the corrupt-certificate corpus (every
// mutation rejected with its own structured reason), a differential sweep
// certifying every SAT instance under tests/data/, and the portfolio
// disagreement path that arbitrates contradictory verdicts by checking the
// SAT racer's certificate.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/runtime/portfolio.hpp"

namespace hqs {
namespace {

std::string dataPath(const std::string& name)
{
    return std::string(HQS_TEST_DATA_DIR) + "/" + name;
}

/// x1 -> y3, x2 -> y4, each existential copying its single dependency.
DqbfFormula copycat()
{
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x1});
    const Var y2 = f.addExistential({x2});
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y2)});
    return f;
}

/// Solve @p f with Skolem recording and return the serialized certificate
/// ("" when the verdict is not Sat).
std::string solveAndSerialize(const DqbfFormula& f)
{
    HqsOptions opts;
    opts.computeSkolem = true;
    HqsSolver solver(opts);
    if (solver.solve(f) != SolveResult::Sat || !solver.skolemCertificate()) return {};
    return cert::toCertificateString(
        cert::extractCertificate(f, *solver.skolemCertificate()));
}

TEST(Certificate, RoundTripThroughStringIsAcceptedByTheChecker)
{
    const DqbfFormula f = copycat();
    const std::string text = solveAndSerialize(f);
    ASSERT_FALSE(text.empty());

    cert::Certificate parsed;
    std::string detail;
    ASSERT_EQ(cert::parseCertificateString(text, parsed, detail), cert::CheckStatus::Ok)
        << detail;
    EXPECT_EQ(parsed.functions.size(), f.existentials().size());
    EXPECT_EQ(parsed.hash, cert::formulaHash(f.toParsed()));

    const cert::CheckResult res = cert::checkCertificate(parsed);
    EXPECT_TRUE(res.ok()) << cert::toString(res.status) << ": " << res.detail;
}

TEST(Certificate, SerializationIsDeterministic)
{
    const DqbfFormula f = copycat();
    EXPECT_EQ(solveAndSerialize(f), solveAndSerialize(f));
}

TEST(Certificate, HashBindsPrefixAndMatrix)
{
    DqbfFormula f = copycat();
    const std::uint64_t h = cert::formulaHash(f.toParsed());
    // A different dependency set must change the hash.
    DqbfFormula g;
    const Var x1 = g.addUniversal();
    const Var x2 = g.addUniversal();
    g.addExistential({x1, x2}); // copycat's y1 depends on x1 only
    g.addExistential({x2});
    g.matrix().addClause({Lit::neg(x1), Lit::pos(Var(2))});
    g.matrix().addClause({Lit::pos(x1), Lit::neg(Var(2))});
    g.matrix().addClause({Lit::neg(x2), Lit::pos(Var(3))});
    g.matrix().addClause({Lit::pos(x2), Lit::neg(Var(3))});
    EXPECT_NE(cert::formulaHash(g.toParsed()), h);
    // And so must a different matrix.
    DqbfFormula m = copycat();
    m.matrix().addClause({Lit::pos(Var(0))});
    EXPECT_NE(cert::formulaHash(m.toParsed()), h);
}

TEST(Certificate, GarbageIsBadFormatNotACrash)
{
    cert::Certificate parsed;
    std::string detail;
    EXPECT_EQ(cert::parseCertificateString("not a certificate\n", parsed, detail),
              cert::CheckStatus::BadFormat);
    EXPECT_EQ(cert::parseCertificateString("", parsed, detail),
              cert::CheckStatus::Truncated);
}

// ------------------------------------------------- corrupt-certificate corpus

struct CorpusCase {
    const char* file;
    cert::CheckStatus expected;
};

class CertCorpus : public ::testing::TestWithParam<CorpusCase> {};

/// Every corpus mutation must be rejected with its own structured reason —
/// a checker that collapses failure modes cannot be debugged in the field.
TEST_P(CertCorpus, EachMutationRejectsWithItsOwnReason)
{
    const CorpusCase& c = GetParam();
    cert::Certificate parsed;
    std::string detail;
    cert::CheckStatus st =
        cert::parseCertificateFile(dataPath(std::string("cert/") + c.file), parsed, detail);
    if (st == cert::CheckStatus::Ok) {
        const cert::CheckResult res = cert::checkCertificate(parsed);
        st = res.status;
        detail = res.detail;
    }
    EXPECT_EQ(st, c.expected) << c.file << ": " << cert::toString(st) << " (" << detail
                              << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CertCorpus,
    ::testing::Values(
        CorpusCase{"flipped_output.cert", cert::CheckStatus::Refuted},
        CorpusCase{"dropped_function.cert", cert::CheckStatus::MissingFunction},
        CorpusCase{"dependency_violation.cert", cert::CheckStatus::DependencyViolation},
        CorpusCase{"truncated.cert", cert::CheckStatus::Truncated},
        CorpusCase{"wrong_hash.cert", cert::CheckStatus::HashMismatch}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
        std::string name = info.param.file;
        name.resize(name.size() - 5); // strip ".cert"
        return name;
    });

// A valid certificate for a *different* formula must fail the --formula
// binding (hash mismatch), even though it is internally consistent.
TEST(Certificate, CertificateOfOneFormulaRejectsAnother)
{
    const DqbfFormula f = copycat();
    const std::string text = solveAndSerialize(f);
    ASSERT_FALSE(text.empty());
    cert::Certificate parsed;
    std::string detail;
    ASSERT_EQ(cert::parseCertificateString(text, parsed, detail), cert::CheckStatus::Ok);

    const ParsedQdimacs other = parseDqdimacsFile(dataPath("example1_unsat.dqdimacs"));
    EXPECT_NE(cert::formulaHash(other), parsed.hash);
}

// ------------------------------------------------------- differential sweep

/// Certify every SAT instance under tests/data/ and check the artifact with
/// the independent checker — the same obligation the CLI round-trip test
/// enforces through the binaries.
TEST(Certificate, EverySatInstanceInTestDataCertifies)
{
    int certified = 0;
    for (const auto& entry : std::filesystem::directory_iterator(HQS_TEST_DATA_DIR)) {
        if (entry.path().extension() != ".dqdimacs") continue;
        const DqbfFormula f =
            DqbfFormula::fromParsed(parseDqdimacsFile(entry.path().string()));
        HqsOptions opts;
        opts.computeSkolem = true;
        HqsSolver solver(opts);
        if (solver.solve(f) != SolveResult::Sat) continue;
        ASSERT_TRUE(solver.skolemCertificate().has_value()) << entry.path();
        const std::string text = cert::toCertificateString(
            cert::extractCertificate(f, *solver.skolemCertificate()));
        cert::Certificate parsed;
        std::string detail;
        ASSERT_EQ(cert::parseCertificateString(text, parsed, detail),
                  cert::CheckStatus::Ok)
            << entry.path() << ": " << detail;
        const cert::CheckResult res = cert::checkCertificate(parsed);
        EXPECT_TRUE(res.ok()) << entry.path() << ": " << cert::toString(res.status)
                              << " (" << res.detail << ")";
        ++certified;
    }
    EXPECT_GE(certified, 1); // the sweep must not silently skip everything
}

// -------------------------------------------- portfolio disagreement judge

/// A certifying engine backed by the real solver: answers Sat and hands
/// back a genuine certificate.
PortfolioEngine honestCertifier(const char* name)
{
    return {name,
            [](const DqbfFormula& f, const Deadline& dl, std::string* certOut) {
                HqsOptions opts;
                opts.deadline = dl;
                opts.computeSkolem = true;
                HqsSolver solver(opts);
                const SolveResult r = solver.solve(f);
                if (r == SolveResult::Sat && solver.skolemCertificate() && certOut)
                    *certOut = cert::toCertificateString(
                        cert::extractCertificate(f, *solver.skolemCertificate()));
                return r;
            },
            ""};
}

TEST(PortfolioCertJudge, ValidCertificateVindicatesSatOverALyingUnsat)
{
    PortfolioOptions opts;
    opts.certify = true;
    opts.engines = {
        {"liar-unsat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Unsat; }, ""},
        honestCertifier("honest-sat"),
    };
    PortfolioSolver solver(opts);
    const DqbfFormula f = copycat();
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);

    const PortfolioStats& st = solver.stats();
    EXPECT_TRUE(st.disagreement); // the contradiction is still recorded
    EXPECT_EQ(st.winnerName, "honest-sat");
    EXPECT_FALSE(st.winnerCertificate.empty());
    EXPECT_EQ(st.failure.kind, FailureKind::Disagreement);
    EXPECT_EQ(st.failure.site, "portfolio.certcheck");
    EXPECT_NE(st.failure.what.find("vindicated honest-sat"), std::string::npos)
        << st.failure.what;
    for (const EngineRunStats& es : st.engines) {
        if (es.name == "honest-sat") {
            EXPECT_EQ(es.certCheck, "ok");
        }
    }
}

TEST(PortfolioCertJudge, RejectedCertificateVindicatesTheUnsatSide)
{
    PortfolioOptions opts;
    opts.certify = true;
    opts.engines = {
        {"honest-unsat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Unsat; }, ""},
        {"braggart-sat",
         [](const DqbfFormula&, const Deadline&, std::string* certOut) {
             if (certOut) *certOut = "dqbf-cert 1\nnot a real certificate\n";
             return SolveResult::Sat;
         }, ""},
    };
    PortfolioSolver solver(opts);
    // Use a formula the fake engines never look at; the judge only inspects
    // the certificates.
    const DqbfFormula f = copycat();
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);

    const PortfolioStats& st = solver.stats();
    EXPECT_TRUE(st.disagreement);
    EXPECT_EQ(st.winnerName, "honest-unsat");
    EXPECT_EQ(st.failure.kind, FailureKind::Disagreement);
    EXPECT_EQ(st.failure.site, "portfolio.certcheck");
    EXPECT_NE(st.failure.what.find("vindicated honest-unsat"), std::string::npos)
        << st.failure.what;
}

TEST(PortfolioCertJudge, NoCertificateKeepsTheOldUnknownBehavior)
{
    PortfolioOptions opts;
    opts.certify = true; // requested, but neither engine can produce one
    opts.engines = {
        {"says-sat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Sat; }, ""},
        {"says-unsat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Unsat; }, ""},
    };
    PortfolioSolver solver(opts);
    const DqbfFormula f = copycat();
    EXPECT_EQ(solver.solve(f), SolveResult::Unknown);
    EXPECT_TRUE(solver.stats().disagreement);
    EXPECT_TRUE(solver.stats().winnerName.empty());
}

} // namespace
} // namespace hqs
