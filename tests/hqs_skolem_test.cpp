// Tests for Skolem reconstruction from the HQS elimination trace: the
// solver with computeSkolem must produce certificates that verify, across
// random DQBFs, all preprocessing/optimization configurations, and the PEC
// families (where the certificate doubles as synthesized black boxes).
#include <gtest/gtest.h>

#include "src/base/rng.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/pec/box_synthesis.hpp"
#include "src/pec/pec_encoder.hpp"
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

TEST(HqsSkolem, CopycatCertificateIsIdentity)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});

    HqsOptions opts;
    opts.computeSkolem = true;
    HqsSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    const auto& cert = *solver.skolemCertificate();
    EXPECT_TRUE(certifiesThroughProduction(f, cert));
    // s_y must be the identity on x.
    EXPECT_EQ(cert.toTable(y, {x}), (std::vector<bool>{false, true}));
}

TEST(HqsSkolem, NoCertificateOnUnsat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    HqsOptions opts;
    opts.computeSkolem = true;
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    EXPECT_FALSE(solver.skolemCertificate().has_value());
}

TEST(HqsSkolem, NoCertificateWhenNotRequested)
{
    DqbfFormula f;
    f.addExistential({});
    HqsSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_FALSE(solver.skolemCertificate().has_value());
}

TEST(HqsSkolem, CrossDependencyCertificate)
{
    // The genuinely non-linear instance: y1(x2) == x2, y2(x1) == x1.
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x2});
    const Var y2 = f.addExistential({x1});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y2)});

    HqsOptions opts;
    opts.computeSkolem = true;
    HqsSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
}

struct SkolemConfig {
    const char* name;
    bool preprocess;
    bool unitPure;
    HqsOptions::Selection selection;
};

class HqsSkolemSweep : public ::testing::TestWithParam<int> {};

TEST_P(HqsSkolemSweep, CertificatesVerifyUnderAllConfigurations)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 2713 + 5);
    const unsigned nu = 2 + static_cast<unsigned>(rng.below(3));
    const unsigned ne = 2 + static_cast<unsigned>(rng.below(3));
    DqbfFormula f = randomDqbf(rng, nu, ne, 4 + static_cast<unsigned>(rng.below(10)));
    const SolveResult expected = expansionDqbf(f);
    ASSERT_TRUE(isConclusive(expected));

    const SkolemConfig configs[] = {
        {"default", true, true, HqsOptions::Selection::MaxSat},
        {"no-preprocess", false, true, HqsOptions::Selection::MaxSat},
        {"no-unitpure", true, false, HqsOptions::Selection::MaxSat},
        {"bare", false, false, HqsOptions::Selection::MaxSat},
        {"eliminate-all", true, true, HqsOptions::Selection::All},
    };
    for (const SkolemConfig& cfg : configs) {
        HqsOptions opts;
        opts.computeSkolem = true;
        opts.preprocess = cfg.preprocess;
        opts.gateDetection = cfg.preprocess;
        opts.unitPure = cfg.unitPure;
        opts.selection = cfg.selection;
        HqsSolver solver(opts);
        ASSERT_EQ(solver.solve(f), expected) << cfg.name;
        if (expected == SolveResult::Sat) {
            ASSERT_TRUE(solver.skolemCertificate().has_value()) << cfg.name;
            EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()))
                << cfg.name;
        } else {
            EXPECT_FALSE(solver.skolemCertificate().has_value()) << cfg.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HqsSkolemSweep, ::testing::Range(0, 60));

/// End-to-end: HQS certificates synthesize working black boxes for every
/// family.
class HqsSkolemFamilies : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(HqsSkolemFamilies, CertificatesSynthesizeBoxes)
{
    const Family fam = allFamilies()[static_cast<std::size_t>(std::get<0>(GetParam()))];
    const unsigned width = std::get<1>(GetParam());
    const PecInstance inst = makeInstance(fam, width, true);
    PecEncoding enc = encodePec(inst);

    HqsOptions opts;
    opts.computeSkolem = true;
    opts.deadline = Deadline::in(60);
    HqsSolver solver(opts);
    const SolveResult r = solver.solve(enc.formula);
    ASSERT_EQ(r, SolveResult::Sat) << inst.name;
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    const AigSkolemCertificate& cert = *solver.skolemCertificate();
    EXPECT_TRUE(certifiesThroughProduction(enc.formula, cert)) << inst.name;

    // Convert the box-output functions to tables and run the completed
    // implementation against the spec.
    const SynthesizedBoxes boxes = boxesFromSkolem(enc, cert);
    if (inst.spec.inputs().size() <= 14) {
        EXPECT_TRUE(boxesRealizeSpec(inst, boxes)) << inst.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HqsSkolemFamilies,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(3u, 4u)));

} // namespace
} // namespace hqs
