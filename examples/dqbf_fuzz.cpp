// dqbf_fuzz: randomized differential testing of the solving engines.
//
//   dqbf_fuzz [count=200] [seed=1] [--verbose]
//
// For each round, generate a random small DQBF and require that HQS (in
// several configurations), the iDQ-style baseline, the CEGAR engine and the
// full-expansion oracle agree.  Every SAT answer from a certifying engine
// (hqs with Skolem recording, idq, cegar) must carry a certificate that the
// independent checker behind dqbf_check accepts: extract, serialize, then
// cert::checkCertificateText.  Exit code 0 iff no discrepancy was found.
// This is the same harness the unit tests use, packaged as a tool for long
// soak runs.
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <string>

#include "src/base/rng.hpp"
#include "src/cegar/cegar_solver.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/idq/idq_solver.hpp"

using namespace hqs;

namespace {

DqbfFormula randomDqbf(Rng& rng)
{
    DqbfFormula f;
    const unsigned nu = 2 + static_cast<unsigned>(rng.below(3));
    const unsigned ne = 2 + static_cast<unsigned>(rng.below(3));
    std::vector<Var> xs, all;
    for (unsigned i = 0; i < nu; ++i) xs.push_back(f.addUniversal());
    all = xs;
    for (unsigned i = 0; i < ne; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.flip()) deps.push_back(x);
        }
        all.push_back(f.addExistential(std::move(deps)));
    }
    const unsigned clauses = 4 + static_cast<unsigned>(rng.below(12));
    for (unsigned c = 0; c < clauses; ++c) {
        Clause cl;
        for (unsigned j = 0; j < 2 + rng.below(2); ++j) {
            cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        }
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

} // namespace

int main(int argc, char** argv)
{
    unsigned count = 200;
    std::uint64_t seed = 1;
    bool verbose = false;
    if (argc > 1 && std::string(argv[1]) != "--verbose") count = std::atoi(argv[1]);
    if (argc > 2 && std::string(argv[2]) != "--verbose") seed = std::atoll(argv[2]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--verbose") verbose = true;
    }

    Rng rng(seed);
    unsigned sat = 0, unsat = 0, certified = 0, failures = 0;
    for (unsigned round = 0; round < count; ++round) {
        DqbfFormula f = randomDqbf(rng);
        const SolveResult expected = expansionDqbf(f);
        if (!isConclusive(expected)) continue;
        (expected == SolveResult::Sat ? sat : unsat) += 1;

        auto check = [&](const char* name, SolveResult got) {
            if (got != expected) {
                std::printf("round %u: %s says %s, oracle says %s\n", round, name,
                            toString(got).c_str(), toString(expected).c_str());
                writeDqdimacs(std::cout, f.toParsed());
                ++failures;
            }
        };

        // A SAT verdict of a certifying engine must come with a certificate
        // the independent checker accepts.
        auto checkCertificate = [&](const char* name, const auto& solver) {
            if (expected != SolveResult::Sat) return;
            const bool ok = solver.skolemCertificate() &&
                            cert::checkCertificateText(
                                cert::toCertificateString(
                                    cert::extractCertificate(f, *solver.skolemCertificate())))
                                .ok();
            certified += ok;
            if (!ok) {
                std::printf("round %u: INVALID %s certificate\n", round, name);
                writeDqdimacs(std::cout, f.toParsed());
                ++failures;
            }
        };

        for (auto selection : {HqsOptions::Selection::MaxSat, HqsOptions::Selection::Greedy,
                               HqsOptions::Selection::All}) {
            HqsOptions opts;
            opts.selection = selection;
            HqsSolver solver(opts);
            check("hqs", solver.solve(f));
        }
        {
            HqsOptions opts;
            opts.computeSkolem = true;
            HqsSolver solver(opts);
            check("hqs+skolem", solver.solve(f));
            checkCertificate("hqs", solver);
        }
        {
            IdqSolver solver;
            check("idq", solver.solve(f));
            checkCertificate("idq", solver);
        }
        {
            CegarOptions opts;
            opts.computeSkolem = true;
            CegarSolver solver(opts);
            check("cegar", solver.solve(f));
            checkCertificate("cegar", solver);
        }
        if (verbose && round % 50 == 0) {
            std::printf("round %u: %u sat / %u unsat so far\n", round, sat, unsat);
        }
    }
    std::printf("fuzzed %u rounds (%u SAT, %u UNSAT, %u certificates checked): %u failures\n",
                count, sat, unsat, certified, failures);
    return failures == 0 ? 0 : 1;
}
