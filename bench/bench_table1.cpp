// Reproduction of Table I: per benchmark family, the number of instances,
// solved (split SAT/UNSAT), unsolved (split timeout/memout), and the total
// running time on the instances solved by BOTH solvers — for HQS and for
// the iDQ-style instantiation baseline.  Also prints the paper's Section IV
// aggregates: the fraction of solved instances decided in < 1 s, the
// maximum MaxSAT selection time, and the unit/pure share of runtime.
//
// Scaled-down regime (see bench_common.hpp): the absolute numbers shrink,
// but the shape of Table I — HQS solving a strict superset of the baseline
// and being orders of magnitude faster on commonly solved instances —
// reproduces.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "bench/bench_common.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/runtime/execute.hpp"

using namespace hqs;
using namespace hqs::bench;

namespace {

struct FamilyRow {
    int instances = 0;
    int hqsSat = 0, hqsUnsat = 0, hqsTimeout = 0, hqsMemout = 0;
    int idqSat = 0, idqUnsat = 0, idqTimeout = 0, idqMemout = 0;
    double hqsCommonMs = 0, idqCommonMs = 0; // time on commonly solved
    int wrongResults = 0;
};

obs::BenchFamilyRow toReportRow(const std::string& family, const FamilyRow& row)
{
    obs::BenchFamilyRow out;
    out.family = family;
    out.instances = row.instances;
    out.hqs = {row.hqsSat, row.hqsUnsat, row.hqsTimeout, row.hqsMemout, row.hqsCommonMs};
    out.idq = {row.idqSat, row.idqUnsat, row.idqTimeout, row.idqMemout, row.idqCommonMs};
    out.wrongResults = row.wrongResults;
    return out;
}

/// Re-solve one HQS-SAT instance with Skolem recording on, extract its
/// certificate, and run it through the independent parser/checker.  Fills
/// the v2 per-instance certification cells of @p inst.
void certifyInstance(const InstanceSpec& spec, const SuiteParams& params,
                     obs::BenchInstanceRow& inst)
{
    PecEncoding enc = encodePec(makeInstance(spec.family, spec.width, spec.realizable));
    const DqbfFormula formula = std::move(enc.formula);
    HqsOptions opts;
    opts.deadline = Deadline::in(params.timeoutSeconds);
    opts.nodeLimit = params.hqsNodeLimit;
    opts.computeSkolem = true;
    HqsSolver solver(opts);
    Timer extract;
    if (solver.solve(formula) != SolveResult::Sat || !solver.skolemCertificate()) return;
    const std::string text = cert::toCertificateString(
        cert::extractCertificate(formula, *solver.skolemCertificate()));
    inst.certified = true;
    inst.certExtractMs = extract.elapsedMilliseconds();

    const cert::CheckResult check =
        cert::checkCertificateText(text, Deadline::in(params.timeoutSeconds));
    inst.certValid = check.ok();
    inst.certCheckMs = check.checkMs;
    inst.certSizeNodes = check.sizeNodes;
}

/// v3 per-engine-family portfolio columns: race the default strategy lineup
/// on @p spec and tally which family's racer decided the race (wins) and
/// which families reached a conclusive verdict before cancellation (solved).
///
/// The race runs in the degradation regime — a node budget two orders of
/// magnitude below the suite's memout proxy — because at the full budget
/// the race is a foregone conclusion (elimination wins every instance it
/// solves, which the Table I columns already report).  Under pressure the
/// families complement: elimination keeps the instances whose cone fits
/// the reduced budget, and the decision-list CEGAR engine takes over where
/// elimination memouts but the learned lists stay small (e.g. wide adder
/// instances).
void raceFamilies(const InstanceSpec& spec, const SuiteParams& params,
                  obs::BenchInstanceRow& inst, std::map<std::string, int>& familySolved,
                  std::map<std::string, int>& familyWins)
{
    const std::size_t pressureLimit = std::max<std::size_t>(256, params.hqsNodeLimit / 128);
    PecEncoding enc = encodePec(makeInstance(spec.family, spec.width, spec.realizable));
    api::SolveRequest request;
    request.engine = "portfolio";
    request.nodeLimit = pressureLimit;
    const api::ExecuteOutcome run =
        api::execute(request, enc.formula, Deadline::in(params.timeoutSeconds));
    const PortfolioStats& st = std::get<PortfolioStats>(run.stats);
    if (!st.winnerFamily.empty()) {
        inst.portfolioWinnerFamily = st.winnerFamily;
        ++familyWins[st.winnerFamily];
    }
    std::set<std::string> solved;
    for (const EngineRunStats& es : st.engines)
        if (isConclusive(es.result)) solved.insert(es.family);
    for (const std::string& f : solved) ++familySolved[f];
}

} // namespace

int main(int argc, char** argv)
{
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            jsonPath = arg.substr(7);
        } else {
            std::fprintf(stderr, "usage: bench_table1 [--json=FILE]\n");
            return 1;
        }
    }

    const SuiteParams params = suiteParamsFromEnv();
    std::printf("Table I reproduction — PEC instances, per-instance limits: %.1f s / %zu "
                "AIG-node (HQS) / %zu ground-clause (iDQ) budgets\n\n",
                params.timeoutSeconds, params.hqsNodeLimit, params.idqGroundClauseLimit);

    std::map<Family, FamilyRow> rows;
    std::map<std::string, int> familySolved, familyWins;
    int solvedUnderOneSecond = 0, hqsSolvedTotal = 0;
    int idqSolvedTotal = 0, hqsOnlySolved = 0;
    double maxMaxSatMs = 0;
    double unitPureShareMax = 0;
    obs::BenchTable1Report report;

    for (const InstanceSpec& spec : buildSuite(params)) {
        const RunResult r = runInstance(spec, params);
        FamilyRow& row = rows[r.family];
        ++row.instances;

        // v2 per-instance certification cells: each SAT verdict is re-solved
        // with Skolem recording and its certificate independently checked.
        // Only paid when the machine-readable report was asked for.
        if (!jsonPath.empty()) {
            obs::BenchInstanceRow inst;
            inst.name = r.name;
            inst.family = toString(r.family);
            inst.hqsResult = toString(r.hqs);
            if (r.hqs == SolveResult::Sat) certifyInstance(spec, params, inst);
            // v3 engine-family columns: every instance is additionally raced
            // across the default portfolio lineup.
            raceFamilies(spec, params, inst, familySolved, familyWins);
            report.instances.push_back(inst);
        }

        const bool hqsSolved = isConclusive(r.hqs);
        const bool idqSolved = isConclusive(r.idq);
        if (hqsSolved) {
            ++hqsSolvedTotal;
            if (r.hqsMs < 1000.0) ++solvedUnderOneSecond;
            (r.hqs == SolveResult::Sat ? row.hqsSat : row.hqsUnsat) += 1;
            if ((r.hqs == SolveResult::Sat) != r.expectedSat) ++row.wrongResults;
        } else {
            (r.hqs == SolveResult::Memout ? row.hqsMemout : row.hqsTimeout) += 1;
        }
        if (idqSolved) {
            ++idqSolvedTotal;
            (r.idq == SolveResult::Sat ? row.idqSat : row.idqUnsat) += 1;
            if ((r.idq == SolveResult::Sat) != r.expectedSat) ++row.wrongResults;
        } else {
            (r.idq == SolveResult::Memout ? row.idqMemout : row.idqTimeout) += 1;
        }
        if (hqsSolved && !idqSolved) ++hqsOnlySolved;
        if (hqsSolved && idqSolved) {
            row.hqsCommonMs += r.hqsMs;
            row.idqCommonMs += r.idqMs;
        }
        maxMaxSatMs = std::max(maxMaxSatMs, r.hqsStats.maxsatMilliseconds);
        if (r.hqsMs > 0) {
            unitPureShareMax =
                std::max(unitPureShareMax, r.hqsStats.unitPureMilliseconds / r.hqsMs);
        }
    }

    std::printf("%-10s %5s | %6s %12s %9s %9s %12s | %6s %12s %9s %9s %12s\n", "family",
                "#inst", "HQS", "(SAT/UNSAT)", "unsolved", "(TO/MO)", "time[ms]", "iDQ",
                "(SAT/UNSAT)", "unsolved", "(TO/MO)", "time[ms]");
    std::printf("%.*s\n", 132,
                "-----------------------------------------------------------------------------"
                "-------------------------------------------------------");
    FamilyRow total;
    int wrongTotal = 0;
    for (Family fam : allFamilies()) {
        const FamilyRow& row = rows[fam];
        report.families.push_back(toReportRow(toString(fam), row));
        const int hqsSolved = row.hqsSat + row.hqsUnsat;
        const int idqSolved = row.idqSat + row.idqUnsat;
        std::printf("%-10s %5d | %6d  (%3d/%4d) %9d  (%3d/%3d) %12.1f | %6d  (%3d/%4d) %9d  "
                    "(%3d/%3d) %12.1f\n",
                    toString(fam).c_str(), row.instances, hqsSolved, row.hqsSat, row.hqsUnsat,
                    row.hqsTimeout + row.hqsMemout, row.hqsTimeout, row.hqsMemout,
                    row.hqsCommonMs, idqSolved, row.idqSat, row.idqUnsat,
                    row.idqTimeout + row.idqMemout, row.idqTimeout, row.idqMemout,
                    row.idqCommonMs);
        total.instances += row.instances;
        total.hqsSat += row.hqsSat;
        total.hqsUnsat += row.hqsUnsat;
        total.hqsTimeout += row.hqsTimeout;
        total.hqsMemout += row.hqsMemout;
        total.idqSat += row.idqSat;
        total.idqUnsat += row.idqUnsat;
        total.idqTimeout += row.idqTimeout;
        total.idqMemout += row.idqMemout;
        total.hqsCommonMs += row.hqsCommonMs;
        total.idqCommonMs += row.idqCommonMs;
        wrongTotal += row.wrongResults;
    }
    std::printf("%-10s %5d | %6d  (%3d/%4d) %9d  (%3d/%3d) %12.1f | %6d  (%3d/%4d) %9d  "
                "(%3d/%3d) %12.1f\n",
                "total", total.instances, total.hqsSat + total.hqsUnsat, total.hqsSat,
                total.hqsUnsat, total.hqsTimeout + total.hqsMemout, total.hqsTimeout,
                total.hqsMemout, total.hqsCommonMs, total.idqSat + total.idqUnsat,
                total.idqSat, total.idqUnsat, total.idqTimeout + total.idqMemout,
                total.idqTimeout, total.idqMemout, total.idqCommonMs);

    std::printf("\nSection IV aggregates:\n");
    if (hqsSolvedTotal > 0) {
        std::printf("  HQS solved within 1 s            : %d of %d solved (%.0f%%; paper: 90%%)\n",
                    solvedUnderOneSecond, hqsSolvedTotal,
                    100.0 * solvedUnderOneSecond / hqsSolvedTotal);
    }
    std::printf("  instances solved only by HQS     : %d (iDQ solved %d, HQS %d)\n",
                hqsOnlySolved, idqSolvedTotal, hqsSolvedTotal);
    std::printf("  max MaxSAT selection time        : %.2f ms (paper: < 60 ms)\n", maxMaxSatMs);
    std::printf("  max unit/pure share of runtime   : %.1f%% (paper: < 4%%)\n",
                100.0 * unitPureShareMax);
    std::printf("  results contradicting ground truth: %d (must be 0)\n", wrongTotal);

    if (!jsonPath.empty()) {
        std::printf("  portfolio race by engine family  :");
        for (const auto& [family, n] : familyWins)
            std::printf(" %s %d/%d", family.c_str(), n,
                        familySolved.count(family) ? familySolved.at(family) : 0);
        std::printf(" (wins/solved)\n");
        report.familySolved.assign(familySolved.begin(), familySolved.end());
        report.familyWins.assign(familyWins.begin(), familyWins.end());
        total.wrongResults = wrongTotal;
        report.families.push_back(toReportRow("total", total));
        report.timeoutSeconds = params.timeoutSeconds;
        report.hqsNodeLimit = params.hqsNodeLimit;
        report.idqGroundClauseLimit = params.idqGroundClauseLimit;
        report.hqsSolvedTotal = hqsSolvedTotal;
        report.idqSolvedTotal = idqSolvedTotal;
        report.solvedUnderOneSecond = solvedUnderOneSecond;
        report.hqsOnlySolved = hqsOnlySolved;
        report.maxMaxSatMs = maxMaxSatMs;
        report.unitPureShareMax = unitPureShareMax;
        report.wrongResults = wrongTotal;
        report.metrics = obs::globalRegistry().snapshot();
        int certified = 0, certValid = 0;
        for (const obs::BenchInstanceRow& inst : report.instances) {
            certified += inst.certified ? 1 : 0;
            certValid += inst.certValid ? 1 : 0;
        }
        std::printf("  Skolem certificates              : %d extracted, %d checked valid\n",
                    certified, certValid);
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        obs::writeBenchTable1Json(out, report);
        std::printf("\nwrote %s\n", jsonPath.c_str());
    }
    return wrongTotal == 0 ? 0 : 1;
}
