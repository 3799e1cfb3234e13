// dqbf_batch: solve a directory (or explicit list) of DQDIMACS and DQCIR
// instances in parallel and stream structured results.  Circuit instances
// (*.dqcir) lower through the Tseitin front end at solve time and never
// touch --cache-dir (cache.bypass.format).
//
//   dqbf_batch [options] <dir | file.dqdimacs | file.dqcir ...>
//   dqbf_batch --resume=out.jsonl [options] [dir | file ...]
//
// Options:
//   --workers=N           worker threads (default: hardware concurrency)
//   --timeout=SECONDS     per-job wall-clock budget (default: none)
//   --node-limit=N        per-job AIG-node budget, the 8 GB memout stand-in
//   --rss-limit=MB        cooperative memout when process RSS crosses MB
//   --portfolio[=N]       race the first N default engines per instance
//   --certify             extract a Skolem certificate for every SAT verdict
//                         and self-check it through the independent checker;
//                         the outcome lands in the row's "certificate" block
//   --no-retry            disable the degradation ladder (single attempt)
//   --no-dedup            solve canonically identical instances separately
//                         instead of once (default: the first occurrence is
//                         solved and later duplicates copy its row, with a
//                         "dedup_of" field naming the representative)
//   --session-group       solve delta families (same filename stem up to the
//                         last '_', identical prefix) through one shared
//                         solve session: the clause-multiset intersection is
//                         opened once and each instance solves as an
//                         add/solve/retract delta, reusing untouched
//                         connected components; rows carry a "session"
//                         block with the reuse accounting
//   --strategy=FILE       solve under a strategy spec (JSON): engine lineup,
//                         degradation ladder, and cache policy come from the
//                         spec (see README "Result cache & strategy specs")
//   --cache-dir=DIR       consult/update a persistent result cache in DIR;
//                         rows answered from it carry "cached":true and
//                         rung "cache"
//   --jsonl=FILE          stream one JSON object per result to FILE
//                         (default: stdout, prefixed lines suppressed)
//   --resume=FILE         treat FILE as the journal of an earlier run:
//                         skip instances it records as conclusive, re-queue
//                         everything else, and append new results to FILE.
//                         Without explicit inputs the instance list is taken
//                         from the journal itself.
//
// JSONL schema per line:
//   {"instance": str, "result": "SAT|UNSAT|TIMEOUT|MEMOUT|UNKNOWN",
//    "wall_ms": num, "engine": str, "attempts": int, "degraded": bool,
//    "rung"?: str, "failure"?: {"kind": str, "site": str, "what": str},
//    "error"?: str,
//    "metrics"?: {"preprocess_ms": num, "elim_ms": num, "qbf_ms": num,
//                 "fraig_ms": num, "peak_aig_nodes": int,
//                 "eliminations": int, "copies": int},
//    "certificate"?: {"valid": bool, "status": str, "extract_ms": num,
//                     "check_ms": num, "size_nodes": int},
//    "families"?: {"winner": str, "raced": {family: best_result, ...}}}
// The "metrics" block comes from the per-job metrics-registry scope
// (src/obs/); it survives the JSONL round-trip, so --resume keeps the
// fields recorded for already-conclusive instances.  The "certificate"
// block appears for SAT verdicts under --certify; on a portfolio
// disagreement the "failure" block's site is "portfolio.certcheck" and its
// what-text names the engine the checker vindicated.  The "families" block
// records the engine-family accounting of a portfolio race (which family's
// racer won, and the best result each family reached).
//
// Exit code: 0 when every instance was definitively decided, 1 otherwise.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/cache/result_cache.hpp"
#include "src/runtime/api.hpp"
#include "src/runtime/cache_plan.hpp"
#include "src/runtime/batch.hpp"
#include "src/strategy/spec.hpp"

using namespace hqs;

namespace {

int usage()
{
    std::cerr << "usage: dqbf_batch [--workers=N] [--timeout=SECONDS] "
                 "[--node-limit=N] [--rss-limit=MB] [--portfolio[=N]] "
                 "[--certify] [--no-retry] [--no-dedup] [--session-group] "
                 "[--strategy=FILE] "
                 "[--cache-dir=DIR] [--jsonl=FILE] [--resume=FILE] "
                 "<dir | file.dqdimacs | file.dqcir ...>\n";
    return 1;
}

} // namespace

int main(int argc, char** argv)
{
    BatchOptions opts;
    // Budgets funnel through the shared SolveRequest so a nan/negative
    // timeout is rejected by the same validate() every entry point uses.
    api::SolveRequest request;
    std::string jsonlPath;
    std::string resumePath;
    std::string strategyPath;
    std::string cacheDir;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--workers=", 0) == 0) {
            if (!api::parseSize(arg.substr(10), &opts.numWorkers)) return usage();
        } else if (arg.rfind("--timeout=", 0) == 0) {
            if (!api::parseSeconds(arg.substr(10), &request.timeoutSeconds)) return usage();
        } else if (arg.rfind("--node-limit=", 0) == 0) {
            if (!api::parseSize(arg.substr(13), &request.nodeLimit)) return usage();
        } else if (arg.rfind("--rss-limit=", 0) == 0) {
            if (!api::parseMegabytes(arg.substr(12), &request.rssLimitBytes)) return usage();
        } else if (arg == "--portfolio") {
            request.engine = "portfolio";
        } else if (arg.rfind("--portfolio=", 0) == 0) {
            request.engine = "portfolio:" + arg.substr(12);
        } else if (arg == "--certify") {
            request.certify = true;
        } else if (arg == "--no-retry") {
            opts.ladder.resize(1);
        } else if (arg == "--no-dedup") {
            opts.dedup = false;
        } else if (arg == "--session-group") {
            opts.sessionGroup = true;
        } else if (arg.rfind("--strategy=", 0) == 0) {
            strategyPath = arg.substr(11);
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cacheDir = arg.substr(12);
        } else if (arg.rfind("--jsonl=", 0) == 0) {
            jsonlPath = arg.substr(8);
        } else if (arg.rfind("--resume=", 0) == 0) {
            resumePath = arg.substr(9);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty() && resumePath.empty()) return usage();
    if (const std::string err = request.firstError(); !err.empty()) {
        std::cerr << "dqbf_batch: invalid request: " << err << "\n";
        return usage();
    }
    opts.jobTimeoutSeconds = request.timeoutSeconds;
    opts.nodeLimit = request.nodeLimit;
    opts.rssLimitBytes = request.rssLimitBytes;
    opts.certify = request.certify;
    opts.engine = *request.parsedEngine();
    if (!strategyPath.empty()) {
        strategy::StrategySpec spec;
        std::vector<strategy::SpecError> errors;
        if (!strategy::loadStrategySpecFile(strategyPath, &spec, &errors)) {
            std::cerr << "dqbf_batch: invalid strategy spec " << strategyPath
                      << ":\n" << strategy::toString(errors);
            return 1;
        }
        opts.strategy = spec;
    }
    if (!cacheDir.empty())
        opts.resultCache = std::make_shared<cache::ResultCache>(
            api::cacheConfig(cacheDir, opts.strategy ? &*opts.strategy : nullptr));

    // The journal of the interrupted run: its conclusive verdicts stand,
    // everything else (crashed, cancelled, timed out, never started) is
    // re-queued.
    std::vector<BatchJobResult> journal;
    std::unordered_set<std::string> alreadyDone;
    if (!resumePath.empty()) {
        std::ifstream in(resumePath);
        if (!in) {
            std::cerr << "dqbf_batch: cannot read resume journal " << resumePath << "\n";
            return 1;
        }
        journal = readJournal(in);
        alreadyDone = conclusiveInstances(journal);
    }

    // A single directory argument expands to its *.dqdimacs and *.dqcir
    // files; with --resume and no inputs, the journal supplies the list.
    std::vector<std::string> files;
    if (inputs.empty()) {
        for (const BatchJobResult& r : journal) files.push_back(r.instance);
        std::sort(files.begin(), files.end());
    } else if (inputs.size() == 1 && !inputs[0].ends_with(".dqdimacs") &&
               !inputs[0].ends_with(".dqcir")) {
        try {
            files = BatchScheduler::collectInstances(inputs[0]);
        } catch (const std::exception& e) {
            std::cerr << "dqbf_batch: " << e.what() << "\n";
            return 1;
        }
        if (files.empty()) {
            std::cerr << "dqbf_batch: no .dqdimacs or .dqcir files in " << inputs[0]
                      << "\n";
            return 1;
        }
    } else {
        files = inputs;
    }

    std::vector<std::string> toRun;
    for (const std::string& f : files)
        if (!alreadyDone.contains(f)) toRun.push_back(f);

    std::ofstream jsonlFile;
    std::ostream* jsonl = &std::cout;
    if (!resumePath.empty() && jsonlPath.empty()) jsonlPath = resumePath;
    if (!jsonlPath.empty()) {
        // Appending keeps the journal's history; readJournal takes the last
        // entry per instance, so re-runs supersede their old records.
        // Unbuffered + O_APPEND ("app") makes each row exactly one write(2)
        // of a pre-formatted line (see toJsonlLine), so a kill can truncate
        // only the final row and a concurrent writer can never interleave
        // bytes inside a row.
        jsonlFile.rdbuf()->pubsetbuf(nullptr, 0);
        const auto mode = (jsonlPath == resumePath) ? std::ios::app : std::ios::out;
        jsonlFile.open(jsonlPath, mode);
        if (!jsonlFile) {
            std::cerr << "dqbf_batch: cannot open " << jsonlPath << "\n";
            return 1;
        }
        jsonl = &jsonlFile;
    }

    BatchScheduler scheduler(opts);
    const std::vector<BatchJobResult> fresh = scheduler.run(toRun, jsonl);

    // Final tally: carried-over conclusive verdicts plus this run's results.
    std::size_t sat = 0, unsat = 0, other = 0, carried = 0;
    auto tally = [&](const BatchJobResult& r) {
        if (r.result == SolveResult::Sat) ++sat;
        else if (r.result == SolveResult::Unsat) ++unsat;
        else ++other;
    };
    for (const std::string& f : files) {
        if (!alreadyDone.contains(f)) continue;
        for (const BatchJobResult& r : journal) {
            if (r.instance == f) {
                tally(r);
                ++carried;
                break;
            }
        }
    }
    for (const BatchJobResult& r : fresh) tally(r);

    if (!jsonlPath.empty()) {
        std::cout << "c " << (carried + fresh.size()) << " instances: " << sat << " SAT, "
                  << unsat << " UNSAT, " << other << " unresolved";
        if (carried != 0) std::cout << " (" << carried << " carried from journal)";
        std::cout << "\n";
        for (const RungStats& rs : scheduler.rungStats()) {
            if (rs.attempts == 0) continue;
            std::cout << "c rung " << rs.name << ": " << rs.attempts << " attempts, "
                      << rs.conclusive << " conclusive, " << rs.memouts << " memouts, "
                      << rs.failures << " failures\n";
        }
    }
    return other == 0 ? 0 : 1;
}
