// dqbf_solve: command-line DQBF/QBF solver over DQDIMACS and DQCIR files.
//
//   dqbf_solve [options] <file.dqdimacs|file.dqcir>
//   dqbf_solve [options] -            (read from stdin)
//
// Options:
//   --solver=hqs|hqs-bdd|idq|expand|cegar
//                         solving engine (default hqs); `hqs-bdd` swaps in
//                         the BDD QBF backend, `expand` decides by one SAT
//                         call on the full universal expansion, `cegar`
//                         learns per-existential decision lists against a
//                         counterexample oracle
//   --format=dqdimacs|dqcir
//                         input format (default: content-sniffed — a
//                         '#QCIR' header line means DQCIR).  Circuit input
//                         lowers through the Tseitin front end and never
//                         touches --cache-dir (cache.bypass.format)
//   --portfolio[=N]       race the first N default engine configurations
//                         (all 5 when N is omitted) and answer with the
//                         first definitive result, cancelling the losers
//   --timeout=<seconds>   wall-clock limit (default: none)
//   --no-preprocess       disable CNF preprocessing
//   --no-unitpure         disable Theorem-6 unit/pure detection
//   --selection=maxsat|greedy|all
//                         universal-selection strategy (default maxsat)
//   --skolem              on SAT, compute Skolem functions, round-trip them
//                         through the certification subsystem (extract ->
//                         serialize -> independent check), and summarize
//                         them (hqs and cegar engines only)
//   --skolem=FILE         additionally dump the reconstructed functions as
//                         ASCII AIGER (aag) to FILE
//   --certify=FILE        write a self-contained certificate artifact to
//                         FILE on SAT (hqs, cegar and portfolio engines); the
//                         artifact is self-checked through the independent
//                         parser+checker before it is reported
//   --rss-limit=MB        guard the run with an RSS watchdog: cooperative
//                         MEMOUT when process RSS crosses MB
//   --strategy=FILE       solve under a strategy spec (JSON): --portfolio
//                         races the spec's engine lineup, and the spec's
//                         cache policy governs --cache-dir (see README
//                         "Result cache & strategy specs")
//   --cache-dir=DIR       consult/update a persistent result cache in DIR;
//                         a hit answers without solving (`c cache : hit`)
//   --cache-control=on|off|bypass
//                         per-run cache override: `off` skips the cache,
//                         `bypass` solves fresh but refreshes the entry
//   --stats               print solver statistics, including machine-readable
//                         `c stat <name> <value>` lines from the metrics
//                         registry (DIMACS-comment-safe)
//   --trace=FILE          record span traces of the solve and write them as
//                         Chrome trace_event JSON (open in Perfetto or
//                         chrome://tracing)
//
// Every engine call runs under the guard layer: an engine crash (or an
// injected HQS_FAULT) prints a structured `c failure` line and exits 1
// instead of terminating on an unhandled exception.
//
// Exit code: 10 = SAT, 20 = UNSAT (SAT-competition convention), 1 = other.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/aig/aiger.hpp"
#include "src/cache/result_cache.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/cert/certificate.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/report.hpp"
#include "src/runtime/cache_plan.hpp"
#include "src/runtime/execute.hpp"
#include "src/strategy/spec.hpp"

using namespace hqs;

namespace {

int usage()
{
    std::cerr << "usage: dqbf_solve [--solver=hqs|hqs-bdd|idq|expand|cegar] "
                 "[--portfolio[=N]] [--format=dqdimacs|dqcir] "
                 "[--timeout=SECONDS] [--rss-limit=MB] [--no-preprocess] "
                 "[--no-unitpure] [--selection=maxsat|greedy|all] "
                 "[--skolem[=FILE]] [--certify=FILE] [--strategy=FILE] "
                 "[--cache-dir=DIR] [--cache-control=on|off|bypass] "
                 "[--stats] [--trace=FILE] <file.dqdimacs|file.dqcir|->\n";
    return 1;
}

} // namespace

int main(int argc, char** argv)
{
    // All budgets and the engine selector accumulate into the shared
    // SolveRequest; flag values that fail the syntax parsers are usage
    // errors, semantic violations (nan timeout, unknown engine) are caught
    // by the single validate() below.
    api::SolveRequest request;
    std::string tracePath;
    std::string skolemPath;
    std::string certifyPath;
    std::string strategyPath;
    std::string cacheDir;
    bool skolem = false;
    HqsOptions opts; ///< HQS tuning handed to api::execute

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--solver=", 0) == 0) {
            request.engine = arg.substr(9);
        } else if (arg == "--portfolio") {
            request.engine = "portfolio";
        } else if (arg.rfind("--portfolio=", 0) == 0) {
            request.engine = "portfolio:" + arg.substr(12);
        } else if (arg.rfind("--timeout=", 0) == 0) {
            if (!api::parseSeconds(arg.substr(10), &request.timeoutSeconds)) return usage();
        } else if (arg.rfind("--rss-limit=", 0) == 0) {
            if (!api::parseMegabytes(arg.substr(12), &request.rssLimitBytes)) return usage();
        } else if (arg == "--no-preprocess") {
            opts.preprocess = false;
            opts.gateDetection = false;
        } else if (arg == "--no-unitpure") {
            opts.unitPure = false;
        } else if (arg.rfind("--selection=", 0) == 0) {
            const std::string s = arg.substr(12);
            if (s == "maxsat") {
                opts.selection = HqsOptions::Selection::MaxSat;
            } else if (s == "greedy") {
                opts.selection = HqsOptions::Selection::Greedy;
            } else if (s == "all") {
                opts.selection = HqsOptions::Selection::All;
            } else {
                return usage();
            }
        } else if (arg == "--skolem") {
            skolem = true;
        } else if (arg.rfind("--skolem=", 0) == 0) {
            skolemPath = arg.substr(9);
            if (skolemPath.empty()) return usage();
            skolem = true;
        } else if (arg.rfind("--certify=", 0) == 0) {
            certifyPath = arg.substr(10);
            if (certifyPath.empty()) return usage();
            request.certify = true;
        } else if (arg.rfind("--strategy=", 0) == 0) {
            strategyPath = arg.substr(11);
            if (strategyPath.empty()) return usage();
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cacheDir = arg.substr(12);
            if (cacheDir.empty()) return usage();
        } else if (arg.rfind("--cache-control=", 0) == 0) {
            request.cacheControl = arg.substr(16);
        } else if (arg.rfind("--format=", 0) == 0) {
            request.format = arg.substr(9);
        } else if (arg == "--stats") {
            request.stats = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            tracePath = arg.substr(8);
            if (tracePath.empty()) return usage();
            request.trace = true;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            return usage();
        } else {
            request.source = arg;
        }
    }
    if (request.source.empty()) return usage();
    if (const std::string err = request.firstError(); !err.empty()) {
        std::cerr << "dqbf_solve: invalid request: " << err << "\n";
        return usage();
    }
    const api::EngineSpec spec = *request.parsedEngine();
    const bool wantStats = request.stats;
    const std::string& path = request.source;

    std::optional<strategy::StrategySpec> strategySpec;
    if (!strategyPath.empty()) {
        strategy::StrategySpec loaded;
        std::vector<strategy::SpecError> errors;
        if (!strategy::loadStrategySpecFile(strategyPath, &loaded, &errors)) {
            std::cerr << "dqbf_solve: invalid strategy spec " << strategyPath
                      << ":\n" << strategy::toString(errors);
            return 1;
        }
        strategySpec = std::move(loaded);
    }
    std::shared_ptr<cache::ResultCache> rcache;
    if (!cacheDir.empty())
        rcache = std::make_shared<cache::ResultCache>(
            api::cacheConfig(cacheDir, strategySpec ? &*strategySpec : nullptr));

    DqbfFormula formula;
    api::CachePlan cachePlan;
    try {
        std::string text;
        if (path == "-") {
            std::stringstream ss;
            ss << std::cin.rdbuf();
            text = ss.str();
        } else {
            std::ifstream in(path);
            if (!in) throw ParseError("cannot open file: " + path);
            std::stringstream ss;
            ss << in.rdbuf();
            text = ss.str();
        }
        const bool dqcir = isCircuitInput(request.format, text);
        cachePlan = api::planCache(rcache.get(), strategySpec ? &*strategySpec : nullptr,
                                   request.cacheControl, dqcir);
        if (cachePlan.circuitBypassed)
            std::cout << "c cache               : bypassed (circuit input)\n";
        const ParsedQdimacs parsed = dqcir ? lowerDqcir(parseDqcirString(text))
                                           : parseDqdimacsString(text);
        cachePlan.keyBy(parsed);
        formula = DqbfFormula::fromParsed(parsed);
    } catch (...) {
        // Not only ParseError: an injected parse-site fault (HQS_FAULT=parse)
        // must produce the same structured report, not std::terminate.
        const FailureInfo f = classifyException(std::current_exception());
        std::cerr << "parse failed: kind=" << toString(f.kind) << " what=\"" << f.what
                  << "\"\n";
        return 1;
    }

    std::cout << "c " << formula.universals().size() << " universals, "
              << formula.existentials().size() << " existentials, "
              << formula.matrix().numClauses() << " clauses\n";

    std::string lookupError;
    if (const std::optional<api::CacheHit> hit =
            api::lookupCache(cachePlan, request.certify, &lookupError)) {
        const cache::CacheEntry& entry = hit->entry;
        const std::optional<cache::CertReuse> reuse = hit->cert;
        // A certify request whose cached certificate cannot be served falls
        // through to a fresh solve rather than serving a bare verdict the
        // caller asked to see certified.
        if (reuse == cache::CertReuse::None) {
            std::cout << "c cache               : verdict hit, no cached artifact; "
                         "solving fresh to certify\n";
        } else if (reuse && *reuse != cache::CertReuse::Served) {
            std::cout << "c cache               : cached artifact rejected (hash "
                         "binding failed); solving fresh to certify\n";
        } else {
            const auto printHit = [&] {
                std::cout << "c cache               : hit ("
                          << (entry.engine.empty() ? "?" : entry.engine) << ", "
                          << entry.solveMilliseconds << " ms original solve)\n";
            };
            if (!reuse) {
                printHit();
            } else if (std::ofstream out(certifyPath); out) {
                const cert::CheckResult check = cert::checkCertificateText(entry.certificate);
                printHit();
                out << entry.certificate;
                std::cout << "c certificate         : " << entry.certificate.size()
                          << " bytes from cache, self-check " << (check.ok() ? "ok" : "FAILED")
                          << " -> " << certifyPath << "\n";
            } else {
                std::cerr << "cannot write certificate file: " << certifyPath << "\n";
            }
            std::cout << "s " << entry.result << "\n";
            return entry.result == SolveResult::Sat ? 10 : 20;
        }
    } else if (!lookupError.empty()) {
        // A cache-layer failure (real or injected HQS_FAULT=cache-load)
        // degrades to a miss: report it and solve normally.
        std::cout << "c cache               : error, solving fresh (" << lookupError << ")\n";
    }

    if (!tracePath.empty()) obs::enableTracing(true);
    // Metric updates of this solve (including portfolio racer threads) land
    // in a local scope, so the `c stat` lines describe this instance alone.
    obs::MetricScope metricScope;

    // --skolem asks the Skolem-producing engines for a certificate as well.
    api::SolveRequest execRequest = request;
    if (skolem && (spec.kind == api::EngineSpec::Kind::Hqs ||
                   spec.kind == api::EngineSpec::Kind::Cegar))
        execRequest.certify = true;
    // The engine runs guarded: exceptions become a structured `c failure`
    // line, and --rss-limit arms the cooperative-memout watchdog.
    GuardOptions gopts;
    if (request.timeoutSeconds > 0) gopts.deadline = Deadline::in(request.timeoutSeconds);
    gopts.rssLimitBytes = request.rssLimitBytes;
    Timer solveTimer;
    api::ExecuteOutcome run;
    const GuardedOutcome guarded = runGuarded(gopts, [&](const Deadline& dl) {
        run = api::execute(execRequest, formula, dl, opts,
                           strategySpec ? &*strategySpec : nullptr);
        return run.result;
    });
    const SolveResult result = guarded.result;
    const FailureInfo failure = guarded.failure ? guarded.failure : run.failure;

    std::cout << "c engine              : " << (run.engine.empty() ? "(none)" : run.engine)
              << "\n";
    if (!run.certificate.empty()) {
        // Judge the artifact through the independent parser and checker —
        // exactly what dqbf_check would see.
        const cert::CheckResult check = cert::checkCertificateText(run.certificate);
        if (!check.ok()) OBS_COUNT("cert.selfcheck_fail", 1);
        std::cout << "c skolem certificate  : " << check.sizeNodes
                  << " AIG nodes from " << run.engine << ", independently checked: "
                  << (check.ok() ? std::string("VALID")
                                 : "INVALID (" + std::string(cert::toString(check.status)) +
                                       (check.detail.empty() ? "" : ": " + check.detail) +
                                       ")")
                  << "\n";
        cert::Certificate certificate;
        std::string detail;
        if (skolem && cert::parseCertificateString(run.certificate, certificate, detail) ==
                          cert::CheckStatus::Ok) {
            const std::vector<Var>& ys = formula.existentials();
            for (std::size_t k = 0; k < ys.size() && k < certificate.functions.size(); ++k) {
                const AigEdge fn = certificate.functions[k];
                std::cout << "c   s_" << (ys[k] + 1) << " : "
                          << certificate.aig->coneSize(fn) << " AIG nodes over";
                for (Var x : certificate.aig->support(fn)) std::cout << ' ' << (x + 1);
                std::cout << "\n";
            }
            if (!skolemPath.empty()) {
                std::ofstream out(skolemPath);
                if (out) {
                    writeAiger(out, *certificate.aig, certificate.functions);
                    std::cout << "c skolem aag          : " << skolemPath << "\n";
                } else {
                    std::cerr << "cannot write skolem file: " << skolemPath << "\n";
                }
            }
        }
        if (!certifyPath.empty()) {
            std::ofstream out(certifyPath);
            if (out) {
                out << run.certificate;
                std::cout << "c certificate         : " << run.certificate.size()
                          << " bytes, self-check " << (check.ok() ? "ok" : "FAILED")
                          << " -> " << certifyPath << "\n";
            } else {
                std::cerr << "cannot write certificate file: " << certifyPath << "\n";
            }
        }
    } else if (request.certify && result == SolveResult::Sat) {
        std::cout << "c certificate         : unavailable (winning engine cannot "
                     "certify)\n";
    }

    if (wantStats) {
        if (const auto* st = std::get_if<HqsStats>(&run.stats)) {
            std::cout << "c decided by          : " << st->decidedBy << "\n"
                      << "c preprocessing       : " << st->preprocess.unitsPropagated
                      << " units, " << st->preprocess.universalLiteralsReduced
                      << " universal reductions, " << st->preprocess.equivalencesSubstituted
                      << " equivalences, " << st->preprocess.gatesDetected << " gates\n"
                      << "c incomparable pairs  : " << st->incomparablePairs << "\n"
                      << "c selected universals : " << st->selectedUniversals << " (MaxSAT "
                      << st->maxsatMilliseconds << " ms)\n"
                      << "c eliminations        : " << st->universalsEliminated
                      << " universal (Thm 1), " << st->existentialsEliminated
                      << " existential (Thm 2), " << st->unitEliminations << " unit + "
                      << st->pureEliminations << " pure (Thm 5/6, "
                      << st->unitPureMilliseconds << " ms)\n"
                      << "c backend order       : " << st->qbfStats.orderTrials
                      << " trials, " << st->qbfStats.orderCapped << " capped\n"
                      << "c existential copies  : " << st->copiesIntroduced << "\n"
                      << "c peak AIG nodes      : " << st->peakConeSize << "\n"
                      << "c total time          : " << st->totalMilliseconds << " ms\n";
        } else if (const auto* st = std::get_if<CegarStats>(&run.stats)) {
            std::cout << "c refinements         : " << st->refinements << "\n"
                      << "c rules learned       : " << st->rulesLearned << "\n"
                      << "c counterexamples     : " << st->counterexamples << "\n"
                      << "c abstraction vars    : " << st->abstractionVars << "\n";
        } else if (const auto* st = std::get_if<IdqStats>(&run.stats)) {
            std::cout << "c iterations          : " << st->iterations << "\n"
                      << "c instantiations      : " << st->instantiations << "\n"
                      << "c ground clauses      : " << st->groundClauses << "\n"
                      << "c existential copies  : " << st->existentialCopies << "\n";
        } else if (const auto* st = std::get_if<PortfolioStats>(&run.stats)) {
            for (const EngineRunStats& es : st->engines) {
                std::cout << "c engine " << es.name << " : " << toString(es.result)
                          << " in " << es.elapsedMilliseconds << " ms";
                if (es.winner) {
                    std::cout << "  [winner]";
                } else if (es.cancelLatencyMilliseconds > 0) {
                    std::cout << "  (cancel latency " << es.cancelLatencyMilliseconds
                              << " ms)";
                }
                if (!es.certCheck.empty())
                    std::cout << "  (cert-check " << es.certCheck << ")";
                std::cout << "\n";
            }
            std::cout << "c total time          : " << st->totalMilliseconds << " ms\n";
            if (st->disagreement)
                std::cout << "c WARNING             : engines disagreed on the verdict\n";
        }
    }

    if (wantStats) obs::writeStatLines(std::cout, metricScope.snapshot());
    if (!tracePath.empty()) {
        std::ofstream traceOut(tracePath);
        if (traceOut) {
            obs::writeChromeTrace(traceOut);
            std::cout << "c trace               : " << obs::traceSpanCount()
                      << " spans -> " << tracePath << "\n";
        } else {
            std::cerr << "cannot write trace file: " << tracePath << "\n";
        }
    }
    if (failure) {
        std::cout << "c failure             : kind=" << toString(failure.kind)
                  << (failure.site.empty() ? "" : " site=" + failure.site) << " what=\""
                  << failure.what << "\"\n";
    }
    std::string storeError;
    if (api::storeCache(cachePlan, result, run.engine, solveTimer.elapsedMilliseconds(),
                        run.certificate, &storeError)) {
        std::cout << "c cache               : stored\n";
    } else if (!storeError.empty()) {
        // A cache write failure (real or injected HQS_FAULT=cache-store)
        // never taints the verdict.
        std::cout << "c cache               : store failed (" << storeError << ")\n";
    }
    std::cout << "s " << result << "\n";
    if (result == SolveResult::Sat) return 10;
    if (result == SolveResult::Unsat) return 20;
    return 1;
}
