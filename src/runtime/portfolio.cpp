#include "src/runtime/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/cert/certificate.hpp"
#include "src/obs/obs.hpp"
#include "src/runtime/execute.hpp"
#include "src/runtime/thread_pool.hpp"

namespace hqs {

std::vector<PortfolioEngine> PortfolioSolver::defaultEngines(std::size_t nodeLimit, bool fraig)
{
    return enginesFromSpec(strategy::defaultStrategySpec(), nodeLimit, fraig);
}

std::vector<PortfolioEngine> PortfolioSolver::enginesFromSpec(
    const strategy::StrategySpec& spec, std::size_t nodeLimit, bool fraig)
{
    std::vector<PortfolioEngine> engines;
    engines.reserve(spec.engines.size());
    for (const strategy::EngineRung& rung : spec.engines) {
        const std::optional<api::EngineSpec> parsed =
            api::parseEngineSpec(rung.engine);
        if (!parsed || parsed->kind == api::EngineSpec::Kind::Portfolio)
            continue; // parseStrategySpec rejects these; belt and braces
        const auto scaledRaw = static_cast<std::size_t>(
            static_cast<double>(nodeLimit) * rung.nodeLimitScale);
        const std::size_t scaledLimit =
            nodeLimit == 0 ? 0 : std::max<std::size_t>(1, scaledRaw);

        // The racer runs its rung through the one execution path.  An
        // expand rung carries its own universal cap as a one-rung spec.
        api::SolveRequest request;
        request.engine = rung.engine;
        request.nodeLimit = scaledLimit;
        HqsOptions hqsBase;
        hqsBase.selection = rung.selection == "greedy" ? HqsOptions::Selection::Greedy
                                                       : HqsOptions::Selection::MaxSat;
        hqsBase.fraig = fraig && rung.fraig;
        std::shared_ptr<strategy::StrategySpec> rungSpec;
        if (parsed->kind == api::EngineSpec::Kind::Expand) {
            rungSpec = std::make_shared<strategy::StrategySpec>();
            rungSpec->engines = {rung};
        }

        PortfolioEngine engine;
        engine.name = rung.name;
        engine.family = api::engineFamily(parsed->kind);
        engine.run = [request, hqsBase, rungSpec](const DqbfFormula& f, const Deadline& dl,
                                                  std::string* certOut) {
            api::SolveRequest r = request;
            r.certify = certOut != nullptr;
            api::ExecuteOutcome out = api::execute(r, f, dl, hqsBase, rungSpec.get());
            if (certOut) *certOut = std::move(out.certificate);
            return out.result;
        };
        engines.push_back(std::move(engine));
    }
    return engines;
}

SolveResult PortfolioSolver::judgeDisagreement(const std::string& contradiction)
{
    // A conclusive contradiction always pits Sat against Unsat.  A valid
    // certificate proves the Sat side outright; a certificate the checker
    // rejects means the Sat claim failed its own proof obligation, and the
    // Unsat side is vindicated.  Timeouts and absent certificates decide
    // nothing.
    bool sawRejected = false;
    std::string rejectedWhat;
    for (EngineRunStats& es : stats_.engines) {
        if (es.result != SolveResult::Sat || es.certificate.empty()) continue;
        const cert::CheckStatus status =
            cert::checkCertificateText(es.certificate, opts_.deadline).status;
        es.certCheck = cert::toString(status);
        OBS_COUNT("portfolio.disagreement_certchecks", 1);
        if (status == cert::CheckStatus::Ok) {
            es.winner = true;
            stats_.winnerName = es.name;
            stats_.winnerCertificate = es.certificate;
            stats_.failure = {FailureKind::Disagreement, "portfolio.certcheck",
                              contradiction + "; certificate check vindicated " +
                                  es.name};
            return SolveResult::Sat;
        }
        if (status != cert::CheckStatus::SolverTimeout) {
            sawRejected = true;
            rejectedWhat = contradiction + "; certificate of " + es.name +
                           " rejected (" + cert::toString(status) + ")";
        }
    }
    if (sawRejected) {
        for (EngineRunStats& es : stats_.engines) {
            if (es.result != SolveResult::Unsat) continue;
            es.winner = true;
            stats_.winnerName = es.name;
            stats_.failure = {FailureKind::Disagreement, "portfolio.certcheck",
                              rejectedWhat + ", vindicated " + es.name};
            return SolveResult::Unsat;
        }
    }
    return SolveResult::Unknown;
}

SolveResult PortfolioSolver::solve(const DqbfFormula& f)
{
    using Clock = std::chrono::steady_clock;

    std::vector<PortfolioEngine> engines =
        opts_.engines.empty() ? defaultEngines(opts_.nodeLimit) : opts_.engines;
    if (opts_.maxEngines != 0 && engines.size() > opts_.maxEngines)
        engines.resize(opts_.maxEngines);

    stats_ = PortfolioStats{};
    stats_.engines.resize(engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i) {
        stats_.engines[i].name = engines[i].name;
        stats_.engines[i].family = engines[i].family;
    }
    if (engines.empty()) return SolveResult::Unknown;

    Timer total;
    OBS_SPAN(raceSpan, "portfolio.race");
    OBS_COUNT("portfolio.races", 1);
#if HQS_OBS_ENABLED
    if (!opts_.strategyName.empty()) {
        // Spec-driven lineup: per-rung race counters under the strategy.*
        // namespace (dynamic names, so the OBS_COUNT cache does not apply).
        for (const PortfolioEngine& e : engines)
            obs::currentRegistry().add(
                obs::metric("strategy.rung." + e.name + ".races",
                            obs::MetricKind::Counter),
                1);
    }
#endif
    // Racers run on pool workers whose thread-local registry would be the
    // global one; bind them to the registry current *here* so per-solve
    // MetricScopes (batch jobs, CLI --stats) see the engines' metrics.
    obs::Registry& parentRegistry = obs::currentRegistry();
    std::vector<std::string> spanLabels;
    spanLabels.reserve(engines.size());
    for (const PortfolioEngine& e : engines) spanLabels.push_back("engine:" + e.name);
    std::vector<CancelToken> tokens(engines.size());

    std::mutex mu;
    std::optional<std::size_t> winner;
    std::optional<Clock::time_point> cancelBroadcastAt;
    SolveResult verdict = SolveResult::Unknown;

    {
        ThreadPool pool(engines.size(), engines.size());
        for (std::size_t i = 0; i < engines.size(); ++i) {
            pool.submit([&, i] {
                // Each racer observes the shared budget, the portfolio-wide
                // kill switch, and its own loser-cancellation token.
                obs::BindRegistry bind(parentRegistry);
                OBS_SPAN(engineSpan, spanLabels[i].c_str());
                Deadline dl = opts_.deadline.withCancel(tokens[i]);
                Timer t;
                SolveResult r = SolveResult::Unknown;
                FailureInfo failure;
                std::string certText;
                try {
                    r = engines[i].run(f, dl, opts_.certify ? &certText : nullptr);
                } catch (...) {
                    // An engine crashing must not take the race down; record
                    // what it died on so the stats tell the story.
                    failure = classifyException(std::current_exception());
                    if (failure.kind == FailureKind::BadAlloc) r = SolveResult::Memout;
                }
                const double elapsed = t.elapsedMilliseconds();
                const Clock::time_point returnedAt = Clock::now();

                std::lock_guard<std::mutex> lock(mu);
                EngineRunStats& es = stats_.engines[i];
                es.result = r;
                es.failure = std::move(failure);
                es.certificate = std::move(certText);
                es.elapsedMilliseconds = elapsed;
                if (isConclusive(r) && !winner) {
                    winner = i;
                    verdict = r;
                    es.winner = true;
                    cancelBroadcastAt = Clock::now();
                    for (std::size_t j = 0; j < tokens.size(); ++j)
                        if (j != i) tokens[j].requestCancel();
                } else {
                    if (isConclusive(r) && isConclusive(verdict) && r != verdict)
                        stats_.disagreement = true;
                    if (cancelBroadcastAt) {
                        es.cancelLatencyMilliseconds =
                            std::chrono::duration<double, std::milli>(returnedAt -
                                                                      *cancelBroadcastAt)
                                .count();
                        OBS_OBSERVE("portfolio.cancel_latency_us",
                                    es.cancelLatencyMilliseconds * 1000.0);
#if HQS_OBS_ENABLED
                        // Labeled companion histogram: why this racer was
                        // told to stop (loser cancellation fires with User,
                        // a service client disconnect with Disconnected, the
                        // RSS watchdog with Memout).  Dynamic name, so the
                        // OBS_OBSERVE static-id cache does not apply.
                        obs::currentRegistry().observe(
                            obs::metric(std::string("portfolio.cancel_latency_us.") +
                                            toString(tokens[i].reason()),
                                        obs::MetricKind::Histogram),
                            static_cast<std::int64_t>(es.cancelLatencyMilliseconds *
                                                      1000.0));
#endif
                    }
                }
            });
        }
        // Forward the external kill switches to every racer's token,
        // including when they fire mid-race: the `cancel` option and the
        // token already on the budget (the guard's, which each racer's
        // withCancel replaces).  Polling at 1 ms keeps the monitor trivial
        // (no extra condition variables) and is far below any solver budget.
        std::atomic<bool> raceDone{false};
        std::thread monitor;
        if (opts_.cancel || opts_.deadline.hasCancel()) {
            monitor = std::thread([&] {
                // The fired switch's reason (shutdown vs client disconnect
                // vs memout), nullopt while neither has fired.
                auto fired = [&]() -> std::optional<CancelReason> {
                    if (opts_.cancel && opts_.cancel->cancelled()) return opts_.cancel->reason();
                    if (opts_.deadline.cancelled()) return opts_.deadline.cancelReason();
                    return std::nullopt;
                };
                while (!raceDone.load(std::memory_order_relaxed)) {
                    if (const std::optional<CancelReason> why = fired()) {
                        // Stamp the broadcast time so the racers' cancel
                        // latency is measured for this path too.
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            if (!cancelBroadcastAt) cancelBroadcastAt = Clock::now();
                        }
                        const CancelReason fwd =
                            *why == CancelReason::None ? CancelReason::User : *why;
                        for (CancelToken& t : tokens) t.requestCancel(fwd);
                        return;
                    }
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            });
        }
        pool.wait();
        raceDone.store(true, std::memory_order_relaxed);
        if (monitor.joinable()) monitor.join();
    }

    stats_.totalMilliseconds = total.elapsedMilliseconds();

    // Cross-check every conclusive racer before answering: two engines
    // contradicting each other means at least one solver is wrong, and
    // answering with whichever happened to finish first would silently
    // launder the bug into a verdict.  When a Sat racer carries a
    // certificate, the independent checker re-judges it and its verdict
    // breaks the tie; otherwise report Unknown with a structured
    // disagreement record.
    for (const EngineRunStats& a : stats_.engines) {
        if (!isConclusive(a.result)) continue;
        for (const EngineRunStats& b : stats_.engines) {
            if (isConclusive(b.result) && a.result != b.result) {
                stats_.disagreement = true;
                const std::string contradiction = a.name + "=" + toString(a.result) +
                                                  " vs " + b.name + "=" +
                                                  toString(b.result);
                stats_.winnerName.clear();
                for (EngineRunStats& es : stats_.engines) es.winner = false;
                if (const SolveResult judged = judgeDisagreement(contradiction);
                    isConclusive(judged)) {
                    return judged;
                }
                stats_.failure = {FailureKind::Disagreement, "portfolio",
                                  contradiction};
                return SolveResult::Unknown;
            }
        }
    }

    if (winner) {
        stats_.winnerName = engines[*winner].name;
        stats_.winnerFamily = engines[*winner].family;
        stats_.winnerCertificate = stats_.engines[*winner].certificate;
#if HQS_OBS_ENABLED
        // Dynamic metric name (one counter per engine), so the per-call-site
        // static cache of OBS_COUNT does not apply.
        obs::currentRegistry().add(
            obs::metric("portfolio.win." + stats_.winnerName, obs::MetricKind::Counter),
            1);
        // Family-level win/loss accounting: the winner's family scores a
        // win, every other family that raced scores a loss — win rates per
        // engine family fall straight out of the two counters.
        if (!stats_.winnerFamily.empty()) {
            obs::currentRegistry().add(
                obs::metric("portfolio.family." + stats_.winnerFamily + ".wins",
                            obs::MetricKind::Counter),
                1);
            std::vector<std::string> lost;
            for (const PortfolioEngine& e : engines) {
                if (e.family.empty() || e.family == stats_.winnerFamily) continue;
                if (std::find(lost.begin(), lost.end(), e.family) != lost.end())
                    continue;
                lost.push_back(e.family);
                obs::currentRegistry().add(
                    obs::metric("portfolio.family." + e.family + ".losses",
                                obs::MetricKind::Counter),
                    1);
            }
        }
        if (!opts_.strategyName.empty())
            obs::currentRegistry().add(
                obs::metric("strategy.rung." + stats_.winnerName + ".wins",
                            obs::MetricKind::Counter),
                1);
#endif
        return verdict;
    }
    if ((opts_.cancel && opts_.cancel->cancelled()) || opts_.deadline.cancelled())
        stats_.failure = {FailureKind::Cancelled, "portfolio", "race cancelled"};
    // No definitive answer: report the most informative inconclusive result.
    bool sawTimeout = false, sawMemout = false;
    for (const EngineRunStats& es : stats_.engines) {
        sawTimeout |= es.result == SolveResult::Timeout;
        sawMemout |= es.result == SolveResult::Memout;
    }
    if (sawTimeout) return SolveResult::Timeout;
    if (sawMemout) return SolveResult::Memout;
    return SolveResult::Unknown;
}

} // namespace hqs
