// Portfolio racing over DQBF engine configurations.
//
// HQS's elimination order, iDQ-style instantiation, and the alternative
// backends win on disjoint instance families, so racing complementary
// configurations on the same formula dominates any single engine: the
// portfolio answers as soon as the first engine returns a definitive
// Sat/Unsat, and cancels the rest through the CancelToken threaded into
// every solver's Deadline.  Losers unwind cooperatively at their next
// deadline check — no signals, no detached threads left running.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/cancel.hpp"
#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/runtime/guard.hpp"
#include "src/strategy/spec.hpp"

namespace hqs {

/// One racer: a named engine configuration.  run() receives the formula and
/// a Deadline that already carries this racer's CancelToken; it must poll
/// the deadline and return Timeout once it expires.  Under
/// PortfolioOptions::certify the race passes a non-null @p certOut, and a
/// racer that can certify serializes its Skolem certificate there on Sat;
/// the others leave it empty.
struct PortfolioEngine {
    std::string name;
    std::function<SolveResult(const DqbfFormula&, const Deadline&, std::string* certOut)>
        run;
    /// Engine family (api::engineFamily) for win/loss accounting; "" when
    /// the caller hand-rolled the lineup and did not care.
    std::string family;
};

struct PortfolioOptions {
    /// Race only the first N engines of the configured list (0 = all).
    std::size_t maxEngines = 0;
    /// Global wall-clock budget shared by every racer.
    Deadline deadline = Deadline::unlimited();
    /// Per-engine AIG-node / ground-clause budget (0 = none), applied when
    /// building the default engine list.
    std::size_t nodeLimit = 0;
    /// Engine list; empty means PortfolioSolver::defaultEngines(nodeLimit).
    std::vector<PortfolioEngine> engines;
    /// External kill switch for the whole race (batch scheduler shutdown).
    /// When set, a monitor thread forwards it to every racer mid-run.
    std::optional<CancelToken> cancel;
    /// Ask certificate-capable racers to extract Skolem certificates on Sat.
    /// Also arms the disagreement tie-breaker: contradictory verdicts are
    /// re-judged by the independent certificate checker when a certificate
    /// is available, instead of unconditionally degrading to Unknown.
    bool certify = false;
    /// Name of the strategy spec the engine lineup came from ("" when the
    /// lineup is hard-wired).  Non-empty arms the strategy.rung.* metrics:
    /// one .races counter per rung raced, one .wins counter for the rung
    /// whose verdict was served.
    std::string strategyName;
};

/// Outcome of a single racer within one solve() call.
struct EngineRunStats {
    std::string name;
    std::string family; ///< engine family of this racer ("" when unset)
    SolveResult result = SolveResult::Unknown;
    double elapsedMilliseconds = 0.0;
    /// Time from the winner's cancel broadcast to this engine returning;
    /// 0 for the winner itself and for engines that finished before the
    /// broadcast.
    double cancelLatencyMilliseconds = 0.0;
    bool winner = false;
    /// Structured record of the exception this racer died on (kind None for
    /// a racer that returned normally).
    FailureInfo failure;
    /// Serialized certificate artifact (empty unless this racer returned Sat
    /// under PortfolioOptions::certify with a certificate-capable engine).
    std::string certificate;
    /// Independent checker's verdict on this racer's certificate, when it
    /// was consulted to break a disagreement ("ok", "refuted", ...).
    std::string certCheck;
};

struct PortfolioStats {
    std::vector<EngineRunStats> engines;
    std::string winnerName;            ///< empty when no engine was definitive
    std::string winnerFamily;          ///< family of the winner ("" when none)
    /// The winner's serialized certificate (empty when not certifying or the
    /// winning engine cannot certify).
    std::string winnerCertificate;
    double totalMilliseconds = 0.0;
    /// Two racers returned contradictory definitive answers — a solver bug.
    /// Without a certificate the race then reports Unknown (never a
    /// coin-flip verdict) and `failure` names the contradicting engines.
    /// When a Sat racer produced a certificate, the independent checker
    /// re-judges it and its verdict breaks the tie; `failure.site` becomes
    /// "portfolio.certcheck" and `failure.what` names the vindicated engine.
    bool disagreement = false;
    /// Race-level failure: Disagreement, or Cancelled when the external
    /// kill switch fired before any verdict.
    FailureInfo failure;
};

class PortfolioSolver {
public:
    explicit PortfolioSolver(PortfolioOptions opts = {}) : opts_(std::move(opts)) {}

    /// Race all engines on @p f; first definitive Sat/Unsat wins and cancels
    /// the rest.  With no definitive answer: Timeout if any racer timed out,
    /// else Memout if any hit a resource budget, else Unknown.
    SolveResult solve(const DqbfFormula& f);

    const PortfolioStats& stats() const { return stats_; }

    /// The standard racer lineup, in priority order: HQS/maxsat (the paper's
    /// configuration), HQS/greedy selection, HQS with the BDD backend, the
    /// iDQ-style instantiation solver, and single-call expansion SAT (which
    /// sits out instances with too many universals).  @p fraig = false is the
    /// batch scheduler's degraded memout-retry configuration.
    static std::vector<PortfolioEngine> defaultEngines(std::size_t nodeLimit = 0,
                                                       bool fraig = true);

    /// Translate a validated strategy spec's engine rungs into runnable
    /// racers, each of which runs its rung through api::execute.  Per rung,
    /// the request node budget is scaled by nodeLimitScale and FRAIG is the
    /// AND of the rung flag and @p fraig (so a degraded ladder rung can
    /// force sweeping off across the whole lineup).  defaultEngines() is
    /// exactly enginesFromSpec(strategy::defaultStrategySpec(), ...).
    static std::vector<PortfolioEngine> enginesFromSpec(
        const strategy::StrategySpec& spec, std::size_t nodeLimit = 0,
        bool fraig = true);

private:
    /// Re-judge a Sat-vs-Unsat contradiction with the independent
    /// certificate checker.  Returns Sat or Unsat when a certificate settles
    /// the tie (stats_ updated: vindicated winner, failure record with site
    /// "portfolio.certcheck"), Unknown when no certificate is conclusive.
    SolveResult judgeDisagreement(const std::string& contradiction);

    PortfolioOptions opts_;
    PortfolioStats stats_;
};

} // namespace hqs
