// The one engine entry point (DESIGN.md §13).  dqbf_solve, the batch
// scheduler's ladder rungs, the service's stateless solves and every
// portfolio racer run their engine through execute(), which holds the only
// switch over engine kinds.  Parsing, the guard and reply rendering stay in
// the front ends, and the result cache has its own front door
// (cache_plan.hpp); session component solves keep their own HqsSolver call.
#pragma once

#include <string>
#include <variant>

#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/cegar/cegar_solver.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/idq/idq_solver.hpp"
#include "src/runtime/api.hpp"
#include "src/runtime/guard.hpp"
#include "src/runtime/portfolio.hpp"
#include "src/strategy/spec.hpp"

namespace hqs::api {

/// What one engine run produced.
struct ExecuteOutcome {
    SolveResult result = SolveResult::Unknown;
    /// The engine kind's name ("hqs", "cegar", ...), or for a portfolio the
    /// winning racer's name ("" when no racer was definitive).
    std::string engine;
    /// Serialized certificate of a certify + Sat run; "" otherwise and for
    /// engines that cannot certify (hqs-bdd, expand, a BDD backend).
    std::string certificate;
    /// Extraction + serialization time of `certificate` (0 for a portfolio,
    /// whose racers extract).
    double extractMilliseconds = 0;
    /// Typed refusal or race failure: expand above its universal cap
    /// (EngineError, site "expand"), a portfolio disagreement or cancel.
    FailureInfo failure;
    /// The engine's own statistics; monostate for expand.
    std::variant<std::monostate, HqsStats, CegarStats, IdqStats, PortfolioStats> stats;
};

/// Run @p request's engine on @p f until @p deadline.  Precondition:
/// request.validate() passed.  Reads the request's engine, nodeLimit and
/// certify; exceptions escape for the caller's guard to classify.
/// @p hqsBase carries front-end HQS tuning; execute() sets its deadline,
/// node limit and Skolem recording, and a portfolio takes its `fraig`.
/// @p strategy is the lineup a portfolio races, tagging its
/// strategy.rung.* metrics, and its first expand rung caps a solo expand
/// run (nullptr: the default spec, untagged).
ExecuteOutcome execute(const SolveRequest& request, const DqbfFormula& f,
                       const Deadline& deadline, const HqsOptions& hqsBase = {},
                       const strategy::StrategySpec* strategy = nullptr);

} // namespace hqs::api
