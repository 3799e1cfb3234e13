#include "src/runtime/execute.hpp"

#include <stdexcept>

#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/dqbf/dqbf_oracle.hpp"

namespace hqs::api {
namespace {

/// Serialize the certificate of a certify + Sat run into @p out.
template <typename Solver>
void extractInto(ExecuteOutcome& out, const Solver& solver, const DqbfFormula& f)
{
    if (out.result != SolveResult::Sat || !solver.skolemCertificate()) return;
    const Timer timer;
    out.certificate =
        cert::toCertificateString(cert::extractCertificate(f, *solver.skolemCertificate()));
    out.extractMilliseconds = timer.elapsedMilliseconds();
}

/// The expand engine's universal cap: the spec's first expand rung.
std::size_t expandCap(const strategy::StrategySpec& spec)
{
    for (const strategy::EngineRung& rung : spec.engines)
        if (rung.engine == "expand") return rung.maxUniversals;
    return strategy::EngineRung{}.maxUniversals;
}

} // namespace

ExecuteOutcome execute(const SolveRequest& request, const DqbfFormula& f,
                       const Deadline& deadline, const HqsOptions& hqsBase,
                       const strategy::StrategySpec* strategy)
{
    const std::optional<EngineSpec> spec = request.parsedEngine();
    if (!spec) throw std::invalid_argument("unknown engine \"" + request.engine + "\"");

    ExecuteOutcome out;
    if (spec->kind != EngineSpec::Kind::Portfolio) out.engine = toString(spec->kind);
    switch (spec->kind) {
        case EngineSpec::Kind::Hqs:
        case EngineSpec::Kind::HqsBdd: {
            HqsOptions opts = hqsBase;
            opts.deadline = deadline;
            opts.nodeLimit = request.nodeLimit;
            if (spec->kind == EngineSpec::Kind::HqsBdd)
                opts.backend = HqsOptions::Backend::BddElimination;
            // Skolem recording forces the AIG backend, so a BDD run (the
            // batch ladder's last rung) answers uncertified instead.
            opts.computeSkolem =
                request.certify && opts.backend != HqsOptions::Backend::BddElimination;
            HqsSolver solver(opts);
            out.result = solver.solve(f);
            if (opts.computeSkolem) extractInto(out, solver, f);
            out.stats = solver.stats();
            break;
        }
        case EngineSpec::Kind::Cegar: {
            // The node budget caps learned rules: both grow with the engine's
            // memory footprint.
            CegarOptions opts;
            opts.deadline = deadline;
            opts.ruleLimit = request.nodeLimit;
            opts.computeSkolem = request.certify;
            CegarSolver solver(opts);
            out.result = solver.solve(f);
            if (opts.computeSkolem) extractInto(out, solver, f);
            out.stats = solver.stats();
            break;
        }
        case EngineSpec::Kind::Idq: {
            IdqOptions opts;
            opts.deadline = deadline;
            opts.groundClauseLimit = request.nodeLimit;
            IdqSolver solver(opts);
            out.result = solver.solve(f);
            if (request.certify) extractInto(out, solver, f);
            out.stats = solver.stats();
            break;
        }
        case EngineSpec::Kind::Expand: {
            // Full expansion is exponential in the universal count; above
            // the cap it would only burn a core.
            const std::size_t cap = strategy ? expandCap(*strategy)
                                             : expandCap(strategy::defaultStrategySpec());
            if (f.universals().size() > cap) {
                out.failure = {FailureKind::EngineError, "expand",
                               "too many universals (" +
                                   std::to_string(f.universals().size()) + " > " +
                                   std::to_string(cap) + ")"};
                break;
            }
            out.result = expansionDqbf(f, deadline);
            break;
        }
        case EngineSpec::Kind::Portfolio: {
            PortfolioOptions opts;
            opts.deadline = deadline;
            opts.nodeLimit = request.nodeLimit;
            opts.maxEngines = spec->portfolioEngines;
            opts.certify = request.certify;
            if (strategy) {
                opts.engines =
                    PortfolioSolver::enginesFromSpec(*strategy, request.nodeLimit, hqsBase.fraig);
                opts.strategyName = strategy->name;
            } else {
                opts.engines = PortfolioSolver::defaultEngines(request.nodeLimit, hqsBase.fraig);
            }
            PortfolioSolver solver(std::move(opts));
            out.result = solver.solve(f);
            PortfolioStats stats = solver.stats();
            out.engine = stats.winnerName;
            out.certificate = stats.winnerCertificate;
            out.failure = stats.failure;
            out.stats = std::move(stats);
            break;
        }
    }
    return out;
}

} // namespace hqs::api
