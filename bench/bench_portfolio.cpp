// Portfolio racing vs best-single-engine on the PEC families.
//
// For every suite instance this harness (1) races the default engine lineup
// with PortfolioSolver and (2) runs each engine solo under the same budget.
// The interesting number is the regret: portfolio wall-clock vs the best
// solo engine *in hindsight* — the portfolio pays one race's overhead to
// avoid having to know the best engine up front, and on families where the
// engines' strengths are disjoint it beats any fixed choice overall.
//
// Output: one JSON object per instance (JSONL on stdout, '#' comment
// header), each with the winner, portfolio and per-engine wall-clock, each
// loser's cancel latency, and the hindsight-best solo engine.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/runtime/portfolio.hpp"

using namespace hqs;
using namespace hqs::bench;

int main()
{
    const SuiteParams params = suiteParamsFromEnv();

    std::printf("# bench_portfolio — portfolio race vs best single engine, "
                "limit %.1f s/instance\n",
                params.timeoutSeconds);

    double portfolioTotalMs = 0, bestSoloTotalMs = 0;
    std::size_t portfolioSolved = 0, bestSoloSolved = 0, instances = 0;

    for (const InstanceSpec& spec : buildSuite(params)) {
        const PecInstance inst = makeInstance(spec.family, spec.width, spec.realizable);
        const PecEncoding enc = encodePec(inst);
        ++instances;

        // (1) the race.
        PortfolioOptions popts;
        popts.deadline = Deadline::in(params.timeoutSeconds);
        popts.nodeLimit = params.hqsNodeLimit;
        PortfolioSolver portfolio(popts);
        const SolveResult raceResult = portfolio.solve(enc.formula);
        const PortfolioStats& race = portfolio.stats();
        portfolioTotalMs += race.totalMilliseconds;
        if (isConclusive(raceResult)) ++portfolioSolved;

        // (2) every engine solo under the same budget: the hindsight oracle.
        std::string bestName;
        double bestMs = 0;
        SolveResult bestResult = SolveResult::Unknown;
        std::vector<std::pair<std::string, double>> soloTimes;
        for (const PortfolioEngine& e :
             PortfolioSolver::defaultEngines(params.hqsNodeLimit)) {
            Timer t;
            const SolveResult r = e.run(enc.formula, Deadline::in(params.timeoutSeconds), nullptr);
            const double ms = t.elapsedMilliseconds();
            soloTimes.emplace_back(e.name, ms);
            if (isConclusive(r) && (bestName.empty() || ms < bestMs)) {
                bestName = e.name;
                bestMs = ms;
                bestResult = r;
            }
        }
        if (isConclusive(bestResult)) {
            ++bestSoloSolved;
            bestSoloTotalMs += bestMs;
        } else {
            bestSoloTotalMs += params.timeoutSeconds * 1000.0;
        }

        // JSONL row.
        std::printf("{\"instance\":\"%s\",\"expected\":\"%s\",\"result\":\"%s\","
                    "\"winner\":\"%s\",\"portfolio_ms\":%.3f,"
                    "\"best_single\":\"%s\",\"best_single_ms\":%.3f,\"engines\":[",
                    inst.name.c_str(), spec.realizable ? "SAT" : "UNSAT",
                    toString(raceResult).c_str(),
                    race.winnerName.empty() ? "(none)" : race.winnerName.c_str(),
                    race.totalMilliseconds, bestName.empty() ? "(none)" : bestName.c_str(),
                    bestName.empty() ? 0.0 : bestMs);
        for (std::size_t i = 0; i < race.engines.size(); ++i) {
            const EngineRunStats& es = race.engines[i];
            std::printf("%s{\"name\":\"%s\",\"result\":\"%s\",\"elapsed_ms\":%.3f,"
                        "\"cancel_latency_ms\":%.3f,\"winner\":%s}",
                        i ? "," : "", es.name.c_str(), toString(es.result).c_str(),
                        es.elapsedMilliseconds, es.cancelLatencyMilliseconds,
                        es.winner ? "true" : "false");
        }
        std::printf("]}\n");
        std::fflush(stdout);
    }

    std::printf("# %zu instances: portfolio solved %zu (%.1f s total), "
                "hindsight-best single engine solved %zu (%.1f s total)\n",
                instances, portfolioSolved, portfolioTotalMs / 1000.0, bestSoloSolved,
                bestSoloTotalMs / 1000.0);
    return 0;
}
