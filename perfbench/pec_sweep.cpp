// pec_sweep: single-threaded in-process solves of PEC instances, repeated in rounds whose instance order is reshuffled from the
// seed.  Each instance's time to verdict (parse + solve) is its minimum over
// the rounds, which filters interference from the host.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Attempt {
    hqs::SolveResult result = hqs::SolveResult::Unknown;
    double ms = 0; ///< parse + solve
    bool threw = false;
    hqs::HqsStats stats;
};

Attempt solveOnce(const std::string& text, double budgetSeconds)
{
    Attempt a;
    hqs::Timer total;
    try {
        std::optional<hqs::DqbfFormula> formula;
        {
            hqs::obs::SpanScope span("bench.parse");
            formula = hqs::DqbfFormula::fromParsed(hqs::parseDqdimacsString(text));
        }
        hqs::HqsOptions opts;
        opts.deadline = hqs::Deadline::in(budgetSeconds);
        opts.nodeLimit = kNodeLimit;
        hqs::HqsSolver solver(opts);
        {
            hqs::obs::SpanScope span("bench.solve");
            a.result = solver.solve(std::move(*formula));
        }
        a.stats = solver.stats();
    } catch (const std::exception& e) {
        a.threw = true;
        std::cerr << "perfbench: solve threw: " << e.what() << "\n";
    }
    a.ms = total.elapsedMilliseconds();
    return a;
}

struct Instance {
    PecSpec spec;
    std::string text;
    std::optional<hqs::SolveResult> verdict; ///< outcome of the first attempt
    double firstMs = 0;        ///< time of the first attempt, whatever its outcome
    double minMs = kInf;       ///< min over untraced decided attempts
    double tracedMinMs = kInf; ///< min over traced decided attempts (trace run)
    std::vector<double> samples;
};

} // namespace

RunResult runPecSweep(const RunConfig& cfg)
{
    RunResult res;
    const double budget = kSweepBudgetSeconds;
    const std::vector<PecSpec> specs = sweepSpecs();

    // Set-up: generate and encode every instance.
    std::vector<std::string> texts;
    SetupSampler setup([&] {
        const hqs::Timer t;
        texts.clear();
        for (const PecSpec& s : specs) texts.push_back(encodePecText(s));
        return t.elapsedSeconds();
    });
    setup.sample();
    std::vector<Instance> inst;
    for (std::size_t i = 0; i < specs.size(); ++i)
        inst.push_back({specs[i], std::move(texts[i]), {}, 0, kInf, kInf, {}});
    setup.sample();
    setup.sample();

    SpanTotals spans;
    std::optional<RegistryView> registry;
    double unitPure = 0, selected = 0, incomparable = 0;

    // In a trace run, even rounds are traced and odd rounds are not; round 0
    // (traced, and the only round that runs every instance) supplies the
    // per-layer figures, the odd rounds the untraced baseline.
    const int minRounds = cfg.trace ? 2 : 1;
    hqs::Timer clock;
    for (int round = 0;; ++round) {
        const auto timeUp = [&] {
            return round >= minRounds && clock.elapsedSeconds() >= cfg.seconds;
        };
        if (timeUp()) break;
        const bool traced = cfg.trace && round % 2 == 0;
        if (cfg.trace && round == 0) hqs::obs::globalRegistry().reset();
        hqs::obs::enableTracing(traced);
        for (std::size_t i : roundOrder(inst.size(), cfg.seed, round)) {
            if (timeUp()) break;
            Instance& in = inst[i];
            // An undecided instance is not repeated: a memout is
            // deterministic, and repeating a timeout would spend the run on
            // one instance.
            if (in.verdict && !hqs::isConclusive(*in.verdict)) continue;
            setup.sampleIfDue();
            const Attempt a = solveOnce(in.text, budget);
            ++res.attempted;
            if (a.threw) {
                ++res.failed;
                continue;
            }
            if (!in.verdict) {
                in.verdict = a.result;
                in.firstMs = a.ms;
            }
            if (hqs::isConclusive(a.result)) {
                if ((a.result == hqs::SolveResult::Sat) != in.spec.realizable ||
                    a.result != *in.verdict) {
                    std::cerr << "perfbench: WRONG verdict " << hqs::toString(a.result)
                              << " on " << in.spec.name() << "\n";
                    res.correct = false;
                }
                double& slot = traced ? in.tracedMinMs : in.minMs;
                slot = std::min(slot, a.ms);
                if (!traced) in.samples.push_back(a.ms);
            }
            if (cfg.trace && round == 0) {
                unitPure += static_cast<double>(a.stats.qbfStats.unitEliminations +
                                                a.stats.qbfStats.pureEliminations);
                selected += static_cast<double>(a.stats.selectedUniversals);
                incomparable += static_cast<double>(a.stats.incomparablePairs);
            }
        }
        hqs::obs::enableTracing(false);
        if (round == 0 && traced) {
            spans = drainSpans();
            registry.emplace(hqs::obs::globalRegistry().snapshot());
        }
        // Later traced rounds only measure the tracing overhead.
        hqs::obs::clearTrace();
    }

    std::vector<double> decidedMs, tracedMs, untracedMs, rawMedians;
    std::size_t undecided = 0;
    for (Instance& in : inst) {
        const double best = std::min(in.minMs, in.tracedMinMs);
        if (best == kInf) {
            ++undecided;
            continue;
        }
        decidedMs.push_back(best);
        if (!in.samples.empty()) rawMedians.push_back(median(in.samples));
        if (in.minMs < kInf && in.tracedMinMs < kInf) {
            untracedMs.push_back(in.minMs);
            tracedMs.push_back(in.tracedMinMs);
        }
    }
    double sumMs = 0;
    for (double ms : decidedMs) sumMs += ms;
    const double penalty = 2.0 * budget * static_cast<double>(undecided);

    if (!cfg.trace) {
        res.metrics = {
            {"setup_s", setup.minSeconds(), "s"},
            {"par2_s", sumMs / 1000.0 + penalty, "s"},
            {"decided", static_cast<double>(decidedMs.size()), "count"},
            {"verdict_ms_p50", percentile(decidedMs, 50), "ms"},
            {"verdict_ms_p90", percentile(decidedMs, 90), "ms"},
            {"verdict_ms_p99", percentile(decidedMs, 99), "ms"},
            {"throughput_rps", sumMs > 0 ? 1000.0 * decidedMs.size() / sumMs : 0, "1/s"},
            {"ok_frac",
             res.attempted ? static_cast<double>(res.attempted - res.failed) / res.attempted : 0,
             "ratio"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        double tracedSum = 0, untracedSum = 0;
        for (std::size_t k = 0; k < tracedMs.size(); ++k) {
            tracedSum += tracedMs[k];
            untracedSum += untracedMs[k];
        }
        const std::map<std::string, double> extra = {
            {"qbf.unit_pure_eliminations", unitPure},
            {"maxsat.selected_universals", selected},
            {"maxsat.incomparable_pairs", incomparable},
            {"obs.trace_overhead_frac", untracedSum > 0 ? tracedSum / untracedSum - 1.0 : 0},
        };
        res.metrics = layerMetrics(spans, registry ? *registry : RegistryView({}), extra);
    }

    double rawSum = 0;
    for (double ms : rawMedians) rawSum += ms;
    char line[256];
    std::snprintf(line, sizeof line,
                  "raw (not gated): sum over %zu decided instances of the median ms %.3f, "
                  "of the minimum ms %.3f; p50 %.4f p90 %.4f p99 %.4f ms; setup %.6f s",
                  rawMedians.size(), rawSum, sumMs, percentile(decidedMs, 50),
                  percentile(decidedMs, 90), percentile(decidedMs, 99), setup.minSeconds());
    res.notes.push_back(line);
    for (const Instance& in : inst) {
        // Decided instances report their minimum, the others their one run.
        const double ms = std::min({in.minMs, in.tracedMinMs, in.firstMs});
        std::snprintf(line, sizeof line,
                      "instance %-18s %-8s ms %10.3f  time/B %.3f  samples %zu",
                      in.spec.name().c_str(),
                      in.verdict ? hqs::toString(*in.verdict).c_str() : "-", ms,
                      ms / (budget * 1000.0), in.samples.size());
        res.notes.push_back(line);
    }
    return res;
}

} // namespace perfbench
