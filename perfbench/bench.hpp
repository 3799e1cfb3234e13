// Shared types of the repository benchmark (see README.md in this
// directory): run configuration, the result every workload returns, and
// the small statistics helpers the estimators use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/timer.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one workload run reports.  `correct` is false on any wrong verdict
/// or invalid certificate; such a run exits non-zero.
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Reference lines (raw medians, per-instance tables) printed before the
    /// result line; never gated.
    std::vector<std::string> notes;
};

/// Linear-interpolation percentile (q in [0, 100]) of @p values; 0 when empty.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Samples the workload's set-up time.  The host's speed changes within a
/// run, so besides the repetitions before the measurement one more runs
/// about every second of it, and the minimum over all of them filters the
/// host's slow phases, as the min-of-rounds estimators do.
class SetupSampler {
public:
    /// @p setUp performs one set-up and returns the seconds its timed part took.
    explicit SetupSampler(std::function<double()> setUp) : setUp_(std::move(setUp)) {}

    void sample();
    /// sample() if the last repetition is a second old.
    void sampleIfDue();
    double minSeconds() const;

private:
    std::function<double()> setUp_;
    std::vector<double> seconds_;
    hqs::Timer sinceLast_;
};

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peakRssMb();

/// Deterministic sub-seed for one purpose (@p stream) of a run seed.
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/// 0..n-1 in an order drawn from @p seed.
std::vector<std::size_t> shuffledOrder(std::size_t n, std::uint64_t seed);

/// Instance order of round @p round of a PEC workload.  Round 0 runs the
/// list in order, so the allocation history that sets the peak RSS does not
/// depend on the seed; later rounds run in a seeded order.
std::vector<std::size_t> roundOrder(std::size_t n, std::uint64_t seed, int round);

RunResult runPecSweep(const RunConfig& cfg);
RunResult runServiceMix(const RunConfig& cfg);

} // namespace perfbench
