// Per-layer metrics of the traced run: exclusive (self) times from the
// span tree the program and the benchmark record, counters from the obs
// registry, and figures only the workload itself can observe.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

/// Self time and count per span name.
struct SpanTotals {
    std::map<std::string, double> selfMs;
    std::map<std::string, double> count;

    double self(const std::string& name) const;
    double n(const std::string& name) const;
};

/// Read every span recorded since the last call, compute exclusive times
/// (duration minus the time covered by direct children on the same
/// thread), and drop the records.
SpanTotals drainSpans();

/// Registry snapshot keyed by name.
struct RegistryView {
    std::map<std::string, hqs::obs::MetricValue> values;

    explicit RegistryView(const std::vector<hqs::obs::MetricValue>& snapshot);
    double value(const std::string& name) const; ///< counter/gauge, histogram count
    double sum(const std::string& name) const;   ///< histogram sum
    /// Upper edge of the log2 bucket holding quantile @p q of a histogram.
    double quantileUpper(const std::string& name, double q) const;
};

/// Every per-layer metric of BENCHMARK.json in its fixed order.  Values come
/// from @p spans and @p reg unless @p extra names them (workload-observed
/// figures); metrics a workload cannot observe read 0.
std::vector<Metric> layerMetrics(const SpanTotals& spans, const RegistryView& reg,
                                 const std::map<std::string, double>& extra);

} // namespace perfbench
