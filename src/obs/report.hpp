// Machine-readable reporting: DIMACS-safe stat lines, metrics-registry JSON,
// and the schema-versioned bench reports (BENCH_table1.json /
// BENCH_micro.json) written by the `bench_report` target.
//
// All JSON here is hand-rolled through JsonWriter — deterministic key order
// and formatting, so the golden-file tests can compare byte-for-byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"

namespace hqs::obs {

/// Minimal streaming JSON writer with stable, pretty-printed output
/// (2-space indent, "%.6g" doubles).  The caller supplies structure; the
/// writer supplies commas, quoting, and escaping.
class JsonWriter {
public:
    explicit JsonWriter(std::ostream& os) : os_(os) {}

    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();
    JsonWriter& key(const std::string& k);
    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter& value(unsigned v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter& value(std::uint64_t v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter& value(bool v);

private:
    struct Level {
        bool array;
        int count;
    };
    void beforeValue();
    void newlineIndent();

    std::ostream& os_;
    std::vector<Level> stack_;
    bool pendingKey_ = false;
};

/// Print one `c stat <name> <value>` line per metric — safe to interleave
/// with DIMACS/QDIMACS output, which treats 'c' lines as comments.
/// Histograms expand to `<name>.count`, `<name>.sum`, and `<name>.max`.
void writeStatLines(std::ostream& os, const std::vector<MetricValue>& metrics);

/// JSON object mapping metric name to value; histograms become
/// {"count":..,"sum":..,"max":..,"buckets":[..]} with trailing zero buckets
/// trimmed.  Used for the per-instance "metrics" blocks in bench reports.
void writeMetricsJson(JsonWriter& w, const std::vector<MetricValue>& metrics);
void writeMetricsJson(std::ostream& os, const std::vector<MetricValue>& metrics);

/// Render @p metrics in the Prometheus text exposition format (the solver
/// service's GET /metrics payload).  Names are prefixed "hqs_" and every
/// character outside [a-zA-Z0-9_] becomes '_'; counters and gauges emit one
/// sample, histograms emit cumulative `_bucket{le="..."}` samples at the
/// log2 bucket upper bounds plus `_sum` and `_count`.  Deterministic output
/// (metrics arrive sorted from Registry::snapshot).
void writePrometheusText(std::ostream& os, const std::vector<MetricValue>& metrics);

/// Prometheus-safe name for one metric: "hqs_" + sanitized @p name.
std::string prometheusName(const std::string& name);

/// Upper-bound estimate of the @p q quantile (0 < q <= 1) of a log2
/// histogram MetricValue: the upper edge of the bucket holding the rank,
/// clamped to the observed max (exact for the top bucket).  Returns 0 for
/// an empty histogram or a non-histogram value.
double histogramQuantile(const MetricValue& h, double q);

// ---------------------------------------------------------------------------
// BENCH_service.json  (schema "hqs-bench-service/v4")
// ---------------------------------------------------------------------------

/// Latency quantiles in microseconds, distilled from a log2 histogram via
/// histogramQuantile.
struct BenchServiceLatency {
    double p50Us = 0;
    double p90Us = 0;
    double p99Us = 0;
    double maxUs = 0;
    double meanUs = 0;
};

BenchServiceLatency latencyFromHistogram(const MetricValue& h);

struct BenchServiceReport {
    // Load parameters.
    int connections = 0;
    int requests = 0;
    std::uint64_t maxInflight = 0;
    std::uint64_t maxQueue = 0;
    bool jsonlMode = false;
    /// Supervised worker processes serving the run; 0 = in-process service
    /// (no fleet, the PR-4-compatible baseline row).
    int workers = 0;
    /// Row ran with the result cache enabled: the repeated workload is
    /// answered from the cache after the first solve.
    bool cacheEnabled = false;

    // Outcome counts: every request resolved into exactly one of these.
    int ok = 0;
    int rejected = 0; ///< 429 / busy rows
    int errors = 0;   ///< transport failures, non-2xx other than 429
    /// Client re-sent attempts: fleet rows ride through worker startup and
    /// respawn windows on the bounded-retry path.
    std::uint64_t retries = 0;

    double wallMs = 0;
    double throughputRps = 0;
    BenchServiceLatency latency; ///< client-observed request latency
    /// Requests answered from the result cache (0 on fleet rows: the
    /// counters live in the forked workers).
    std::uint64_t cacheHits = 0;

    // Session matrix (v4): cold vs session-reuse over a delta family.
    /// Row solved its workload through one open session (`open` + delta
    /// solves) instead of independent stateless requests.
    bool sessionMode = false;
    /// Number of instances in the delta family the row solved (0 = not a
    /// session-matrix row; the plain throughput rows leave this unset).
    int deltaFamily = 0;
    /// session.reuse over the run: connected components answered from the
    /// session's per-component memo instead of re-elimination.
    std::uint64_t sessionReuses = 0;
    /// session.cone_nodes_saved over the run: AIG nodes of the reused cones
    /// that were never rebuilt.
    std::uint64_t coneNodesSaved = 0;

    /// Registry snapshot of the run (service.* counters, solve latency).
    /// Empty on fleet rows: the solves happen in forked workers, whose
    /// registries die with them.
    std::vector<MetricValue> metrics;
};

/// v4 report: one entry in "runs":[...] per (fleet size, cache) cell plus
/// the session matrix (cold vs session-reuse over a delta family).
void writeBenchServiceJson(std::ostream& os,
                           const std::vector<BenchServiceReport>& runs);

// ---------------------------------------------------------------------------
// BENCH_table1.json  (schema "hqs-bench-table1/v3")
// ---------------------------------------------------------------------------

/// One solver's cells of a Table I row.
struct BenchSolverCells {
    int sat = 0;
    int unsat = 0;
    int timeout = 0;
    int memout = 0;
    double commonMs = 0; ///< total time on instances solved by both solvers
};

struct BenchFamilyRow {
    std::string family;
    int instances = 0;
    BenchSolverCells hqs;
    BenchSolverCells idq;
    int wrongResults = 0;
};

/// One instance's certification cells of the v2 report: whether a Skolem
/// certificate was extracted for the HQS verdict, whether the independent
/// checker accepted it, and what it cost.  All-default on UNSAT/unresolved
/// instances (certified stays false).
struct BenchInstanceRow {
    std::string name;       ///< instance file stem
    std::string family;     ///< family the instance was benched under
    std::string hqsResult;  ///< "SAT", "UNSAT", ...
    bool certified = false; ///< a certificate was extracted
    bool certValid = false; ///< the independent checker accepted it
    double certExtractMs = 0;      ///< extraction + serialization
    double certCheckMs = 0;        ///< independent check (one SAT call)
    std::int64_t certSizeNodes = 0; ///< AND nodes across the function cones
    /// v3: engine family (api::engineFamily) of the racer that won this
    /// instance's portfolio race ("" when the race was inconclusive).
    std::string portfolioWinnerFamily;
};

struct BenchTable1Report {
    // Suite parameters (the scaled-down regime the numbers were produced in).
    double timeoutSeconds = 0;
    std::uint64_t hqsNodeLimit = 0;
    std::uint64_t idqGroundClauseLimit = 0;

    std::vector<BenchFamilyRow> families; ///< per-family rows + computed total
    /// v2: per-instance certification outcomes (one row per benched
    /// instance, in bench order).
    std::vector<BenchInstanceRow> instances;
    /// v3: per-engine-family portfolio columns, in sorted family order.
    /// "solved" counts instances where a racer of that family reached a
    /// conclusive verdict before the race cancelled it; "wins" counts the
    /// races that family's racer decided.
    std::vector<std::pair<std::string, int>> familySolved;
    std::vector<std::pair<std::string, int>> familyWins;

    // Section IV aggregates.
    int hqsSolvedTotal = 0;
    int idqSolvedTotal = 0;
    int solvedUnderOneSecond = 0;
    int hqsOnlySolved = 0;
    double maxMaxSatMs = 0;
    double unitPureShareMax = 0;
    int wrongResults = 0;

    /// Registry snapshot of the whole run (phase timings, eliminations, ...).
    std::vector<MetricValue> metrics;
};

void writeBenchTable1Json(std::ostream& os, const BenchTable1Report& report);

// ---------------------------------------------------------------------------
// BENCH_micro.json  (schema "hqs-bench-micro/v1")
// ---------------------------------------------------------------------------

struct BenchMicroRow {
    std::string name; ///< full benchmark name, e.g. "BM_AigConstruction/1000"
    std::int64_t iterations = 0;
    double realNs = 0; ///< mean wall time per iteration
    double cpuNs = 0;  ///< mean CPU time per iteration
    double itemsPerSecond = 0; ///< 0 when the benchmark reports none
};

struct BenchMicroReport {
    std::vector<BenchMicroRow> benchmarks;
    /// Named per-operation overhead costs distilled from the rows
    /// (span_disarmed_ns, counter_add_ns, checkpoint_disarmed_ns, ...).
    std::vector<std::pair<std::string, double>> overheadNs;
};

void writeBenchMicroJson(std::ostream& os, const BenchMicroReport& report);

} // namespace hqs::obs
