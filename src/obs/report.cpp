#include "src/obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/obs/json.hpp"

namespace hqs::obs {

// --------------------------------------------------------------------------
// JsonWriter
// --------------------------------------------------------------------------

void JsonWriter::newlineIndent()
{
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (stack_.empty()) return;
    if (stack_.back().count > 0) os_ << ',';
    ++stack_.back().count;
    newlineIndent();
}

JsonWriter& JsonWriter::beginObject()
{
    beforeValue();
    os_ << '{';
    stack_.push_back({false, 0});
    return *this;
}

JsonWriter& JsonWriter::endObject()
{
    const bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty) newlineIndent();
    os_ << '}';
    if (stack_.empty()) os_ << '\n';
    return *this;
}

JsonWriter& JsonWriter::beginArray()
{
    beforeValue();
    os_ << '[';
    stack_.push_back({true, 0});
    return *this;
}

JsonWriter& JsonWriter::endArray()
{
    const bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty) newlineIndent();
    os_ << ']';
    return *this;
}

JsonWriter& JsonWriter::key(const std::string& k)
{
    if (stack_.back().count > 0) os_ << ',';
    ++stack_.back().count;
    newlineIndent();
    os_ << '"' << jsonEscape(k) << "\": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(const std::string& v)
{
    beforeValue();
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v)
{
    beforeValue();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os_ << buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

// --------------------------------------------------------------------------
// Metric formatting
// --------------------------------------------------------------------------

void writeStatLines(std::ostream& os, const std::vector<MetricValue>& metrics)
{
    for (const MetricValue& m : metrics) {
        if (m.kind == MetricKind::Histogram) {
            os << "c stat " << m.name << ".count " << m.count << '\n';
            os << "c stat " << m.name << ".sum " << m.sum << '\n';
            os << "c stat " << m.name << ".max " << m.max << '\n';
        } else {
            os << "c stat " << m.name << ' ' << m.value << '\n';
        }
    }
}

void writeMetricsJson(JsonWriter& w, const std::vector<MetricValue>& metrics)
{
    w.beginObject();
    for (const MetricValue& m : metrics) {
        w.key(m.name);
        if (m.kind == MetricKind::Histogram) {
            w.beginObject();
            w.key("count").value(m.count);
            w.key("sum").value(m.sum);
            w.key("max").value(m.max);
            std::uint32_t last = kHistogramBuckets;
            while (last > 0 && m.buckets[last - 1] == 0) --last;
            w.key("buckets").beginArray();
            for (std::uint32_t b = 0; b < last; ++b) w.value(m.buckets[b]);
            w.endArray();
            w.endObject();
        } else {
            w.value(m.value);
        }
    }
    w.endObject();
}

void writeMetricsJson(std::ostream& os, const std::vector<MetricValue>& metrics)
{
    JsonWriter w(os);
    writeMetricsJson(w, metrics);
}

// --------------------------------------------------------------------------
// BENCH_table1.json
// --------------------------------------------------------------------------

namespace {

void writeSolverCells(JsonWriter& w, const BenchSolverCells& c)
{
    w.beginObject();
    w.key("solved").value(c.sat + c.unsat);
    w.key("sat").value(c.sat);
    w.key("unsat").value(c.unsat);
    w.key("timeout").value(c.timeout);
    w.key("memout").value(c.memout);
    w.key("common_time_ms").value(c.commonMs);
    w.endObject();
}

} // namespace

void writeBenchTable1Json(std::ostream& os, const BenchTable1Report& report)
{
    JsonWriter w(os);
    w.beginObject();
    // v3: the report grew the "portfolio" block (per-engine-family solved
    // and win columns) and the per-instance "portfolio_winner_family" cell.
    // v2 added the per-instance "instances" array — certification outcome,
    // extract/check time, and certificate size for every benched instance —
    // alongside the unchanged family rows and aggregates.
    w.key("schema").value("hqs-bench-table1/v3");
    w.key("params").beginObject();
    w.key("timeout_seconds").value(report.timeoutSeconds);
    w.key("hqs_node_limit").value(report.hqsNodeLimit);
    w.key("idq_ground_clause_limit").value(report.idqGroundClauseLimit);
    w.endObject();
    w.key("families").beginArray();
    for (const BenchFamilyRow& row : report.families) {
        w.beginObject();
        w.key("family").value(row.family);
        w.key("instances").value(row.instances);
        w.key("hqs");
        writeSolverCells(w, row.hqs);
        w.key("idq");
        writeSolverCells(w, row.idq);
        w.key("wrong_results").value(row.wrongResults);
        w.endObject();
    }
    w.endArray();
    w.key("instances").beginArray();
    for (const BenchInstanceRow& row : report.instances) {
        w.beginObject();
        w.key("name").value(row.name);
        w.key("family").value(row.family);
        w.key("hqs_result").value(row.hqsResult);
        w.key("certified").value(row.certified);
        w.key("cert_valid").value(row.certValid);
        w.key("cert_extract_ms").value(row.certExtractMs);
        w.key("cert_check_ms").value(row.certCheckMs);
        w.key("cert_size_nodes").value(row.certSizeNodes);
        w.key("portfolio_winner_family").value(row.portfolioWinnerFamily);
        w.endObject();
    }
    w.endArray();
    w.key("portfolio").beginObject();
    w.key("family_solved").beginObject();
    for (const auto& [family, n] : report.familySolved) w.key(family).value(n);
    w.endObject();
    w.key("family_wins").beginObject();
    for (const auto& [family, n] : report.familyWins) w.key(family).value(n);
    w.endObject();
    w.endObject();
    w.key("aggregates").beginObject();
    w.key("hqs_solved_total").value(report.hqsSolvedTotal);
    w.key("idq_solved_total").value(report.idqSolvedTotal);
    w.key("solved_under_one_second").value(report.solvedUnderOneSecond);
    w.key("hqs_only_solved").value(report.hqsOnlySolved);
    w.key("max_maxsat_ms").value(report.maxMaxSatMs);
    w.key("unit_pure_share_max").value(report.unitPureShareMax);
    w.key("wrong_results").value(report.wrongResults);
    w.endObject();
    w.key("metrics");
    writeMetricsJson(w, report.metrics);
    w.endObject();
}

// --------------------------------------------------------------------------
// BENCH_micro.json
// --------------------------------------------------------------------------

void writeBenchMicroJson(std::ostream& os, const BenchMicroReport& report)
{
    JsonWriter w(os);
    w.beginObject();
    // v2: the benchmark list grew the AIG-kernel rows (strash hit path,
    // Substitution-based compose, mark-compact GC) introduced with the
    // dense-strash manager.
    w.key("schema").value("hqs-bench-micro/v2");
    w.key("overhead_ns").beginObject();
    for (const auto& [name, ns] : report.overheadNs) w.key(name).value(ns);
    w.endObject();
    w.key("benchmarks").beginArray();
    for (const BenchMicroRow& row : report.benchmarks) {
        w.beginObject();
        w.key("name").value(row.name);
        w.key("iterations").value(row.iterations);
        w.key("real_ns").value(row.realNs);
        w.key("cpu_ns").value(row.cpuNs);
        if (row.itemsPerSecond > 0) w.key("items_per_second").value(row.itemsPerSecond);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// --------------------------------------------------------------------------
// Prometheus text exposition
// --------------------------------------------------------------------------

std::string prometheusName(const std::string& name)
{
    std::string out = "hqs_";
    out.reserve(name.size() + 4);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void writePrometheusText(std::ostream& os, const std::vector<MetricValue>& metrics)
{
    for (const MetricValue& m : metrics) {
        const std::string name = prometheusName(m.name);
        switch (m.kind) {
            case MetricKind::Counter:
                os << "# TYPE " << name << " counter\n";
                os << name << ' ' << m.value << '\n';
                break;
            case MetricKind::Gauge:
                os << "# TYPE " << name << " gauge\n";
                os << name << ' ' << m.value << '\n';
                break;
            case MetricKind::Histogram: {
                os << "# TYPE " << name << " histogram\n";
                // Bucket i of the registry counts values in [2^(i-1), 2^i);
                // Prometheus buckets are cumulative with inclusive upper
                // bounds, so emit le="2^i" edges and fold the clamped top
                // bucket into +Inf.
                std::int64_t cumulative = 0;
                for (std::uint32_t i = 0; i + 1 < kHistogramBuckets; ++i) {
                    cumulative += m.buckets[i];
                    os << name << "_bucket{le=\"" << (std::int64_t{1} << i) << "\"} "
                       << cumulative << '\n';
                }
                os << name << "_bucket{le=\"+Inf\"} " << m.count << '\n';
                os << name << "_sum " << m.sum << '\n';
                os << name << "_count " << m.count << '\n';
                break;
            }
        }
    }
}

double histogramQuantile(const MetricValue& h, double q)
{
    if (h.kind != MetricKind::Histogram || h.count <= 0) return 0;
    if (q <= 0) return 0;
    if (q > 1) q = 1;
    const auto rank = static_cast<std::int64_t>(q * static_cast<double>(h.count) + 0.5);
    std::int64_t cumulative = 0;
    for (std::uint32_t i = 0; i < kHistogramBuckets; ++i) {
        cumulative += h.buckets[i];
        if (cumulative >= rank) {
            const double upper = i + 1 == kHistogramBuckets
                                     ? static_cast<double>(h.max)
                                     : static_cast<double>(std::int64_t{1} << i);
            return std::min(upper, static_cast<double>(h.max));
        }
    }
    return static_cast<double>(h.max);
}

BenchServiceLatency latencyFromHistogram(const MetricValue& h)
{
    BenchServiceLatency l;
    if (h.kind != MetricKind::Histogram || h.count == 0) return l;
    l.p50Us = histogramQuantile(h, 0.50);
    l.p90Us = histogramQuantile(h, 0.90);
    l.p99Us = histogramQuantile(h, 0.99);
    l.maxUs = static_cast<double>(h.max);
    l.meanUs = static_cast<double>(h.sum) / static_cast<double>(h.count);
    return l;
}

// --------------------------------------------------------------------------
// BENCH_service.json
// --------------------------------------------------------------------------

void writeBenchServiceJson(std::ostream& os, const std::vector<BenchServiceReport>& runs)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("hqs-bench-service/v4");
    w.key("runs").beginArray();
    for (const BenchServiceReport& report : runs) {
        w.beginObject();
        w.key("params").beginObject();
        w.key("workers").value(report.workers);
        w.key("connections").value(report.connections);
        w.key("requests").value(report.requests);
        w.key("max_inflight").value(report.maxInflight);
        w.key("max_queue").value(report.maxQueue);
        w.key("mode").value(report.jsonlMode ? "jsonl" : "http");
        w.key("cache").value(report.cacheEnabled);
        w.key("session").value(report.sessionMode);
        if (report.deltaFamily != 0) w.key("delta_family").value(report.deltaFamily);
        w.endObject();
        w.key("results").beginObject();
        w.key("ok").value(report.ok);
        w.key("rejected").value(report.rejected);
        w.key("errors").value(report.errors);
        w.key("retries").value(report.retries);
        w.key("cache_hits").value(report.cacheHits);
        if (report.deltaFamily != 0) {
            w.key("session_reuses").value(report.sessionReuses);
            w.key("cone_nodes_saved").value(report.coneNodesSaved);
        }
        w.key("wall_ms").value(report.wallMs);
        w.key("throughput_rps").value(report.throughputRps);
        w.key("latency_us").beginObject();
        w.key("p50").value(report.latency.p50Us);
        w.key("p90").value(report.latency.p90Us);
        w.key("p99").value(report.latency.p99Us);
        w.key("max").value(report.latency.maxUs);
        w.key("mean").value(report.latency.meanUs);
        w.endObject();
        w.endObject();
        w.key("metrics");
        writeMetricsJson(w, report.metrics);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace hqs::obs
