// Observability subsystem tests: metrics registry semantics, the span
// tracer (including death-site capture), DIMACS-safe stat lines, and the
// golden-file schema checks for the Chrome trace and the BENCH_*.json
// reports.
//
// The JSON string reader is checked against its former two-pass form.
//
// Golden files live in tests/data/golden/.  Run with
// HQS_UPDATE_GOLDEN=1 in the environment to rewrite them from the current
// output after an intentional format change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/base/rng.hpp"
#include "src/obs/json.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/report.hpp"

using namespace hqs;

namespace {

std::string goldenPath(const std::string& name)
{
    return std::string(HQS_TEST_DATA_DIR) + "/golden/" + name;
}

/// Compare @p actual against the golden file byte-for-byte; with
/// HQS_UPDATE_GOLDEN set, rewrite the golden file instead.
void expectMatchesGolden(const std::string& actual, const std::string& name)
{
    const std::string path = goldenPath(name);
    if (std::getenv("HQS_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with HQS_UPDATE_GOLDEN=1)";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), actual) << "golden mismatch for " << name;
}

// --- metrics registry -------------------------------------------------------

TEST(ObsMetrics, CounterAccumulates)
{
    const obs::MetricId id = obs::metric("test.counter.a", obs::MetricKind::Counter);
    obs::MetricScope scope;
    scope.registry().add(id, 2);
    scope.registry().add(id, 3);
    EXPECT_EQ(scope.value(id), 5);
}

TEST(ObsMetrics, KindMismatchThrows)
{
    obs::metric("test.kind.fixed", obs::MetricKind::Counter);
    EXPECT_EQ(obs::metric("test.kind.fixed", obs::MetricKind::Counter).kind,
              obs::MetricKind::Counter);
    EXPECT_THROW(obs::metric("test.kind.fixed", obs::MetricKind::Gauge),
                 std::logic_error);
}

TEST(ObsMetrics, GaugeKeepsHighWaterMark)
{
    const obs::MetricId id = obs::metric("test.gauge.peak", obs::MetricKind::Gauge);
    obs::MetricScope scope;
    scope.registry().setMax(id, 5);
    scope.registry().setMax(id, 9);
    scope.registry().setMax(id, 3);
    EXPECT_EQ(scope.value(id), 9);
}

TEST(ObsMetrics, HistogramTracksCountSumMaxBuckets)
{
    const obs::MetricId id = obs::metric("test.hist.lat", obs::MetricKind::Histogram);
    obs::MetricScope scope;
    scope.registry().observe(id, 1);
    scope.registry().observe(id, 7);
    scope.registry().observe(id, 100);
    EXPECT_EQ(scope.value(id), 3); // value() of a histogram is its count
    EXPECT_EQ(scope.registry().histogramSum(id), 108);

    bool found = false;
    for (const obs::MetricValue& m : scope.snapshot()) {
        if (m.name != "test.hist.lat") continue;
        found = true;
        EXPECT_EQ(m.kind, obs::MetricKind::Histogram);
        EXPECT_EQ(m.count, 3);
        EXPECT_EQ(m.sum, 108);
        EXPECT_EQ(m.max, 100);
        std::int64_t inBuckets = 0;
        for (std::int64_t b : m.buckets) inBuckets += b;
        EXPECT_EQ(inBuckets, 3);
    }
    EXPECT_TRUE(found);
}

TEST(ObsMetrics, BucketIndexIsMonotonicAndClamped)
{
    EXPECT_EQ(obs::Registry::bucketIndex(-5), 0u);
    EXPECT_EQ(obs::Registry::bucketIndex(0), 0u);
    std::uint32_t prev = 0;
    for (std::int64_t v = 1; v < (std::int64_t{1} << 40); v *= 2) {
        const std::uint32_t b = obs::Registry::bucketIndex(v);
        EXPECT_GE(b, prev);
        EXPECT_LT(b, obs::kHistogramBuckets);
        prev = b;
    }
    EXPECT_EQ(obs::Registry::bucketIndex(std::int64_t{1} << 40),
              obs::kHistogramBuckets - 1);
}

TEST(ObsMetrics, SnapshotIsSortedAndSkipsZeros)
{
    const obs::MetricId za = obs::metric("test.z.sorted", obs::MetricKind::Counter);
    const obs::MetricId ab = obs::metric("test.a.sorted", obs::MetricKind::Counter);
    const obs::MetricId untouched =
        obs::metric("test.m.untouched", obs::MetricKind::Counter);
    obs::MetricScope scope;
    scope.registry().add(za, 1);
    scope.registry().add(ab, 1);

    const std::vector<obs::MetricValue> snap = scope.snapshot();
    std::size_t posA = snap.size(), posZ = snap.size();
    for (std::size_t i = 0; i < snap.size(); ++i) {
        if (snap[i].name == "test.a.sorted") posA = i;
        if (snap[i].name == "test.z.sorted") posZ = i;
        EXPECT_NE(snap[i].name, "test.m.untouched");
    }
    ASSERT_LT(posA, snap.size());
    ASSERT_LT(posZ, snap.size());
    EXPECT_LT(posA, posZ);

    bool sawUntouched = false;
    for (const obs::MetricValue& m : scope.snapshot(/*skipZero=*/false))
        if (m.name == "test.m.untouched") sawUntouched = true;
    EXPECT_TRUE(sawUntouched);
    EXPECT_EQ(scope.value(untouched), 0);
}

TEST(ObsMetrics, MergeAddsCountersAndMaxesGauges)
{
    const obs::MetricId c = obs::metric("test.merge.counter", obs::MetricKind::Counter);
    const obs::MetricId g = obs::metric("test.merge.gauge", obs::MetricKind::Gauge);
    const obs::MetricId h = obs::metric("test.merge.hist", obs::MetricKind::Histogram);
    obs::Registry a, b;
    a.add(c, 2);
    b.add(c, 3);
    a.setMax(g, 10);
    b.setMax(g, 7);
    a.observe(h, 4);
    b.observe(h, 20);
    b.mergeInto(a);
    EXPECT_EQ(a.value(c), 5);
    EXPECT_EQ(a.value(g), 10);
    EXPECT_EQ(a.value(h), 2);
    EXPECT_EQ(a.histogramSum(h), 24);
    for (const obs::MetricValue& m : a.snapshot()) {
        if (m.name == "test.merge.hist") {
            EXPECT_EQ(m.max, 20);
        }
    }
}

TEST(ObsMetrics, ScopesNestAndMergeIntoParent)
{
    const obs::MetricId id = obs::metric("test.scope.nest", obs::MetricKind::Counter);
    obs::MetricScope outer;
    {
        obs::MetricScope inner;
        obs::currentRegistry().add(id, 3);
        EXPECT_EQ(inner.value(id), 3);
        EXPECT_EQ(outer.value(id), 0); // not merged yet
    }
    EXPECT_EQ(outer.value(id), 3);
}

TEST(ObsMetrics, BindRegistryRoutesWorkerThread)
{
    const obs::MetricId id = obs::metric("test.bind.worker", obs::MetricKind::Counter);
    obs::MetricScope scope;
    std::thread worker([&scope, id] {
        obs::BindRegistry bind(scope.registry());
        obs::currentRegistry().add(id, 7);
    });
    worker.join();
    EXPECT_EQ(scope.value(id), 7);
}

#if HQS_OBS_ENABLED
TEST(ObsMetrics, MacrosUpdateCurrentScope)
{
    obs::MetricScope scope;
    OBS_COUNT("test.macro.count", 1);
    OBS_COUNT("test.macro.count", 4);
    OBS_GAUGE_MAX("test.macro.gauge", 11);
    OBS_GAUGE_MAX("test.macro.gauge", 6);
    OBS_OBSERVE("test.macro.hist", 42);
    EXPECT_EQ(scope.value(obs::metric("test.macro.count", obs::MetricKind::Counter)), 5);
    EXPECT_EQ(scope.value(obs::metric("test.macro.gauge", obs::MetricKind::Gauge)), 11);
    EXPECT_EQ(scope.value(obs::metric("test.macro.hist", obs::MetricKind::Histogram)),
              1);
}
#endif // HQS_OBS_ENABLED

TEST(ObsMetrics, PhaseScopeAccumulatesDuration)
{
    const obs::MetricId id = obs::metric("test.phase.us", obs::MetricKind::Counter);
    obs::MetricScope scope;
    {
        obs::PhaseScope phase("test.phase.span", id);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // 2 ms of wall time must register at least ~1000 µs even on a coarse
    // clock.
    EXPECT_GE(scope.value(id), 1000);
}

// --- span tracer ------------------------------------------------------------

TEST(ObsTrace, DisabledSpansRecordNothing)
{
    obs::enableTracing(false);
    obs::clearTrace();
    {
        obs::SpanScope a("quiet.outer");
        obs::SpanScope b("quiet.inner");
    }
    EXPECT_EQ(obs::traceSpanCount(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansWithArgs)
{
    obs::enableTracing(true);
    obs::clearTrace();
    {
        obs::SpanScope outer("t.outer");
        {
            obs::SpanScope inner("t.inner");
            inner.arg("nodes", 42);
        }
    }
    obs::enableTracing(false);
    EXPECT_EQ(obs::traceSpanCount(), 2u);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"t.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"t.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"nodes\":42}"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    obs::clearTrace();
}

TEST(ObsTrace, StringArgsExportAsJsonStrings)
{
    obs::enableTracing(true);
    obs::clearTrace();
    {
        obs::SpanScope span("t.sweep");
        span.arg("trigger", "near-budget");
        span.arg("nodes", 7);
    }
    obs::enableTracing(false);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    EXPECT_NE(os.str().find("\"args\":{\"trigger\":\"near-budget\",\"nodes\":7}"),
              std::string::npos)
        << os.str();
    obs::clearTrace();
}

TEST(ObsTrace, CurrentSpanNameTracksInnermost)
{
    EXPECT_STREQ(obs::currentSpanName(), "");
    obs::SpanScope outer("n.outer");
    EXPECT_STREQ(obs::currentSpanName(), "n.outer");
    {
        obs::SpanScope inner("n.inner");
        EXPECT_STREQ(obs::currentSpanName(), "n.inner");
    }
    EXPECT_STREQ(obs::currentSpanName(), "n.outer");
}

TEST(ObsTrace, DeathSiteNamesInnermostUnwoundSpan)
{
    obs::clearDeathSite();
    try {
        obs::SpanScope outer("die.outer");
        obs::SpanScope inner("die.inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    EXPECT_STREQ(obs::deathSite(), "die.inner");
    obs::clearDeathSite();
    EXPECT_STREQ(obs::deathSite(), "");
}

TEST(ObsTrace, SpanAfterCatchDoesNotFakeDeathSite)
{
    obs::clearDeathSite();
    try {
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
        obs::SpanScope cleanup("handled.cleanup");
    }
    {
        obs::SpanScope calm("calm.span");
    }
    EXPECT_STREQ(obs::deathSite(), "");
}

// --- reports ----------------------------------------------------------------

TEST(ObsReport, StatLinesAreDimacsComments)
{
    std::vector<obs::MetricValue> metrics;
    obs::MetricValue c;
    c.name = "hqs.elim.universal";
    c.kind = obs::MetricKind::Counter;
    c.value = 3;
    metrics.push_back(c);
    obs::MetricValue h;
    h.name = "pool.queue_latency_us";
    h.kind = obs::MetricKind::Histogram;
    h.count = 2;
    h.sum = 30;
    h.max = 25;
    metrics.push_back(h);

    std::ostringstream os;
    obs::writeStatLines(os, metrics);
    EXPECT_EQ(os.str(), "c stat hqs.elim.universal 3\n"
                        "c stat pool.queue_latency_us.count 2\n"
                        "c stat pool.queue_latency_us.sum 30\n"
                        "c stat pool.queue_latency_us.max 25\n");
}

TEST(ObsReport, ChromeTraceMatchesGoldenSchema)
{
    obs::enableTracing(true);
    obs::clearTrace();
    {
        obs::SpanScope solve("hqs.solve");
        {
            obs::SpanScope prep("hqs.preprocess");
            prep.arg("gates", 5);
        }
        {
            obs::SpanScope qbf("hqs.qbf_backend");
        }
    }
    obs::enableTracing(false);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    obs::clearTrace();

    // Timestamps, durations, and thread ordinals vary run to run; zero them
    // so the golden comparison pins structure and schema only.
    std::string json = os.str();
    for (const char* key : {"\"ts\":", "\"dur\":", "\"tid\":"}) {
        std::size_t pos = 0;
        while ((pos = json.find(key, pos)) != std::string::npos) {
            pos += std::string(key).size();
            std::size_t end = pos;
            while (end < json.size() &&
                   (std::isdigit(static_cast<unsigned char>(json[end])) ||
                    json[end] == '.'))
                ++end;
            json.replace(pos, end - pos, "0");
        }
    }
    expectMatchesGolden(json, "chrome_trace.json");
}

TEST(ObsReport, BenchTable1MatchesGoldenSchema)
{
    obs::BenchTable1Report report;
    report.timeoutSeconds = 2.5;
    report.hqsNodeLimit = 200000;
    report.idqGroundClauseLimit = 400000;
    obs::BenchFamilyRow row;
    row.family = "adder";
    row.instances = 4;
    row.hqs = {2, 1, 1, 0, 123.5};
    row.idq = {1, 1, 1, 1, 980.25};
    row.wrongResults = 0;
    report.families.push_back(row);
    // v2: per-instance certification rows (one certified SAT, one UNSAT
    // with the certification cells at their defaults).
    obs::BenchInstanceRow sat;
    sat.name = "adder_w3_sat";
    sat.family = "adder";
    sat.hqsResult = "SAT";
    sat.certified = true;
    sat.certValid = true;
    sat.certExtractMs = 1.5;
    sat.certCheckMs = 2.25;
    sat.certSizeNodes = 169;
    sat.portfolioWinnerFamily = "cegar";
    report.instances.push_back(sat);
    obs::BenchInstanceRow unsat;
    unsat.name = "adder_w3_unsat";
    unsat.family = "adder";
    unsat.hqsResult = "UNSAT";
    report.instances.push_back(unsat);
    // v3: per-engine-family portfolio columns.
    report.familySolved = {{"cegar", 1}, {"elimination", 2}};
    report.familyWins = {{"cegar", 1}, {"elimination", 1}};
    report.hqsSolvedTotal = 3;
    report.idqSolvedTotal = 2;
    report.solvedUnderOneSecond = 3;
    report.hqsOnlySolved = 1;
    report.maxMaxSatMs = 12.75;
    report.unitPureShareMax = 0.03125;
    report.wrongResults = 0;
    obs::MetricValue m;
    m.name = "hqs.elim.universal";
    m.kind = obs::MetricKind::Counter;
    m.value = 17;
    report.metrics.push_back(m);

    std::ostringstream os;
    obs::writeBenchTable1Json(os, report);
    expectMatchesGolden(os.str(), "bench_table1.json");
}

TEST(ObsReport, BenchMicroMatchesGoldenSchema)
{
    obs::BenchMicroReport report;
    report.overheadNs = {{"span_disarmed_ns", 2.25}, {"counter_add_ns", 9.5}};
    obs::BenchMicroRow row;
    row.name = "BM_ObsSpanDisarmed";
    row.iterations = 1000000;
    row.realNs = 2.25;
    row.cpuNs = 2.125;
    row.itemsPerSecond = 444444444.0;
    report.benchmarks.push_back(row);
    obs::BenchMicroRow bare;
    bare.name = "BM_FraigReduce/500";
    bare.iterations = 32;
    bare.realNs = 1500000.5;
    bare.cpuNs = 1499000.25;
    report.benchmarks.push_back(bare);
    obs::BenchMicroRow kernel;
    kernel.name = "BM_GcMarkCompact/10000";
    kernel.iterations = 128;
    kernel.realNs = 80000.0;
    kernel.cpuNs = 79500.0;
    kernel.itemsPerSecond = 125000000.0;
    report.benchmarks.push_back(kernel);

    std::ostringstream os;
    obs::writeBenchMicroJson(os, report);
    expectMatchesGolden(os.str(), "bench_micro.json");
}

TEST(ObsReport, MetricsJsonRendersHistograms)
{
    std::vector<obs::MetricValue> metrics;
    obs::MetricValue h;
    h.name = "lat";
    h.kind = obs::MetricKind::Histogram;
    h.count = 2;
    h.sum = 6;
    h.max = 5;
    h.buckets[1] = 1;
    h.buckets[3] = 1;
    metrics.push_back(h);
    std::ostringstream os;
    obs::writeMetricsJson(os, metrics);
    // Trailing zero buckets are trimmed: buckets up to index 3 survive.
    EXPECT_EQ(os.str(), "{\n"
                        "  \"lat\": {\n"
                        "    \"count\": 2,\n"
                        "    \"sum\": 6,\n"
                        "    \"max\": 5,\n"
                        "    \"buckets\": [\n"
                        "      0,\n"
                        "      1,\n"
                        "      0,\n"
                        "      1\n"
                        "    ]\n"
                        "  }\n"
                        "}\n");
}

// --- JSON string reader --------------------------------------------------------

/// The reader as it was before it decoded in one walk: a first walk sized
/// the output, a second copied it.  Kept as the reference for the reader.
bool twoPassStringField(const std::string& obj, const std::string& key, std::string& out)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t start = obj.find(needle);
    if (start == std::string::npos) return false;
    out.clear();
    std::size_t i = start + needle.size();
    std::size_t close = i;
    while (close < obj.size() && obj[close] != '"') close += obj[close] == '\\' ? 2 : 1;
    out.reserve(std::min(close, obj.size()) - i);
    auto hexValue = [](char c) {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
    };
    while (i < obj.size()) {
        std::size_t runEnd = i;
        while (runEnd < obj.size() && obj[runEnd] != '"' && obj[runEnd] != '\\') ++runEnd;
        out.append(obj, i, runEnd - i);
        i = runEnd;
        if (i == obj.size()) break;
        if (obj[i] == '"') return true;
        if (i + 1 >= obj.size()) return false;
        switch (obj[i + 1]) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (i + 5 >= obj.size()) return false;
                unsigned code = 0;
                for (std::size_t k = i + 2; k < i + 6; ++k) {
                    const int digit = hexValue(obj[k]);
                    if (digit < 0) return false;
                    code = code * 16 + static_cast<unsigned>(digit);
                }
                if (code > 0xff) return false;
                out.push_back(static_cast<char>(code));
                i += 4;
                break;
            }
            default: return false;
        }
        i += 2;
    }
    return false;
}

void expectSameDecode(const std::string& obj)
{
    std::string want = "stale", got = "stale";
    const bool wantOk = twoPassStringField(obj, "f", want);
    const bool gotOk = obs::jsonStringField(obj, "f", got);
    ASSERT_EQ(gotOk, wantOk) << obj;
    ASSERT_EQ(got, want) << obj;
}

TEST(Json, StringFieldMatchesTwoPassReaderOnRandomEscapedStrings)
{
    Rng rng(29);
    for (int n = 0; n < 200000; ++n) {
        std::string value(rng.below(24), '\0');
        for (char& c : value) c = static_cast<char>(rng.below(256));
        const std::string obj = "{\"id\":\"x\",\"f\":\"" + obs::jsonEscape(value) + "\",\"g\":1}";
        expectSameDecode(obj);
        // The line torn at a random point: unterminated, or a cut escape.
        expectSameDecode(obj.substr(0, rng.below(obj.size() + 1)));
        // Unescaped text over escape characters: arbitrary malformed escapes.
        std::string raw(rng.below(12), '\0');
        for (char& c : raw) c = "\\\"u0fFz9nrt"[rng.below(11)];
        expectSameDecode("{\"f\":\"" + raw);
    }
}

TEST(Json, StringFieldMatchesTwoPassReaderOnMalformedEscapes)
{
    for (const char* obj : {
             R"({"f":"a\u00zz"})",  // bad hex digit
             R"({"f":"a\u0g41"})",  // bad hex digit, upper position
             R"({"f":"a\u0100"})",  // above \u00ff
             R"({"f":"a\uffff"})",  // far above \u00ff
             R"({"f":"a\u00ff"})",  // the largest byte
             R"({"f":"a\u00)",      // truncated \u
             R"({"f":"a\x41"})",    // unknown escape
             R"({"f":"abc\)",       // escape at the end of the line
             R"({"f":"abc)",        // unterminated
             R"({"f":"")",          // empty, then nothing
             R"({"f":"\\\""})",   // escaped backslash, escaped quote
         }) {
        expectSameDecode(obj);
    }
}

} // namespace
