#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>

#include "src/obs/trace.hpp"

namespace perfbench {

double SpanTotals::self(const std::string& name) const
{
    const auto it = selfMs.find(name);
    return it == selfMs.end() ? 0.0 : it->second;
}

double SpanTotals::n(const std::string& name) const
{
    const auto it = count.find(name);
    return it == count.end() ? 0.0 : it->second;
}

namespace {

struct Span {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t childNs = 0;
};

/// Chrome-trace microsecond value with three decimals -> nanoseconds.
std::uint64_t parseMicros(const std::string& s, std::size_t pos)
{
    std::uint64_t whole = 0, frac = 0;
    int fracDigits = 0;
    bool inFrac = false;
    for (; pos < s.size(); ++pos) {
        const char c = s[pos];
        if (c == '.') {
            inFrac = true;
        } else if (c >= '0' && c <= '9') {
            if (!inFrac) {
                whole = whole * 10 + static_cast<std::uint64_t>(c - '0');
            } else if (fracDigits < 3) {
                frac = frac * 10 + static_cast<std::uint64_t>(c - '0');
                ++fracDigits;
            }
        } else {
            break;
        }
    }
    for (; fracDigits < 3; ++fracDigits) frac *= 10;
    return whole * 1000 + frac;
}

std::uint64_t fieldAfter(const std::string& s, const char* key, std::size_t from,
                         std::size_t limit)
{
    const std::size_t at = s.find(key, from);
    if (at == std::string::npos || at > limit) return 0;
    return parseMicros(s, at + std::char_traits<char>::length(key));
}

} // namespace

SpanTotals drainSpans()
{
    std::ostringstream os;
    hqs::obs::writeChromeTrace(os);
    hqs::obs::clearTrace();
    const std::string json = os.str();

    // tid -> spans recorded on that thread.
    std::map<std::uint64_t, std::vector<Span>> byThread;
    static constexpr char kOpen[] = "{\"name\":\"";
    std::size_t pos = 0;
    while ((pos = json.find(kOpen, pos)) != std::string::npos) {
        const std::size_t nameStart = pos + sizeof(kOpen) - 1;
        const std::size_t nameEnd = json.find('"', nameStart);
        const std::size_t objEnd = json.find('}', nameEnd);
        Span sp;
        sp.name = json.substr(nameStart, nameEnd - nameStart);
        sp.start = fieldAfter(json, "\"ts\":", nameEnd, objEnd);
        sp.end = sp.start + fieldAfter(json, "\"dur\":", nameEnd, objEnd);
        const std::uint64_t tid = fieldAfter(json, "\"tid\":", nameEnd, objEnd) / 1000;
        byThread[tid].push_back(std::move(sp));
        pos = objEnd;
    }

    SpanTotals out;
    for (auto& [tid, spans] : byThread) {
        std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
            return a.start != b.start ? a.start < b.start : a.end > b.end;
        });
        // Spans of one thread nest properly: a span's parent is the
        // innermost still-open span that contains it.
        std::vector<Span*> open;
        for (Span& sp : spans) {
            while (!open.empty() && open.back()->end < sp.end) open.pop_back();
            if (!open.empty()) open.back()->childNs += sp.end - sp.start;
            open.push_back(&sp);
        }
        for (const Span& sp : spans) {
            const std::uint64_t dur = sp.end - sp.start;
            out.selfMs[sp.name] += static_cast<double>(dur - std::min(dur, sp.childNs)) / 1e6;
            out.count[sp.name] += 1;
        }
    }
    return out;
}

RegistryView::RegistryView(const std::vector<hqs::obs::MetricValue>& snapshot)
{
    for (const auto& v : snapshot) values[v.name] = v;
}

double RegistryView::value(const std::string& name) const
{
    const auto it = values.find(name);
    if (it == values.end()) return 0;
    return static_cast<double>(it->second.kind == hqs::obs::MetricKind::Histogram
                                   ? it->second.count
                                   : it->second.value);
}

double RegistryView::sum(const std::string& name) const
{
    const auto it = values.find(name);
    return it == values.end() ? 0 : static_cast<double>(it->second.sum);
}

double RegistryView::quantileUpper(const std::string& name, double q) const
{
    const auto it = values.find(name);
    if (it == values.end() || it->second.count == 0) return 0;
    const auto& h = it->second;
    const double target = q * static_cast<double>(h.count);
    double cum = 0;
    for (std::uint32_t i = 0; i < hqs::obs::kHistogramBuckets; ++i) {
        cum += static_cast<double>(h.buckets[i]);
        // Bucket i holds [2^(i-1), 2^i); the last bucket is open-ended.
        if (cum >= target)
            return i + 1 == hqs::obs::kHistogramBuckets
                       ? static_cast<double>(h.max)
                       : std::min(static_cast<double>(h.max), static_cast<double>(1ull << i));
    }
    return static_cast<double>(h.max);
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct LayerDef {
    const char* name;
    const char* unit;
    std::function<double(const SpanTotals&, const RegistryView&)> get;
};

const std::vector<LayerDef>& layerDefs()
{
    using S = const SpanTotals&;
    using R = const RegistryView&;
    static const std::vector<LayerDef> defs = {
        // qbf: the backend's exclusive time (its nested FRAIG sweeps are
        // children and so excluded) and its eliminations.
        {"qbf.backend_self_ms", "ms",
         [](S s, R) { return s.self("hqs.qbf_backend") + s.self("qbf.aig_eliminate"); }},
        {"qbf.eliminations", "count",
         [](S, R r) { return r.value("qbf.elim.existential") + r.value("qbf.elim.universal"); }},
        {"qbf.unit_pure_eliminations", "count", nullptr},
        // aig
        {"aig.fraig_ms", "ms", [](S s, R) { return s.self("hqs.fraig"); }},
        {"aig.fraig_runs", "count", [](S, R r) { return r.value("fraig.runs"); }},
        {"aig.fraig_merged", "count", [](S, R r) { return r.value("fraig.merged"); }},
        {"aig.fraig_reduction_permille", "permille",
         [](S, R r) {
             return ratio(r.sum("fraig.reduction_permille"), r.value("fraig.reduction_permille"));
         }},
        {"aig.strash_probes", "count", [](S, R r) { return r.value("aig.strash.probes"); }},
        {"aig.opcache_hit_ratio", "ratio",
         [](S, R r) {
             return ratio(r.value("aig.opcache.hits"),
                          r.value("aig.opcache.hits") + r.value("aig.opcache.misses"));
         }},
        {"aig.opcache_lookups", "count",
         [](S, R r) { return r.value("aig.opcache.hits") + r.value("aig.opcache.misses"); }},
        {"aig.gc_runs", "count", [](S, R r) { return r.value("aig.gc.runs"); }},
        {"aig.gc_reclaimed_nodes", "count", [](S, R r) { return r.value("aig.gc.reclaimed"); }},
        {"aig.peak_live_nodes", "count", [](S, R r) { return r.value("aig.nodes.peak_live"); }},
        {"aig.peak_cone_nodes", "count", [](S, R r) { return r.value("aig.peak_cone"); }},
        // dqbf: the paper's DQBF-specific phases, exclusive.
        {"dqbf.preprocess_ms", "ms", [](S s, R) { return s.self("hqs.preprocess"); }},
        {"dqbf.build_aig_ms", "ms", [](S s, R) { return s.self("hqs.build_aig"); }},
        {"dqbf.unit_pure_ms", "ms", [](S s, R) { return s.self("hqs.unit_pure"); }},
        {"dqbf.elim_exists_ms", "ms", [](S s, R) { return s.self("hqs.elim_exists"); }},
        {"dqbf.elim_universal_ms", "ms", [](S s, R) { return s.self("hqs.elim_universal"); }},
        {"dqbf.copies", "count", [](S, R r) { return r.value("hqs.elim.copies"); }},
        {"dqbf.universals_eliminated", "count",
         [](S, R r) { return r.value("hqs.elim.universal"); }},
        {"dqbf.parallel_cofactor_builds", "count",
         [](S, R r) { return r.value("hqs.elim.parallel_cofactor"); }},
        {"dqbf.decided_by_backend_frac", "ratio",
         [](S s, R) { return ratio(s.n("hqs.qbf_backend"), s.n("hqs.solve")); }},
        // maxsat
        {"maxsat.select_ms", "ms", [](S s, R) { return s.self("hqs.select"); }},
        {"maxsat.selected_universals", "count", nullptr},
        {"maxsat.incomparable_pairs", "count", nullptr},
        // sat
        {"sat.probe_ms", "ms", [](S s, R) { return s.self("hqs.sat_probe"); }},
        {"sat.solves", "count", [](S, R r) { return r.value("sat.solves"); }},
        // cnf: the benchmark's own timed parse of every request text.
        {"cnf.parse_ms", "ms", [](S s, R) { return s.self("bench.parse"); }},
        // cache
        {"cache.canonical_ms", "ms", [](S s, R) { return s.self("bench.canonical"); }},
        {"cache.hit_ratio", "ratio",
         [](S, R r) {
             return ratio(r.value("cache.hit"), r.value("cache.hit") + r.value("cache.miss"));
         }},
        {"cache.lookups", "count",
         [](S, R r) { return r.value("cache.hit") + r.value("cache.miss"); }},
        {"cache.stores", "count", [](S, R r) { return r.value("cache.store"); }},
        // runtime: session reuse, pool queueing.
        {"runtime.session_delta_ms_p50", "ms", nullptr},
        {"runtime.session_reuse_ratio", "ratio", nullptr},
        {"runtime.session_cone_nodes_saved", "count",
         [](S, R r) { return r.value("session.cone_nodes_saved"); }},
        {"runtime.pool_queue_wait_ms_p99", "ms",
         [](S, R r) { return r.quantileUpper("pool.queue_latency_us", 0.99) / 1000.0; }},
        // cert: the benchmark's own extract/check calls.
        {"cert.extract_ms", "ms", [](S s, R) { return s.self("bench.cert_extract"); }},
        {"cert.check_ms", "ms", [](S s, R) { return s.self("bench.cert_check"); }},
        {"cert.size_nodes", "count", nullptr},
        // service
        {"service.overhead_ms_p50", "ms", nullptr},
        {"service.rejected", "count", nullptr},
        // obs
        {"obs.trace_overhead_frac", "ratio", nullptr},
    };
    return defs;
}

} // namespace

std::vector<Metric> layerMetrics(const SpanTotals& spans, const RegistryView& reg,
                                 const std::map<std::string, double>& extra)
{
    std::vector<Metric> out;
    for (const LayerDef& d : layerDefs()) {
        double v = 0;
        if (const auto it = extra.find(d.name); it != extra.end())
            v = it->second;
        else if (d.get)
            v = d.get(spans, reg);
        out.push_back({d.name, v, d.unit});
    }
    return out;
}

} // namespace perfbench
