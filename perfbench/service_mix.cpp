// service_mix: an in-process SolverService (result cache on, two solves in
// flight) driven by two closed-loop JSONL connections replaying a seeded
// schedule.  Every replay starts a fresh service, so the miss/store/hit
// sequence repeats exactly; a slot's latency is its minimum over replays and
// throughput comes from the fastest replay.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "src/base/timer.hpp"
#include "src/cache/canonical.hpp"
#include "src/cache/result_cache.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/obs/trace.hpp"
#include "src/service/client.hpp"
#include "src/service/http.hpp"
#include "src/service/server.hpp"

namespace perfbench {

namespace {

using hqs::service::BlockingClient;
using hqs::service::SolveRequestOptions;

constexpr double kRequestTimeoutSeconds = 30.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool carriesVerdict(SlotKind k)
{
    return k != SlotKind::SessionOpen && k != SlotKind::SessionClose;
}

/// Records spans only while alive, and only in a trace run.
class TraceWindow {
public:
    explicit TraceWindow(bool on) : on_(on)
    {
        if (on_) hqs::obs::enableTracing(true);
    }
    ~TraceWindow()
    {
        if (on_) hqs::obs::enableTracing(false);
    }
    TraceWindow(const TraceWindow&) = delete;
    TraceWindow& operator=(const TraceWindow&) = delete;

private:
    bool on_;
};

std::string slotId(int conn, std::size_t i)
{
    std::string id = "c";
    id += std::to_string(conn);
    id += '-';
    id += std::to_string(i);
    return id;
}

/// The JSONL row of a slot.  Session ops need the id the open returned.
std::string buildRow(const ServiceSchedule& s, const Slot& slot, const std::string& id,
                     const std::string& sid)
{
    SolveRequestOptions o;
    switch (slot.kind) {
        case SlotKind::Cold:
        case SlotKind::Repeat:
        case SlotKind::Renumbered:
            o.certify = slot.certify;
            return hqs::service::buildJsonlSolveRequest(id, s.text(slot), o);
        case SlotKind::SessionOpen:
            o.op = "open";
            return hqs::service::buildJsonlSolveRequest(id, s.text(slot), o);
        case SlotKind::SessionDelta:
            o.op = "delta";
            o.session = sid;
            o.addGroup = slot.addGroup;
            o.retractGroup = slot.retractGroup;
            o.deltaClauses = slot.clauses;
            break;
        case SlotKind::SessionSolve: o.op = "solve"; o.session = sid; break;
        case SlotKind::SessionClose: o.op = "close"; o.session = sid; break;
    }
    return hqs::service::buildJsonlSolveRequest(id, "", o);
}

struct Reply {
    double ms = 0;
    bool transport = false; ///< a reply line arrived
    std::string row;
};

struct Replay {
    double wallMs = 0;
    std::vector<Reply> replies[2];
    std::uint64_t rejected = 0;
};

/// One closed-loop connection: send a slot's row, wait for its reply line.
void driveConnection(BlockingClient& client, const ServiceSchedule& s, int conn,
                     const std::vector<std::string>& rows, std::vector<Reply>& out)
{
    const std::vector<Slot>& slots = s.conn[conn];
    out.assign(slots.size(), Reply{});
    std::string sid;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const SlotKind kind = slots[i].kind;
        const bool needsSid = kind == SlotKind::SessionDelta || kind == SlotKind::SessionSolve ||
                              kind == SlotKind::SessionClose;
        const std::string row = needsSid ? buildRow(s, slots[i], slotId(conn, i), sid) : rows[i];
        Reply& r = out[i];
        hqs::Timer t;
        r.transport = client.sendAll(row) && client.readLine(r.row);
        r.ms = t.elapsedMilliseconds();
        if (!r.transport) break;
        if (kind == SlotKind::SessionOpen)
            hqs::service::jsonStringField(r.row, "session", sid);
    }
}

/// Result cache on (a fresh, empty one), two solves in flight.
hqs::service::ServiceOptions serviceOptions()
{
    hqs::service::ServiceOptions so;
    so.maxInflight = 2;
    so.maxQueue = 64;
    so.defaultTimeoutSeconds = kRequestTimeoutSeconds;
    so.resultCache = std::make_shared<hqs::cache::ResultCache>();
    return so;
}

Replay runReplay(const ServiceSchedule& s, const std::vector<std::string> (&rows)[2])
{
    hqs::service::SolverService service(serviceOptions());
    std::string error;
    if (!service.start(&error)) throw std::runtime_error("service start: " + error);

    BlockingClient clients[2];
    for (BlockingClient& c : clients)
        if (!c.connect("127.0.0.1", service.jsonlPort(), &error))
            throw std::runtime_error("connect: " + error);
    std::string hello;
    if (!clients[1].sendAll(hqs::service::buildJsonlHandshake(2)) || !clients[1].readLine(hello))
        throw std::runtime_error("v2 handshake failed");

    Replay replay;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::thread workers[2];
    for (int c = 0; c < 2; ++c) {
        workers[c] = std::thread([&, c] {
            ready.fetch_add(1);
            while (!go.load()) std::this_thread::yield();
            driveConnection(clients[c], s, c, rows[c], replay.replies[c]);
        });
    }
    while (ready.load() < 2) std::this_thread::yield();
    hqs::Timer wall;
    go.store(true);
    for (std::thread& w : workers) w.join();
    replay.wallMs = wall.elapsedMilliseconds();
    for (BlockingClient& c : clients) c.close();
    replay.rejected = service.counters().rejectedBusy.load() +
                      service.counters().rejectedDraining.load();
    service.stop();
    return replay;
}

struct CertCheck {
    bool ok = false;
    double sizeNodes = 0;
};

} // namespace

RunResult runServiceMix(const RunConfig& cfg)
{
    RunResult res;

    // Set-up: generate the schedule's texts and rows, and start one service
    // (its stop is not timed).
    ServiceSchedule sched;
    std::vector<std::string> rows[2];
    SetupSampler setup([&] {
        const hqs::Timer t;
        sched = makeServiceSchedule(cfg.seed);
        for (int c = 0; c < 2; ++c) {
            rows[c].clear();
            for (std::size_t i = 0; i < sched.conn[c].size(); ++i)
                rows[c].push_back(buildRow(sched, sched.conn[c][i], slotId(c, i), ""));
        }
        hqs::service::SolverService service(serviceOptions());
        std::string error;
        if (!service.start(&error)) throw std::runtime_error("service start: " + error);
        const double seconds = t.elapsedSeconds();
        service.stop();
        return seconds;
    });
    for (int k = 0; k < 3; ++k) setup.sample();

    // Formula hash per pool instance: a certificate must be bound to the
    // formula that was sent.
    std::vector<std::uint64_t> poolHash;
    for (const std::string& text : sched.poolText)
        poolHash.push_back(hqs::cert::formulaHash(hqs::parseDqdimacsString(text)));
    std::unordered_map<std::string, CertCheck> certChecks; // by certificate text

    std::vector<double> minMs[2];
    for (int c = 0; c < 2; ++c) minMs[c].assign(sched.conn[c].size(), kInf);
    std::vector<bool> certified(sched.pool.size());
    for (const std::vector<Slot>& conn : sched.conn)
        for (const Slot& slot : conn)
            if (slot.certify) certified[slot.instance] = true;
    std::vector<double> replayWallMs;
    double tracedWallMs = kInf, untracedWallMs = kInf;
    std::map<std::string, double> extra;
    SpanTotals spans;
    std::optional<RegistryView> registry;

    const int minReplays = cfg.trace ? 2 : 1;
    hqs::Timer clock;
    for (int r = 0; r < minReplays || clock.elapsedSeconds() < cfg.seconds; ++r) {
        const bool traced = cfg.trace && r % 2 == 0;
        const bool layerReplay = cfg.trace && r == 0;
        setup.sampleIfDue();
        if (layerReplay) hqs::obs::globalRegistry().reset();
        Replay replay;
        {
            TraceWindow window(traced);
            replay = runReplay(sched, rows);
        }
        replayWallMs.push_back(replay.wallMs);
        double& classWallMs = traced ? tracedWallMs : untracedWallMs;
        classWallMs = std::min(classWallMs, replay.wallMs);
        if (layerReplay)
            registry.emplace(hqs::obs::globalRegistry().snapshot());
        else
            hqs::obs::clearTrace(); // later traced replays only measure the overhead

        // Correctness, outside the timed region.
        std::vector<double> deltaMs, overheadMs;
        double components = 0, reused = 0, certNodes = 0;
        for (int c = 0; c < 2; ++c) {
            for (std::size_t i = 0; i < sched.conn[c].size(); ++i) {
                const Slot& slot = sched.conn[c][i];
                const Reply& rep = replay.replies[c][i];
                ++res.attempted;
                std::string id, verdict;
                if (!rep.transport || !hqs::service::jsonStringField(rep.row, "id", id) ||
                    id != slotId(c, i) || rep.row.find("\"error\"") != std::string::npos) {
                    ++res.failed;
                    continue;
                }
                if (slot.kind == SlotKind::SessionOpen &&
                    !hqs::service::jsonStringField(rep.row, "session", id)) {
                    ++res.failed;
                    continue;
                }
                if (carriesVerdict(slot.kind)) {
                    if (!hqs::service::jsonStringField(rep.row, "result", verdict) ||
                        (verdict != "SAT" && verdict != "UNSAT")) {
                        ++res.failed;
                        continue;
                    }
                    if ((verdict == "SAT") != slot.expectSat) {
                        std::cerr << "perfbench: WRONG verdict " << verdict << " on "
                                  << slotId(c, i) << " (" << toString(slot.kind) << ")\n";
                        res.correct = false;
                    }
                }
                if (slot.certify && slot.expectSat) {
                    std::string text;
                    if (!hqs::service::jsonStringField(rep.row, "bytes", text)) {
                        std::cerr << "perfbench: no certificate on " << slotId(c, i) << "\n";
                        res.correct = false;
                    } else {
                        auto it = certChecks.find(text);
                        if (it == certChecks.end()) {
                            CertCheck check;
                            hqs::cert::Certificate parsed;
                            std::string detail;
                            TraceWindow window(layerReplay);
                            hqs::obs::SpanScope span("bench.cert_check");
                            if (hqs::cert::parseCertificateString(text, parsed, detail) ==
                                hqs::cert::CheckStatus::Ok) {
                                const hqs::cert::CheckResult cr = hqs::cert::checkCertificate(
                                    parsed, hqs::Deadline::in(kRequestTimeoutSeconds));
                                check.ok = cr.ok() && parsed.hash == poolHash[slot.instance];
                                check.sizeNodes = static_cast<double>(cr.sizeNodes);
                            }
                            it = certChecks.emplace(text, check).first;
                            certNodes += check.sizeNodes;
                        }
                        if (!it->second.ok) {
                            std::cerr << "perfbench: INVALID certificate on " << slotId(c, i)
                                      << "\n";
                            res.correct = false;
                        }
                    }
                }
                minMs[c][i] = std::min(minMs[c][i], rep.ms);
                if (!layerReplay) continue;
                double wallMs = 0, n = 0;
                if (hqs::service::jsonNumberField(rep.row, "wall_ms", wallMs))
                    overheadMs.push_back(rep.ms - wallMs);
                if (slot.kind == SlotKind::SessionDelta) deltaMs.push_back(rep.ms);
                if (hqs::service::jsonNumberField(rep.row, "components", n)) components += n;
                if (hqs::service::jsonNumberField(rep.row, "reused", n)) reused += n;
            }
        }
        if (!layerReplay) continue;

        // The benchmark's own timed calls into the parse, canonical-key and
        // certificate-extraction layers, over this replay's inputs.
        {
            TraceWindow window(true);
            for (int c = 0; c < 2; ++c)
                for (const Slot& slot : sched.conn[c]) {
                    const std::string& text = sched.text(slot);
                    if (text.empty()) continue;
                    std::optional<hqs::ParsedQdimacs> parsed;
                    {
                        hqs::obs::SpanScope span("bench.parse");
                        parsed = hqs::parseDqdimacsString(text);
                    }
                    hqs::obs::SpanScope span("bench.canonical");
                    (void)hqs::cache::canonicalKey(*parsed);
                }
        }
        for (std::size_t i = 0; i < sched.pool.size(); ++i) {
            if (!certified[i]) continue;
            const hqs::DqbfFormula formula =
                hqs::DqbfFormula::fromParsed(hqs::parseDqdimacsString(sched.poolText[i]));
            hqs::HqsOptions opts;
            opts.computeSkolem = true;
            opts.deadline = hqs::Deadline::in(kRequestTimeoutSeconds);
            hqs::HqsSolver solver(opts);
            if (solver.solve(formula) != hqs::SolveResult::Sat || !solver.skolemCertificate())
                continue;
            TraceWindow window(true);
            hqs::obs::SpanScope span("bench.cert_extract");
            (void)hqs::cert::extractCertificate(formula, *solver.skolemCertificate());
        }
        spans = drainSpans();
        extra["runtime.session_delta_ms_p50"] = percentile(deltaMs, 50);
        extra["runtime.session_reuse_ratio"] = components > 0 ? reused / components : 0;
        extra["cert.size_nodes"] = certNodes;
        extra["service.overhead_ms_p50"] = percentile(overheadMs, 50);
        extra["service.rejected"] = static_cast<double>(replay.rejected);
    }

    const double bestWallMs = *std::min_element(replayWallMs.begin(), replayWallMs.end());
    std::vector<double> verdictMs;
    double sumMs = 0;
    std::size_t decided = 0, unanswered = 0, slots = 0;
    for (int c = 0; c < 2; ++c) {
        slots += sched.conn[c].size();
        for (std::size_t i = 0; i < sched.conn[c].size(); ++i) {
            if (!carriesVerdict(sched.conn[c][i].kind)) continue;
            if (minMs[c][i] == kInf) {
                ++unanswered;
                continue;
            }
            ++decided;
            verdictMs.push_back(minMs[c][i]);
            sumMs += minMs[c][i];
        }
    }

    if (!cfg.trace) {
        res.metrics = {
            {"setup_s", setup.minSeconds(), "s"},
            {"par2_s",
             sumMs / 1000.0 +
                 2.0 * kRequestTimeoutSeconds * static_cast<double>(unanswered),
             "s"},
            {"decided", static_cast<double>(decided), "count"},
            {"verdict_ms_p50", percentile(verdictMs, 50), "ms"},
            {"verdict_ms_p90", percentile(verdictMs, 90), "ms"},
            {"verdict_ms_p99", percentile(verdictMs, 99), "ms"},
            {"throughput_rps", 1000.0 * static_cast<double>(slots) / bestWallMs, "1/s"},
            {"ok_frac",
             res.attempted ? static_cast<double>(res.attempted - res.failed) / res.attempted : 0,
             "ratio"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        extra["obs.trace_overhead_frac"] =
            untracedWallMs < kInf ? tracedWallMs / untracedWallMs - 1.0 : 0;
        res.metrics = layerMetrics(spans, registry ? *registry : RegistryView({}), extra);
    }

    std::map<SlotKind, std::vector<double>> byKind;
    for (int c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < sched.conn[c].size(); ++i)
            if (minMs[c][i] < kInf) byKind[sched.conn[c][i].kind].push_back(minMs[c][i]);
    char line[300];
    for (const auto& [kind, ms] : byKind) {
        std::snprintf(line, sizeof line, "slots %-14s n %4zu  p50 %9.3f ms  max %9.3f ms",
                      toString(kind), ms.size(), median(ms),
                      *std::max_element(ms.begin(), ms.end()));
        res.notes.push_back(line);
    }
    std::snprintf(line, sizeof line,
                  "raw (not gated): median replay %.3f ms, fastest %.3f ms, %zu replays of "
                  "%zu slots (%zu with a verdict); p50 %.4f p90 %.4f p99 %.4f ms; setup %.6f s",
                  median(replayWallMs), bestWallMs, replayWallMs.size(), slots,
                  verdictMs.size(), percentile(verdictMs, 50), percentile(verdictMs, 90),
                  percentile(verdictMs, 99), setup.minSeconds());
    res.notes.push_back(line);
    return res;
}

} // namespace perfbench
