// dqbf_serve: put the DQBF solver stack behind a socket.
//
//   dqbf_serve [options]
//
// Options:
//   --host=ADDR           bind address (default: 127.0.0.1)
//   --port=N              HTTP port (default 8080; 0 = ephemeral)
//   --jsonl-port=N        newline-JSON port (default 8081; 0 = ephemeral)
//   --no-jsonl            disable the JSONL listener
//   --max-inflight=N      concurrent solves (default: hardware concurrency)
//   --queue=N             admitted-but-waiting solves beyond max-inflight
//                         before 429/busy (default 64)
//   --timeout=SECONDS     default per-request wall-clock budget (0 = none)
//   --rss-limit=MB        default cooperative memout budget (0 = none)
//   --node-limit=N        AIG-node budget forwarded to the engines
//   --retry-after=SECONDS advisory Retry-After on 429 (default 1)
//   --cert-max-bytes=N    largest certificate returned to a `certify`
//                         request (default 4 MiB; past it HTTP answers 413,
//                         JSONL rows carry a certificate_error field)
//   --cert-self-check     run the independent certificate checker on every
//                         certificate before replying; a failing artifact is
//                         withheld and counted in /stats
//   --max-sessions=N      resident solve-session bound (JSONL protocol v2);
//                         opening past it evicts the least recently used
//                         session (default 64; 0 = unbounded)
//   --session-ttl=SECONDS idle session lifetime (default 0 = no expiry);
//                         ops on an expired session answer session-gone
//
// Request shaping (see README "Result cache & strategy specs"):
//   --strategy=FILE       load a strategy spec (JSON) and make it the
//                         server's default: engine lineup, degradation
//                         ladder, and cache policy come from the spec.
//                         Requests select it by name or leave `strategy`
//                         empty.
//   --cache               enable the in-memory result cache
//   --cache-dir=DIR       enable the cache and persist entries in DIR (one
//                         file per canonical hash; shared by fleet workers)
//   --cache-bytes=N       in-memory shard byte budget (default 64 MiB or
//                         the spec's cache.max_bytes)
//   --cache-ttl=SECONDS   entry lifetime (default: no expiry or the spec's
//                         cache.ttl_seconds)
//
// Fleet mode (see README "Operations"):
//   --workers=N           fork N supervised worker processes sharing the
//                         service ports via SO_REUSEPORT; the master only
//                         supervises (death classification, respawn with
//                         backoff, crash-loop breaker, merged metrics).
//                         0 (default) = single-process serve.
//   --admin-port=N        master admin listener: merged GET /metrics, fleet
//                         GET /healthz + /stats (default 8082; 0 = ephemeral)
//   --worker-as-limit=MB  hard per-worker address-space cap
//                         (setrlimit(RLIMIT_AS)) under the cooperative
//                         --rss-limit watchdog (0 = none)
//
// Endpoints: POST /solve (DQDIMACS body; timeout-ms / rss-limit-mb / engine /
// certify headers), GET /metrics (Prometheus), GET /healthz, GET /stats.  The
// JSONL port takes one {"id":...,"formula":...,"certify":true} row per line.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight solves,
// flush every response, exit 0.  A second signal cancels in-flight solves.
// In fleet mode the drain propagates SIGTERM to every worker and the master
// exits after the last worker is reaped.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>

#include "src/cache/result_cache.hpp"
#include "src/runtime/api.hpp"
#include "src/runtime/cache_plan.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/supervisor.hpp"
#include "src/strategy/spec.hpp"

using namespace hqs;
using namespace hqs::service;

namespace {

int usage()
{
    std::cerr << "usage: dqbf_serve [--host=ADDR] [--port=N] [--jsonl-port=N] "
                 "[--no-jsonl] [--max-inflight=N] [--queue=N] "
                 "[--timeout=SECONDS] [--rss-limit=MB] [--node-limit=N] "
                 "[--retry-after=SECONDS] [--cert-max-bytes=N] "
                 "[--cert-self-check] [--max-sessions=N] [--session-ttl=SECONDS] "
                 "[--strategy=FILE] [--cache] "
                 "[--cache-dir=DIR] [--cache-bytes=N] [--cache-ttl=SECONDS] "
                 "[--workers=N] [--admin-port=N] [--worker-as-limit=MB]\n";
    return 1;
}

int runFleet(const ServiceOptions& opts, int workers, std::uint16_t adminPort,
             std::size_t workerAsLimitBytes)
{
    SupervisorOptions sopts;
    sopts.service = opts;
    sopts.workers = workers;
    sopts.adminPort = adminPort;
    sopts.workerAddressSpaceLimitBytes = workerAsLimitBytes;
    Supervisor fleet(sopts);
    std::string error;
    if (!fleet.start(&error)) {
        std::cerr << "dqbf_serve: " << error << "\n";
        return 1;
    }
    Supervisor::installSignalDrain(&fleet);

    std::cout << "dqbf_serve fleet: workers=" << workers << " http="
              << opts.bindAddress << ":" << fleet.httpPort();
    if (opts.enableJsonl)
        std::cout << " jsonl=" << opts.bindAddress << ":" << fleet.jsonlPort();
    std::cout << " admin=" << opts.bindAddress << ":" << fleet.adminPort()
              << std::endl;

    fleet.waitForExit();
    std::cout << "dqbf_serve fleet drained: respawns=" << fleet.totalRespawns()
              << " crashes=" << fleet.totalCrashes()
              << " oomkills=" << fleet.totalOomKills()
              << " crashed_requests=" << fleet.crashReports().size() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    ignoreSigpipe();

    ServiceOptions opts;
    opts.httpPort = 8080;
    opts.jsonlPort = 8081;
    // The server-wide default budgets go through the same SolveRequest
    // validation as per-request budgets, so `--timeout=nan` is rejected here
    // exactly as a `timeout-ms: nan` header would be.
    api::SolveRequest defaults;
    std::size_t workers = 0;
    std::size_t adminPort = 8082;
    std::size_t workerAsLimitBytes = 0;
    std::string strategyPath;
    std::string cacheDir;
    std::size_t cacheBytes = 0; // 0 = spec / built-in default
    double cacheTtl = -1;       // <0 = spec / built-in default
    bool cacheOn = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto val = [&](const std::string& prefix) {
            return arg.substr(prefix.size());
        };
        std::size_t n = 0;
        double secs = 0;
        if (arg.rfind("--host=", 0) == 0) {
            opts.bindAddress = val("--host=");
        } else if (arg.rfind("--port=", 0) == 0 && api::parseSize(val("--port="), &n)) {
            opts.httpPort = static_cast<std::uint16_t>(n);
        } else if (arg.rfind("--jsonl-port=", 0) == 0 &&
                   api::parseSize(val("--jsonl-port="), &n)) {
            opts.jsonlPort = static_cast<std::uint16_t>(n);
        } else if (arg == "--no-jsonl") {
            opts.enableJsonl = false;
        } else if (arg.rfind("--max-inflight=", 0) == 0 &&
                   api::parseSize(val("--max-inflight="), &n)) {
            opts.maxInflight = n;
        } else if (arg.rfind("--queue=", 0) == 0 && api::parseSize(val("--queue="), &n)) {
            opts.maxQueue = n;
        } else if (arg.rfind("--timeout=", 0) == 0 &&
                   api::parseSeconds(val("--timeout="), &defaults.timeoutSeconds)) {
            // validated below
        } else if (arg.rfind("--rss-limit=", 0) == 0 &&
                   api::parseMegabytes(val("--rss-limit="), &defaults.rssLimitBytes)) {
            // validated below
        } else if (arg.rfind("--node-limit=", 0) == 0 &&
                   api::parseSize(val("--node-limit="), &defaults.nodeLimit)) {
            // validated below
        } else if (arg.rfind("--retry-after=", 0) == 0 &&
                   api::parseSeconds(val("--retry-after="), &secs) &&
                   std::isfinite(secs) && secs >= 0) {
            opts.retryAfterSeconds = secs;
        } else if (arg.rfind("--cert-max-bytes=", 0) == 0 &&
                   api::parseSize(val("--cert-max-bytes="), &n)) {
            opts.maxCertificateBytes = n;
        } else if (arg == "--cert-self-check") {
            opts.certSelfCheck = true;
        } else if (arg.rfind("--max-sessions=", 0) == 0 &&
                   api::parseSize(val("--max-sessions="), &n)) {
            opts.maxSessions = n;
        } else if (arg.rfind("--session-ttl=", 0) == 0 &&
                   api::parseSeconds(val("--session-ttl="), &secs) &&
                   std::isfinite(secs) && secs >= 0) {
            opts.sessionTtlSeconds = secs;
        } else if (arg.rfind("--strategy=", 0) == 0) {
            strategyPath = val("--strategy=");
        } else if (arg == "--cache") {
            cacheOn = true;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cacheDir = val("--cache-dir=");
            cacheOn = true;
        } else if (arg.rfind("--cache-bytes=", 0) == 0 &&
                   api::parseSize(val("--cache-bytes="), &cacheBytes)) {
            cacheOn = true;
        } else if (arg.rfind("--cache-ttl=", 0) == 0 &&
                   api::parseSeconds(val("--cache-ttl="), &cacheTtl) &&
                   std::isfinite(cacheTtl) && cacheTtl >= 0) {
            cacheOn = true;
        } else if (arg.rfind("--workers=", 0) == 0 &&
                   api::parseSize(val("--workers="), &workers)) {
            // 0 = single-process
        } else if (arg.rfind("--admin-port=", 0) == 0 &&
                   api::parseSize(val("--admin-port="), &adminPort)) {
            // fleet mode only
        } else if (arg.rfind("--worker-as-limit=", 0) == 0 &&
                   api::parseMegabytes(val("--worker-as-limit="),
                                       &workerAsLimitBytes)) {
            // fleet mode only
        } else {
            return usage();
        }
    }
    if (const std::string err = defaults.firstError(); !err.empty()) {
        std::cerr << "dqbf_serve: invalid request defaults: " << err << "\n";
        return usage();
    }
    opts.defaultTimeoutSeconds = defaults.timeoutSeconds;
    opts.defaultRssLimitBytes = defaults.rssLimitBytes;
    opts.nodeLimit = defaults.nodeLimit;

    strategy::StrategySpec spec;
    bool haveSpec = false;
    if (!strategyPath.empty()) {
        std::vector<strategy::SpecError> errors;
        if (!strategy::loadStrategySpecFile(strategyPath, &spec, &errors)) {
            std::cerr << "dqbf_serve: invalid strategy spec " << strategyPath
                      << ":\n" << strategy::toString(errors);
            return 1;
        }
        haveSpec = true;
        opts.strategies["default"] = spec;
        opts.strategies[spec.name] = spec;
    }
    if (cacheOn) {
        cache::CacheConfig cfg = api::cacheConfig(cacheDir, haveSpec ? &spec : nullptr);
        if (cacheBytes > 0) cfg.maxBytes = cacheBytes;
        if (cacheTtl >= 0) cfg.ttlSeconds = cacheTtl;
        opts.resultCache = std::make_shared<cache::ResultCache>(cfg);
    }

    if (workers > 0)
        return runFleet(opts, static_cast<int>(workers),
                        static_cast<std::uint16_t>(adminPort), workerAsLimitBytes);

    SolverService service(opts);
    std::string error;
    if (!service.start(&error)) {
        std::cerr << "dqbf_serve: " << error << "\n";
        return 1;
    }
    SolverService::installSignalDrain(&service);

    std::cout << "dqbf_serve listening: http=" << opts.bindAddress << ":"
              << service.httpPort();
    if (opts.enableJsonl)
        std::cout << " jsonl=" << opts.bindAddress << ":" << service.jsonlPort();
    std::cout << std::endl;

    service.waitForDrained();
    const ServiceCounters& c = service.counters();
    std::cout << "dqbf_serve drained: requests="
              << c.requests.load() << " solved=" << c.solvesCompleted.load()
              << " rejected=" << (c.rejectedBusy.load() + c.rejectedDraining.load())
              << " disconnect_cancels=" << c.disconnectCancels.load() << std::endl;
    return 0;
}
