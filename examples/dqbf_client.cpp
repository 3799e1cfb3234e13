// dqbf_client: load generator and one-shot client for dqbf_serve.
//
//   dqbf_client --file=FORMULA.dqdimacs [options]
//
// Options:
//   --host=ADDR          server address (default 127.0.0.1)
//   --port=N             server port (default 8080)
//   --jsonl              speak the newline-JSON protocol instead of HTTP
//   --connections=N      concurrent client connections (default 1)
//   --requests=N         total solve requests across all connections
//                        (default: one per connection)
//   --timeout-ms=N       per-request solver budget header/field
//   --rss-limit-mb=N     per-request memory budget header/field
//   --engine=NAME        hqs | hqs-bdd | portfolio[:N]
//   --certify            request a Skolem certificate with each SAT verdict
//                        (tallied under certs=; a 413 over-cap response
//                        still counts as a verdict)
//   --cache=on|off|bypass
//                        per-request result-cache override header/field
//   --format=NAME        dqdimacs | dqcir ("" = server content sniff)
//   --session            JSONL protocol v2 session mode: each connection
//                        opens one session on the formula (after a {"v":2}
//                        handshake), sends its requests as `solve` ops
//                        against it, and closes it on exit.  Reconnects
//                        re-open (a disconnect closes server-side sessions).
//   --assume=LITS        assumption literals for session-mode solves
//                        (DIMACS, e.g. "1 -3")
//   --strategy=NAME      solve under the server's strategy spec NAME
//   --retries=N          retry budget per request for transport failures
//                        (connection refused/reset) and 429/503 rejections
//                        (default 3; 0 = fail fast).  Each retry reconnects
//                        and backs off exponentially with +/-25% jitter,
//                        never below the server's Retry-After.
//   --retry-base-ms=N    first retry delay (default 100, doubling per
//                        attempt, capped at 20x the base)
//
// Each connection sends its share of requests back to back (JSONL mode
// pipelines them) and tallies verdicts, busy rejections, and errors.  Exact
// latency percentiles are computed from the recorded per-request times;
// retried requests count their full wall time including backoff, which is
// what a caller of a supervised fleet actually observes across a worker
// respawn.  Exit code 0 when every request got a verdict, 1 otherwise.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/timer.hpp"
#include "src/runtime/api.hpp"
#include "src/service/client.hpp"

using namespace hqs;
using namespace hqs::service;

namespace {

int usage()
{
    std::cerr << "usage: dqbf_client --file=FORMULA.dqdimacs [--host=ADDR] "
                 "[--port=N] [--jsonl] [--connections=N] [--requests=N] "
                 "[--timeout-ms=N] [--rss-limit-mb=N] [--engine=NAME] [--certify] "
                 "[--cache=on|off|bypass] [--strategy=NAME] [--format=NAME] "
                 "[--session] [--assume=LITS] [--retries=N] [--retry-base-ms=N]\n";
    return 1;
}

bool parseSize(const std::string& text, std::size_t& out)
{
    try {
        std::size_t pos = 0;
        out = static_cast<std::size_t>(std::stoul(text, &pos));
        return pos == text.size();
    } catch (const std::exception&) {
        return false;
    }
}

struct Tally {
    std::size_t ok = 0;      ///< verdict received (any SolveResult)
    std::size_t busy = 0;    ///< 429 / busy row after the retry budget
    std::size_t errors = 0;  ///< transport failures, non-200 responses
    std::size_t certs = 0;   ///< responses carrying certificate bytes
    std::size_t retries = 0; ///< re-sent attempts (transport + 429/503)
    std::vector<double> latenciesUs;
};

/// One attempt's outcome, deciding whether the retry loop continues.
enum class Attempt {
    Verdict,   ///< ok (200 / 413-with-verdict / JSONL result row)
    Rejected,  ///< 429/503/busy row — retry after the server's hint
    Transport, ///< connect/send/read failure — reconnect and retry
    Fatal,     ///< non-retryable response (4xx etc.) — count an error
};

} // namespace

int main(int argc, char** argv)
{
    ignoreSigpipe();

    std::string host = "127.0.0.1";
    std::uint16_t port = 8080;
    bool jsonl = false;
    std::size_t connections = 1;
    std::size_t requests = 0;
    std::string file;
    api::SolveRequest request;
    bool useSession = false;
    std::string assume;
    std::size_t retries = 3;
    std::size_t retryBaseMs = 100;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto val = [&](const std::string& prefix) {
            return arg.substr(prefix.size());
        };
        std::size_t n = 0;
        std::string flagProblem;
        if (arg.rfind("--host=", 0) == 0) {
            host = val("--host=");
        } else if (arg.rfind("--port=", 0) == 0 && parseSize(val("--port="), n)) {
            port = static_cast<std::uint16_t>(n);
        } else if (arg == "--jsonl") {
            jsonl = true;
        } else if (arg.rfind("--connections=", 0) == 0 &&
                   parseSize(val("--connections="), n) && n > 0) {
            connections = n;
        } else if (arg.rfind("--requests=", 0) == 0 && parseSize(val("--requests="), n)) {
            requests = n;
        } else if (arg.rfind("--file=", 0) == 0) {
            file = val("--file=");
        } else if (arg == "--session") {
            useSession = true;
        } else if (arg.rfind("--assume=", 0) == 0) {
            assume = val("--assume=");
        } else if (api::applyCliRequestFlag(request, arg, &flagProblem)) {
            // Solver-request flags (--timeout-ms, --rss-limit-mb, --engine,
            // --certify, --cache, --strategy, --format) come from the same
            // api::requestFields() table the server parses with.
            if (!flagProblem.empty()) {
                std::cerr << "dqbf_client: " << flagProblem << "\n";
                return usage();
            }
        } else if (arg.rfind("--retries=", 0) == 0 && parseSize(val("--retries="), n)) {
            retries = n;
        } else if (arg.rfind("--retry-base-ms=", 0) == 0 &&
                   parseSize(val("--retry-base-ms="), n) && n > 0) {
            retryBaseMs = n;
        } else {
            return usage();
        }
    }
    if (file.empty()) return usage();
    if (useSession && !jsonl) {
        std::cerr << "dqbf_client: --session requires --jsonl (protocol v2)\n";
        return usage();
    }
    SolveRequestOptions ropts;
    ropts.timeoutSeconds = request.timeoutSeconds;
    ropts.rssLimitBytes = request.rssLimitBytes;
    ropts.certify = request.certify;
    ropts.cacheControl = request.cacheControl;
    ropts.strategy = request.strategy;
    ropts.format = request.format;
    // "hqs" is both the SolveRequest default and the server default; only a
    // non-default selection needs to go on the wire.
    if (request.engine != "hqs") ropts.engine = request.engine;
    std::ifstream in(file);
    if (!in) {
        std::cerr << "dqbf_client: cannot read " << file << "\n";
        return 1;
    }
    std::ostringstream formulaStream;
    formulaStream << in.rdbuf();
    const std::string formula = formulaStream.str();
    if (requests == 0) requests = connections;

    std::mutex mu;
    Tally total;
    std::atomic<std::size_t> nextRequest{0};
    Timer wall;

    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t t = 0; t < connections; ++t) {
        threads.emplace_back([&, t] {
            Tally local;
            BlockingClient client;
            std::string sessionId; ///< session mode: "" until opened on this conn
            const double baseSeconds = static_cast<double>(retryBaseMs) / 1000.0;
            const double capSeconds = baseSeconds * 20.0;
            // Session mode: one handshake + open per (re)connection — the
            // server closes a connection's sessions on disconnect, so a
            // reconnect must re-open.  Verdict here means "session ready".
            const auto ensureSession = [&](double& hintSeconds) {
                if (!sessionId.empty()) return Attempt::Verdict;
                if (!client.sendAll(buildJsonlHandshake(2))) return Attempt::Transport;
                std::string hs;
                if (!client.readLine(hs)) {
                    client.close();
                    return Attempt::Transport;
                }
                SolveRequestOptions oopts;
                oopts.op = "open";
                oopts.format = ropts.format;
                if (!client.sendAll(buildJsonlSolveRequest("open-" + std::to_string(t),
                                                           formula, oopts)))
                    return Attempt::Transport;
                std::string row;
                if (!client.readLine(row)) {
                    client.close();
                    return Attempt::Transport;
                }
                if (jsonStringField(row, "session", sessionId) && !sessionId.empty())
                    return Attempt::Verdict;
                if (row.find("\"busy\"") != std::string::npos ||
                    row.find("\"draining\"") != std::string::npos) {
                    hintSeconds = parseRetryAfterSeconds("", row, baseSeconds);
                    return Attempt::Rejected;
                }
                return Attempt::Fatal;
            };
            // One attempt: (re)connect if needed, send, read, classify.
            // Fills @p hintSeconds with the server's Retry-After on Rejected.
            const auto attemptOnce = [&](std::size_t seq, double& hintSeconds) {
                hintSeconds = 0;
                if (!client.connected()) {
                    sessionId.clear();
                    std::string error;
                    if (!client.connect(host, port, &error)) return Attempt::Transport;
                }
                bool sent;
                if (jsonl) {
                    SolveRequestOptions rowOpts = ropts;
                    std::string rowFormula = formula;
                    if (useSession) {
                        const Attempt ready = ensureSession(hintSeconds);
                        if (ready != Attempt::Verdict) return ready;
                        rowOpts.op = "solve";
                        rowOpts.session = sessionId;
                        rowOpts.assume = assume;
                        rowFormula.clear();
                    }
                    sent = client.sendAll(buildJsonlSolveRequest(
                        "c" + std::to_string(t) + "-" + std::to_string(seq), rowFormula,
                        rowOpts));
                } else {
                    sent = client.sendAll(
                        buildHttpSolveRequest(formula, ropts, /*keepAlive=*/true));
                }
                if (!sent) return Attempt::Transport;
                if (jsonl) {
                    std::string row;
                    if (!client.readLine(row)) {
                        client.close();
                        return Attempt::Transport;
                    }
                    std::string verdict;
                    if (jsonStringField(row, "result", verdict)) {
                        if (row.find("\"certificate\":{") != std::string::npos)
                            local.certs += 1;
                        return Attempt::Verdict;
                    }
                    if (row.find("\"busy\"") != std::string::npos ||
                        row.find("\"degraded\"") != std::string::npos ||
                        row.find("\"draining\"") != std::string::npos) {
                        hintSeconds = parseRetryAfterSeconds("", row, baseSeconds);
                        // Degraded/draining rows come from the supervisor's
                        // one-shot responder, which closes after answering.
                        if (row.find("\"error\"") != std::string::npos) client.close();
                        return Attempt::Rejected;
                    }
                    return Attempt::Fatal;
                }
                HttpResponseMsg rsp;
                if (!client.readResponse(rsp)) {
                    client.close();
                    return Attempt::Transport;
                }
                const std::string* conn = rsp.header("connection");
                if (conn && conn->find("close") != std::string::npos) client.close();
                // 413 on a certify request means "verdict delivered,
                // certificate over the server's byte cap" — a verdict, not a
                // transport error.
                if (rsp.status == 200 ||
                    (rsp.status == 413 &&
                     rsp.body.find("\"result\"") != std::string::npos)) {
                    if (rsp.body.find("\"certificate\":{") != std::string::npos)
                        local.certs += 1;
                    return Attempt::Verdict;
                }
                if (rsp.status == 429 || rsp.status == 503) {
                    const std::string* ra = rsp.header("retry-after");
                    hintSeconds =
                        parseRetryAfterSeconds(ra ? *ra : "", rsp.body, baseSeconds);
                    return Attempt::Rejected;
                }
                return Attempt::Fatal;
            };

            while (true) {
                const std::size_t seq = nextRequest.fetch_add(1);
                if (seq >= requests) break;
                Timer perRequest;
                Attempt outcome = Attempt::Transport;
                for (std::size_t attempt = 0; attempt <= retries; ++attempt) {
                    double hintSeconds = 0;
                    outcome = attemptOnce(seq, hintSeconds);
                    if (outcome == Attempt::Verdict || outcome == Attempt::Fatal) break;
                    if (attempt == retries) break; // budget exhausted
                    local.retries += 1;
                    const double delay = retryDelaySeconds(
                        static_cast<int>(attempt), baseSeconds, capSeconds, hintSeconds,
                        /*jitterSeed=*/(t << 20) ^ seq ^ (attempt << 40));
                    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
                }
                switch (outcome) {
                case Attempt::Verdict: local.ok += 1; break;
                case Attempt::Rejected: local.busy += 1; break;
                default: local.errors += 1; break;
                }
                local.latenciesUs.push_back(perRequest.elapsedSeconds() * 1e6);
            }
            if (useSession && client.connected() && !sessionId.empty()) {
                // Best-effort close; the server also reaps on disconnect.
                SolveRequestOptions copts;
                copts.op = "close";
                copts.session = sessionId;
                std::string row;
                if (client.sendAll(buildJsonlSolveRequest("close-" + std::to_string(t),
                                                          "", copts)))
                    client.readLine(row);
            }
            std::lock_guard<std::mutex> lock(mu);
            total.ok += local.ok;
            total.busy += local.busy;
            total.errors += local.errors;
            total.certs += local.certs;
            total.retries += local.retries;
            total.latenciesUs.insert(total.latenciesUs.end(), local.latenciesUs.begin(),
                                     local.latenciesUs.end());
        });
    }
    for (std::thread& th : threads) th.join();

    const double wallMs = wall.elapsedMilliseconds();
    std::sort(total.latenciesUs.begin(), total.latenciesUs.end());
    const auto pct = [&](double q) -> double {
        if (total.latenciesUs.empty()) return 0;
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(total.latenciesUs.size() - 1) + 0.5);
        return total.latenciesUs[idx];
    };
    std::cout << "requests=" << requests << " ok=" << total.ok << " busy=" << total.busy
              << " errors=" << total.errors << " retries=" << total.retries;
    if (ropts.certify) std::cout << " certs=" << total.certs;
    std::cout << " wall_ms=" << wallMs << "\n";
    if (!total.latenciesUs.empty()) {
        std::cout << "latency_us p50=" << pct(0.50) << " p90=" << pct(0.90)
                  << " p99=" << pct(0.99) << " max=" << total.latenciesUs.back() << "\n";
    }
    return total.ok == requests ? 0 : 1;
}
