#include "src/service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/cancel.hpp"
#include "src/cert/certificate.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/report.hpp"
#include "src/runtime/api.hpp"
#include "src/runtime/cache_plan.hpp"
#include "src/runtime/execute.hpp"
#include "src/runtime/guard.hpp"
#include "src/runtime/session.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/scoreboard.hpp"

namespace hqs::service {
namespace {

using api::EngineSpec;

/// Shared request validation plus the service's own engine policy: the
/// parsers fill an api::SolveRequest, validate() applies the one
/// non-finite/negative-budget and unknown-engine gate, and this rejects the
/// engines the service does not expose.  Returns the problem text ("" = ok)
/// and the parsed engine in @p spec.
std::string vetRequest(const api::SolveRequest& request, EngineSpec& spec)
{
    const std::string err = request.firstError();
    if (!err.empty()) return err;
    spec = *request.parsedEngine();
    if (spec.kind == EngineSpec::Kind::Idq || spec.kind == EngineSpec::Kind::Expand)
        return "engine not available over the service";
    return {};
}

/// Header-block cap handed to HttpParser and used to bound per-connection
/// input buffering.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

/// Copy the validated request into the wire-options struct the worker jobs
/// consume (including the v2 session fields).
SolveRequestOptions toWireOptions(const api::SolveRequest& request)
{
    SolveRequestOptions ropts;
    ropts.timeoutSeconds = request.timeoutSeconds;
    ropts.rssLimitBytes = request.rssLimitBytes;
    ropts.certify = request.certify;
    ropts.cacheControl = request.cacheControl;
    ropts.strategy = request.strategy;
    ropts.format = request.format;
    ropts.op = request.op;
    ropts.session = request.session;
    ropts.addGroup = request.addGroup;
    ropts.deltaClauses = request.deltaClauses;
    ropts.retractGroup = request.retractGroup;
    ropts.gate = request.gate;
    ropts.assume = request.assume;
    return ropts;
}

/// The signal hook (installSignalDrain): the handler only bumps a counter
/// and writes the registered eventfd; the loop thread does the actual
/// drain/stop when the wakeup arrives.
std::atomic<int> gSignalWakeFd{-1};
std::atomic<unsigned> gSignalCount{0};

extern "C" void serviceSignalHandler(int)
{
    gSignalCount.fetch_add(1, std::memory_order_relaxed);
    const int fd = gSignalWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
    }
}

} // namespace

struct SolverService::Impl {
    explicit Impl(ServiceOptions o) : opts(std::move(o))
    {
        if (opts.maxInflight == 0)
            opts.maxInflight = std::max(1u, std::thread::hardware_concurrency());
        SessionManagerOptions smo;
        smo.maxSessions = opts.maxSessions;
        smo.ttlSeconds = opts.sessionTtlSeconds;
        sessions = std::make_unique<SessionManager>(smo);
    }

    // ------------------------------------------------------------ state --

    ServiceOptions opts;
    ServiceCounters counters;
    Timer uptime;

    int epollFd = -1;
    int wakeFd = -1;
    int httpListenFd = -1;
    int jsonlListenFd = -1;
    int udsListenFd = -1;
    std::uint16_t boundHttpPort = 0;
    std::uint16_t boundJsonlPort = 0;
    Timer rssReport; ///< rate-limits the scoreboard RSS self-report

    std::thread loopThread;
    bool started = false;

    std::atomic<bool> drainRequested{false};
    std::atomic<bool> hardStopRequested{false};
    std::atomic<bool> drainOnSignal{false};
    /// gSignalCount value at installSignalDrain() time — signals delivered
    /// before this instance took over the handler (earlier instances in the
    /// same process, or a master process pre-fork) must not count against it.
    std::atomic<unsigned> signalBaseline{0};
    unsigned signalsSeen = 0; ///< loop-thread-only: signals consumed past the baseline

    std::mutex drainMu;
    std::condition_variable drainCv;
    bool drained = false;

    struct Completion {
        std::uint64_t reqId = 0;
        std::string bodyFragment; ///< `"result":...` JSON fields, no braces
        /// HTTP status of the response (JSONL rows ignore it): 200, or 413
        /// when a requested certificate exceeded maxCertificateBytes.
        int status = 200;
        /// Session id a successful "open" op allocated; the loop thread
        /// closes it again when the opener disconnected before the reply
        /// (no client ever learned the id — an orphan otherwise).
        std::string openedSession;
    };
    std::mutex completionMu;
    std::vector<Completion> completions;

    struct Conn {
        int fd = -1;
        bool jsonl = false;
        bool wantWrite = false; ///< EPOLLOUT currently armed
        bool closeAfterFlush = false;
        std::string in;
        std::string out; ///< unsent bytes (already-sent prefix erased)
        std::vector<std::uint64_t> outstanding;
        HttpParser parser;
    };
    std::unordered_map<int, Conn> conns;

    struct Pending {
        int connFd = -1; ///< -1 once the client is gone (response discarded)
        bool jsonl = false;
        bool keepAlive = true;
        std::string rowId; ///< JSONL `id` echo
        CancelToken token;
        /// Session this op was serialized under ("" = stateless request);
        /// completion releases the per-session FIFO queue.
        std::string sessionId;
        /// JSONL protocol tag appended to the response row ("v2" /
        /// "v1-compat"; "" = HTTP, no tag).
        std::string protocol;
    };
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t nextReqId = 1;

    // Sessions (JSONL protocol v2).  The manager is thread-safe; the
    // per-session FIFO op queues below are loop-thread-only, so ops against
    // one session never run concurrently while different sessions still
    // solve in parallel on the worker pool.
    std::unique_ptr<SessionManager> sessions;
    struct SessionOp {
        std::uint64_t reqId = 0;
        int ownerFd = -1; ///< opener connection ("open" ops; owner teardown)
        /// Pinned at admission: an op already queued keeps its session
        /// alive through eviction (null for "open"/"close").
        std::shared_ptr<Session> session;
        std::string formula; ///< "open" payload
        SolveRequestOptions ropts;
    };
    struct SessionQueue {
        bool busy = false; ///< an op for this session is on the pool
        std::deque<SessionOp> waiting;
    };
    std::unordered_map<std::string, SessionQueue> sessionQueues;

    // Workers.  Queue capacity exceeds the admission bound so submit()
    // never blocks the event loop.
    std::unique_ptr<ThreadPool> pool;

    // ------------------------------------------------------------ setup --

    int listenOn(std::uint16_t port, std::uint16_t& boundPort, std::string* error)
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
        if (fd < 0) {
            if (error) *error = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (opts.reusePort) ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        if (::inet_pton(AF_INET, opts.bindAddress.c_str(), &addr.sin_addr) != 1) {
            if (error) *error = "bad bind address: " + opts.bindAddress;
            ::close(fd);
            return -1;
        }
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
            ::listen(fd, 128) != 0) {
            if (error) *error = std::string("bind/listen: ") + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        socklen_t len = sizeof addr;
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
        boundPort = ntohs(addr.sin_port);
        return fd;
    }

    /// Bind + listen the metrics/stats Unix-domain socket.  A stale socket
    /// file from a crashed predecessor is unlinked first — the supervisor
    /// hands every respawn the same per-slot path.
    int listenOnUds(const std::string& path, std::string* error)
    {
        sockaddr_un addr{};
        if (path.size() >= sizeof(addr.sun_path)) {
            if (error) *error = "metrics UDS path too long: " + path;
            return -1;
        }
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
        if (fd < 0) {
            if (error) *error = std::string("uds socket: ") + std::strerror(errno);
            return -1;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
            ::listen(fd, 16) != 0) {
            if (error) *error = std::string("uds bind/listen: ") + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        return fd;
    }

    bool epollAdd(int fd, std::uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        return ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) == 0;
    }

    void epollMod(int fd, std::uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev);
    }

    bool start(std::string* error)
    {
        epollFd = ::epoll_create1(EPOLL_CLOEXEC);
        wakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (epollFd < 0 || wakeFd < 0) {
            if (error) *error = std::string("epoll/eventfd: ") + std::strerror(errno);
            return false;
        }
        httpListenFd = listenOn(opts.httpPort, boundHttpPort, error);
        if (httpListenFd < 0) return false;
        if (opts.enableJsonl) {
            jsonlListenFd = listenOn(opts.jsonlPort, boundJsonlPort, error);
            if (jsonlListenFd < 0) return false;
        }
        if (!opts.metricsUdsPath.empty()) {
            udsListenFd = listenOnUds(opts.metricsUdsPath, error);
            if (udsListenFd < 0) return false;
        }
        if (!epollAdd(wakeFd, EPOLLIN) || !epollAdd(httpListenFd, EPOLLIN) ||
            (jsonlListenFd >= 0 && !epollAdd(jsonlListenFd, EPOLLIN)) ||
            (udsListenFd >= 0 && !epollAdd(udsListenFd, EPOLLIN))) {
            if (error) *error = std::string("epoll_ctl: ") + std::strerror(errno);
            return false;
        }
        pool = std::make_unique<ThreadPool>(opts.maxInflight,
                                            opts.maxInflight + opts.maxQueue + 1);
        loopThread = std::thread([this] { runLoop(); });
        started = true;
        return true;
    }

    // ------------------------------------------------------------- loop --

    void runLoop()
    {
        epoll_event events[64];
        bool running = true;
        while (running) {
            // The 500 ms cap is a belt-and-braces heartbeat: every real
            // transition also writes wakeFd.
            const int n = ::epoll_wait(epollFd, events, 64, 500);
            for (int i = 0; i < n; ++i) {
                const int fd = events[i].data.fd;
                const std::uint32_t ev = events[i].events;
                if (fd == wakeFd) {
                    drainWakeups();
                } else if (fd == httpListenFd || fd == jsonlListenFd ||
                           fd == udsListenFd) {
                    acceptAll(fd, fd == jsonlListenFd);
                } else {
                    auto it = conns.find(fd);
                    if (it == conns.end()) continue; // closed earlier this batch
                    if (ev & (EPOLLHUP | EPOLLERR)) {
                        closeConn(it->second, /*peerClosed=*/true);
                        continue;
                    }
                    if (ev & (EPOLLIN | EPOLLRDHUP)) {
                        if (!readConn(it->second)) continue; // conn destroyed
                    }
                    if (ev & EPOLLOUT) {
                        auto again = conns.find(fd);
                        if (again != conns.end()) flushOut(again->second);
                    }
                }
            }
            handleSignals();
            processCompletions();
            if (opts.scoreboard && rssReport.elapsedMilliseconds() >= 250.0) {
                opts.scoreboard->rssBytes.store(readRssBytes(),
                                                std::memory_order_relaxed);
                rssReport.reset();
            }
            if (hardStopRequested.load(std::memory_order_acquire)) cancelAllPending();
            running = !readyToExit();
        }
        shutdownLoop();
    }

    void drainWakeups()
    {
        std::uint64_t buf;
        while (::read(wakeFd, &buf, sizeof buf) > 0) {
        }
        if (drainRequested.load(std::memory_order_acquire)) closeListeners();
    }

    void handleSignals()
    {
        if (!drainOnSignal.load(std::memory_order_relaxed)) return;
        const unsigned seen = gSignalCount.load(std::memory_order_relaxed) -
                              signalBaseline.load(std::memory_order_relaxed);
        if (seen == signalsSeen) return;
        signalsSeen = seen;
        // First signal: graceful drain.  Any further signal: cancel the
        // in-flight solves too.
        if (!drainRequested.load(std::memory_order_acquire)) {
            drainRequested.store(true, std::memory_order_release);
            closeListeners();
        } else {
            hardStopRequested.store(true, std::memory_order_release);
        }
        if (seen > 1) hardStopRequested.store(true, std::memory_order_release);
    }

    void closeListeners()
    {
        for (int* fd : {&httpListenFd, &jsonlListenFd}) {
            if (*fd >= 0) {
                ::epoll_ctl(epollFd, EPOLL_CTL_DEL, *fd, nullptr);
                ::close(*fd);
                *fd = -1;
            }
        }
    }

    void cancelAllPending()
    {
        for (auto& [id, p] : pending) p.token.requestCancel(CancelReason::User);
    }

    bool readyToExit()
    {
        if (!drainRequested.load(std::memory_order_acquire)) return false;
        if (!pending.empty()) return false;
        for (const auto& [fd, c] : conns)
            if (!c.out.empty()) return false;
        return true;
    }

    void shutdownLoop()
    {
        closeListeners();
        if (udsListenFd >= 0) {
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, udsListenFd, nullptr);
            ::close(udsListenFd);
            udsListenFd = -1;
            ::unlink(opts.metricsUdsPath.c_str());
        }
        std::vector<int> fds;
        fds.reserve(conns.size());
        for (const auto& [fd, c] : conns) fds.push_back(fd);
        for (int fd : fds) {
            auto it = conns.find(fd);
            if (it != conns.end()) closeConn(it->second, /*peerClosed=*/false);
        }
        {
            std::lock_guard<std::mutex> lock(drainMu);
            drained = true;
        }
        drainCv.notify_all();
    }

    // ------------------------------------------------------ connections --

    void acceptAll(int listenFd, bool jsonl)
    {
        while (true) {
            const int fd = ::accept4(listenFd, nullptr, nullptr,
                                     SOCK_CLOEXEC | SOCK_NONBLOCK);
            if (fd < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                if (errno == EINTR) continue;
                return; // transient accept failure; the listener stays armed
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            Conn& c = conns[fd];
            c.fd = fd;
            c.jsonl = jsonl;
            c.parser = HttpParser(kMaxHeaderBytes, opts.maxBodyBytes);
            if (!epollAdd(fd, EPOLLIN | EPOLLRDHUP)) {
                conns.erase(fd);
                ::close(fd);
                continue;
            }
            counters.connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
            counters.openConnections.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.connections", 1);
        }
    }

    /// Tear down @p c: cancel its outstanding solves (client-gone), orphan
    /// their pending records, unregister and close the socket.
    void closeConn(Conn& c, bool peerClosed)
    {
        if (peerClosed) {
            counters.disconnects.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.disconnects", 1);
        }
        for (std::uint64_t reqId : c.outstanding) {
            auto it = pending.find(reqId);
            if (it == pending.end()) continue;
            it->second.connFd = -1;
            if (peerClosed) {
                it->second.token.requestCancel(CancelReason::Disconnected);
                counters.disconnectCancels.fetch_add(1, std::memory_order_relaxed);
                OBS_COUNT("service.disconnect_cancels", 1);
            }
        }
        const int fd = c.fd;
        // Disconnect closes the sessions this connection opened (safe on the
        // owner fd: teardown runs before the kernel can reuse the number).
        // Ops already queued pinned their session shared_ptr and finish.
        if (sessions) sessions->closeOwned(static_cast<std::uint64_t>(fd));
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        conns.erase(fd); // invalidates c
        counters.openConnections.fetch_sub(1, std::memory_order_relaxed);
    }

    /// Read everything available.  Returns false when the connection was
    /// destroyed (peer close, fatal error, or protocol error).
    bool readConn(Conn& c)
    {
        char buf[64 * 1024];
        bool sawEof = false;
        while (true) {
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
            if (n > 0) {
                c.in.append(buf, static_cast<std::size_t>(n));
                // A JSONL peer streaming an endless unterminated line would
                // otherwise grow the buffer without bound.
                if (c.jsonl && c.in.size() > opts.maxBodyBytes + 4096) {
                    queueWrite(c, "{\"error\":\"line too long\"}\n");
                    c.closeAfterFlush = true;
                    c.in.clear();
                    return flushOrKeep(c);
                }
                // An HTTP peer can keep streaming while parseLoop holds a
                // pipelined request behind an outstanding solve; bound that
                // buffering to one full request plus slack.
                if (!c.jsonl &&
                    c.in.size() > kMaxHeaderBytes + opts.maxBodyBytes + 4096) {
                    counters.badRequests.fetch_add(1, std::memory_order_relaxed);
                    queueWrite(c, httpResponse(413, "application/json",
                                               "{\"error\":\"pipelined input exceeds "
                                               "limit\"}",
                                               /*keepAlive=*/false));
                    c.closeAfterFlush = true;
                    c.in.clear();
                    return flushOrKeep(c);
                }
                continue;
            }
            if (n == 0) {
                sawEof = true;
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            sawEof = true; // ECONNRESET & friends: treat as disconnect
            break;
        }
        if (!c.in.empty() && !parseLoop(c)) return false;
        if (sawEof) {
            auto it = conns.find(c.fd);
            if (it != conns.end()) closeConn(it->second, /*peerClosed=*/true);
            return false;
        }
        return true;
    }

    /// Parse and dispatch every complete message in @p c's input buffer.
    /// Returns false when the connection was destroyed.
    bool parseLoop(Conn& c)
    {
        if (c.jsonl) {
            std::size_t eol;
            while ((eol = c.in.find('\n')) != std::string::npos) {
                std::string line = c.in.substr(0, eol);
                c.in.erase(0, eol + 1);
                if (!line.empty() && line.back() == '\r') line.pop_back();
                if (!line.empty() && !handleJsonlLine(c, line)) return false;
            }
            return true;
        }
        while (true) {
            // Hold pipelined HTTP requests until the outstanding solve has
            // answered, so responses always come back in request order.
            if (!c.outstanding.empty()) return true;
            HttpRequest req;
            const HttpParser::Status st = c.parser.consumeRequest(c.in, req);
            if (st == HttpParser::Status::NeedMore) return true;
            if (st == HttpParser::Status::Error) {
                counters.badRequests.fetch_add(1, std::memory_order_relaxed);
                queueWrite(c, httpResponse(c.parser.errorStatus(), "application/json",
                                           "{\"error\":\"" +
                                               jsonEscape(c.parser.errorReason()) + "\"}",
                                           /*keepAlive=*/false));
                c.closeAfterFlush = true;
                return flushOrKeep(c);
            }
            if (!handleHttpRequest(c, req)) return false;
        }
    }

    // -------------------------------------------------------- endpoints --

    bool handleHttpRequest(Conn& c, const HttpRequest& req)
    {
        counters.requests.fetch_add(1, std::memory_order_relaxed);
        OBS_COUNT("service.requests", 1);
        const bool keepAlive = req.keepAlive();
        if (!keepAlive) c.closeAfterFlush = true;

        if (req.method == "GET" && req.target == "/healthz") {
            const bool drain = drainRequested.load(std::memory_order_acquire);
            queueWrite(c, httpResponse(drain ? 503 : 200, "text/plain",
                                       drain ? "draining\n" : "ok\n", keepAlive));
            return flushOrKeep(c);
        }
        if (req.method == "GET" && req.target == "/metrics") {
            std::ostringstream os;
            obs::writePrometheusText(os, obs::globalRegistry().snapshot());
            queueWrite(c, httpResponse(200, "text/plain; version=0.0.4", os.str(),
                                       keepAlive));
            return flushOrKeep(c);
        }
        if (req.method == "GET" && req.target == "/stats") {
            queueWrite(c, httpResponse(200, "application/json", statsJson(), keepAlive));
            return flushOrKeep(c);
        }
        if (req.method == "POST" && req.target == "/solve") {
            return handleSolveRequest(c, req, keepAlive);
        }
        counters.badRequests.fetch_add(1, std::memory_order_relaxed);
        queueWrite(c, httpResponse(req.method == "GET" || req.method == "POST" ? 404 : 405,
                                   "application/json", "{\"error\":\"no such endpoint\"}",
                                   keepAlive));
        return flushOrKeep(c);
    }

    bool handleSolveRequest(Conn& c, const HttpRequest& req, bool keepAlive)
    {
        api::SolveRequest request;
        EngineSpec spec;
        std::string problem;
        if (req.body.empty()) {
            problem = "empty body";
        } else {
            problem = api::parseRequestFields(
                request, api::RequestSurface::Http,
                [&req](const std::string& name) -> std::optional<std::string> {
                    if (const std::string* v = req.header(name)) return *v;
                    return std::nullopt;
                });
            if (problem.empty()) problem = vetRequest(request, spec);
            if (problem.empty()) problem = vetStrategy(request.strategy);
        }
        if (!problem.empty()) {
            counters.badRequests.fetch_add(1, std::memory_order_relaxed);
            queueWrite(c, httpResponse(400, "application/json",
                                       "{\"error\":\"" + jsonEscape(problem) + "\"}",
                                       keepAlive));
            return flushOrKeep(c);
        }
        std::string reject;
        std::string extraHeaders;
        int status = admissionStatus(&reject, &extraHeaders);
        if (status != 200) {
            queueWrite(c, httpResponse(status, "application/json", reject, keepAlive,
                                       extraHeaders));
            return flushOrKeep(c);
        }
        admit(c, /*rowId=*/"", keepAlive, req.body, toWireOptions(request), spec);
        return true;
    }

    /// Handle one JSONL request row.  Returns false when the connection was
    /// destroyed (same contract as handleHttpRequest): the error/reject
    /// paths flush immediately, and a flush failure tears the conn down.
    ///
    /// Protocol versioning: a row carrying an `op` field is v2 and its
    /// response is tagged `"protocol":"v2"`; a bare-formula row is the v1
    /// shape, still accepted for one release and tagged
    /// `"protocol":"v1-compat"`.  A `{"v":N}` row (no op, no formula) is the
    /// explicit handshake.
    bool handleJsonlLine(Conn& c, const std::string& line)
    {
        counters.requests.fetch_add(1, std::memory_order_relaxed);
        OBS_COUNT("service.requests", 1);
        std::string id;
        jsonStringField(line, "id", id);
        const std::string idPrefix =
            id.empty() ? std::string() : "\"id\":\"" + jsonEscape(id) + "\",";

        double ver = 0;
        if (jsonNumberField(line, "v", ver) && line.find("\"op\":") == std::string::npos &&
            line.find("\"formula\":") == std::string::npos) {
            if (ver == 2) {
                queueWrite(c, "{" + idPrefix + "\"protocol\":\"v2\"}\n");
            } else if (ver == 1) {
                queueWrite(c, "{" + idPrefix + "\"protocol\":\"v1-compat\"}\n");
            } else {
                counters.badRequests.fetch_add(1, std::memory_order_relaxed);
                queueWrite(c, "{" + idPrefix +
                                  "\"error\":\"unsupported protocol version\","
                                  "\"protocol\":\"v2\"}\n");
            }
            return flushOrKeep(c);
        }

        api::SolveRequest request;
        EngineSpec spec;
        // One table-driven parse shared with the HTTP and CLI surfaces;
        // validate() (inside vetRequest) judges the extracted values.
        std::string problem = api::parseRequestFields(
            request, api::RequestSurface::Jsonl,
            [&line](const std::string& name) -> std::optional<std::string> {
                std::string v;
                if (jsonScalarField(line, name, v)) return v;
                return std::nullopt;
            });
        const bool v2 = !request.op.empty();
        const std::string protocol = v2 ? "v2" : "v1-compat";
        const std::string protoSuffix = ",\"protocol\":\"" + protocol + "\"";

        std::string formula;
        jsonStringField(line, "formula", formula);
        const bool needsFormula = request.op.empty() || request.op == "open";
        if (problem.empty() && needsFormula && formula.empty())
            problem = "missing formula";
        if (problem.empty()) problem = vetRequest(request, spec);
        if (problem.empty()) problem = vetStrategy(request.strategy);
        if (!problem.empty()) {
            counters.badRequests.fetch_add(1, std::memory_order_relaxed);
            queueWrite(c, "{" + idPrefix + "\"error\":\"" + jsonEscape(problem) + "\"" +
                              protoSuffix + "}\n");
            return flushOrKeep(c);
        }

        if (!v2) {
            std::string reject;
            const int status = admissionStatus(&reject, nullptr);
            if (status != 200) {
                // Splice the id and protocol tag into the prebuilt body.
                queueWrite(c, "{" + idPrefix + reject.substr(1, reject.size() - 2) +
                                  protoSuffix + "}\n");
                return flushOrKeep(c);
            }
            admit(c, id, /*keepAlive=*/true, formula, toWireOptions(request), spec,
                  protocol);
            return true;
        }

        // v2 session ops.  Resolve the target session on the loop thread so
        // an evicted/expired/unknown id answers with the typed session-gone
        // row instead of a worker-side failure.
        std::shared_ptr<Session> session;
        if (request.op != "open") {
            session = sessions->find(request.session);
            if (!session) {
                counters.badRequests.fetch_add(1, std::memory_order_relaxed);
                queueWrite(c, "{" + idPrefix + "\"error\":\"unknown or evicted session " +
                                  jsonEscape("\"" + request.session + "\"") +
                                  "\",\"error_kind\":\"session-gone\",\"session\":\"" +
                                  jsonEscape(request.session) + "\"" + protoSuffix +
                                  "}\n");
                return flushOrKeep(c);
            }
        }
        if (request.op != "close") { // close always admitted: cleanup must work under load
            std::string reject;
            const int status = admissionStatus(&reject, nullptr);
            if (status != 200) {
                queueWrite(c, "{" + idPrefix + reject.substr(1, reject.size() - 2) +
                                  protoSuffix + "}\n");
                return flushOrKeep(c);
            }
        }
        admitSessionOp(c, id, std::move(session), formula, toWireOptions(request),
                       protocol);
        return true;
    }

    /// The strategy spec a request named ("" = "default"), or nullptr when
    /// the server has no such entry (for "" that means: keep the hard-wired
    /// engine behavior).
    const strategy::StrategySpec* findStrategy(const std::string& name) const
    {
        const auto it = opts.strategies.find(name.empty() ? "default" : name);
        return it == opts.strategies.end() ? nullptr : &it->second;
    }

    /// Reject requests naming a strategy the server does not have ("" is
    /// always acceptable — it falls back to hard-wired behavior).
    std::string vetStrategy(const std::string& name) const
    {
        if (name.empty() || findStrategy(name)) return {};
        return "unknown strategy \"" + name + "\"";
    }

    /// 200 when a solve may be admitted right now; otherwise the rejection
    /// status with its JSON body (and Retry-After header for HTTP).
    int admissionStatus(std::string* body, std::string* extraHeaders)
    {
        if (drainRequested.load(std::memory_order_acquire)) {
            counters.rejectedDraining.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.rejected.draining", 1);
            *body = "{\"error\":\"draining\"}";
            return 503;
        }
        const std::uint64_t inflight =
            counters.pendingSolves.load(std::memory_order_relaxed);
        if (inflight >= opts.maxInflight + opts.maxQueue) {
            counters.rejectedBusy.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.rejected.busy", 1);
            const auto retryMs =
                static_cast<long long>(opts.retryAfterSeconds * 1000.0 + 0.5);
            *body = "{\"error\":\"busy\",\"retry_after_ms\":" + std::to_string(retryMs) +
                    "}";
            if (extraHeaders) {
                const long long secs = (retryMs + 999) / 1000;
                *extraHeaders = "Retry-After: " + std::to_string(secs) + "\r\n";
            }
            return 429;
        }
        return 200;
    }

    /// Admission prologue of every solve and session op: fill the
    /// deployment's default budgets into @p ropts, register the reply slot
    /// on @p c, and count the admission.  Returns the request id.
    std::uint64_t registerAdmission(Conn& c, const std::string& rowId, bool keepAlive,
                                    SolveRequestOptions& ropts,
                                    const std::string& protocol)
    {
        if (ropts.timeoutSeconds <= 0) ropts.timeoutSeconds = opts.defaultTimeoutSeconds;
        if (ropts.rssLimitBytes == 0) ropts.rssLimitBytes = opts.defaultRssLimitBytes;

        const std::uint64_t reqId = nextReqId++;
        Pending& p = pending[reqId];
        p.connFd = c.fd;
        p.jsonl = c.jsonl;
        p.keepAlive = keepAlive;
        p.rowId = rowId;
        p.sessionId = ropts.session; // "" for stateless solves
        p.protocol = protocol;
        c.outstanding.push_back(reqId);

        counters.solvesAdmitted.fetch_add(1, std::memory_order_relaxed);
        counters.pendingSolves.fetch_add(1, std::memory_order_relaxed);
        OBS_COUNT("service.solves.admitted", 1);
        OBS_GAUGE_MAX("service.pending.max",
                      counters.pendingSolves.load(std::memory_order_relaxed));
        return reqId;
    }

    void admit(Conn& c, const std::string& rowId, bool keepAlive, std::string formula,
               SolveRequestOptions ropts, EngineSpec spec,
               const std::string& protocol = {})
    {
        const std::uint64_t reqId = registerAdmission(c, rowId, keepAlive, ropts, protocol);
        const CancelToken token = pending[reqId].token;
        pool->submit([this, reqId, token, formula = std::move(formula), ropts, spec] {
            runSolveJob(reqId, token, formula, ropts, spec);
        });
    }

    /// Admit one v2 session op.  Ops naming a session are serialized through
    /// that session's loop-thread FIFO queue — one op per session on the
    /// pool at a time, while distinct sessions still solve concurrently.
    /// "open" has no queue to wait on (its id is allocated worker-side).
    /// "close" rides the same queue so it cannot overtake a queued solve.
    void admitSessionOp(Conn& c, const std::string& rowId, std::shared_ptr<Session> session,
                        std::string formula, SolveRequestOptions ropts,
                        const std::string& protocol)
    {
        SessionOp op;
        op.reqId = registerAdmission(c, rowId, /*keepAlive=*/true, ropts, protocol);
        op.ownerFd = c.fd;
        op.session = std::move(session);
        op.formula = std::move(formula);
        op.ropts = std::move(ropts);
        if (op.ropts.session.empty()) {
            startSessionOp(std::move(op));
            return;
        }
        SessionQueue& q = sessionQueues[op.ropts.session];
        if (q.busy) {
            q.waiting.push_back(std::move(op));
        } else {
            q.busy = true;
            startSessionOp(std::move(op));
        }
    }

    void startSessionOp(SessionOp op)
    {
        const CancelToken token = pending[op.reqId].token;
        pool->submit([this, op = std::move(op), token]() mutable {
            runSessionJob(std::move(op), token);
        });
    }

    /// Completion of a session op releases its FIFO slot: start the next
    /// waiting op, or drop the (now idle) queue entry.
    void finishSessionOp(const std::string& sessionId)
    {
        auto it = sessionQueues.find(sessionId);
        if (it == sessionQueues.end()) return;
        SessionQueue& q = it->second;
        if (!q.waiting.empty()) {
            SessionOp next = std::move(q.waiting.front());
            q.waiting.pop_front();
            startSessionOp(std::move(next));
            return;
        }
        sessionQueues.erase(it);
    }

    // ----------------------------------------------------- worker side --

    /// Hand a finished reply to the loop thread.
    void complete(Completion done)
    {
        {
            std::lock_guard<std::mutex> lock(completionMu);
            completions.push_back(std::move(done));
        }
        wake();
    }

    /// The result cache solves may use: none under the solveOverride test
    /// hook, whose fabricated verdicts must never enter the cache.
    cache::ResultCache* solveCache() const
    {
        return opts.solveOverride ? nullptr : opts.resultCache.get();
    }

    void runSolveJob(std::uint64_t reqId, const CancelToken& token,
                     const std::string& formula, const SolveRequestOptions& ropts,
                     const EngineSpec& spec)
    {
        Timer t;

        const strategy::StrategySpec* strat = findStrategy(ropts.strategy);
        const bool dqcir = isCircuitInput(ropts.format, formula);
        api::CachePlan plan = api::planCache(solveCache(), strat, ropts.cacheControl, dqcir);
        // One parse keys the plan and, on a miss, feeds the solve.  An
        // unparsable body leaves the plan unkeyed; the solve path below
        // reports the ParseError with full context.
        std::optional<ParsedQdimacs> parsed;
        if (plan.active()) {
            try {
                parsed = parseDqdimacsString(formula);
                plan.keyBy(*parsed);
            } catch (const std::exception&) {
            }
        }
        if (const std::optional<api::CacheHit> hit =
                token.cancelled() ? std::nullopt : api::lookupCache(plan, ropts.certify)) {
            const cache::CacheEntry& entry = hit->entry;
            counters.cacheHits.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.cache.hit", 1);
            std::string body = "\"result\":\"" + std::string(toString(entry.result)) + "\"";
            body += ",\"wall_ms\":" + std::to_string(t.elapsedMilliseconds());
            if (!entry.engine.empty()) body += ",\"engine\":\"" + jsonEscape(entry.engine) + "\"";
            body += ",\"cached\":true";
            int status = 200;
            // A cached certificate that cannot be re-served is withheld with
            // a typed certificate_error; the verdict still serves.
            if (const std::optional<cache::CertReuse> reuse = hit->cert;
                reuse == cache::CertReuse::Served) {
                counters.cacheCertServed.fetch_add(1, std::memory_order_relaxed);
                status = appendCertificate(body, entry.certificate,
                                           Deadline::in(ropts.timeoutSeconds));
            } else if (reuse == cache::CertReuse::None) {
                body += ",\"certificate_error\":\"unavailable\"";
            } else if (reuse) {
                counters.cacheCertRejects.fetch_add(1, std::memory_order_relaxed);
                body += std::string(",\"certificate_error\":\"cached certificate rejected: ") +
                        (reuse == cache::CertReuse::HashMismatch ? "formula hash mismatch"
                                                                 : "malformed artifact") +
                        "\"";
            }
            complete({reqId, std::move(body), status, {}});
            return;
        }

        api::SolveRequest request;
        request.engine = api::toString(spec);
        request.nodeLimit = opts.nodeLimit;
        request.certify = ropts.certify;
        // Crash containment: journal this request in the shared-memory
        // scoreboard so the supervisor can stamp a worker-crash FailureInfo
        // if this process dies mid-solve.  The site label is the engine the
        // request entered — the finest-grained span a dead process can
        // still be attributed to.
        std::size_t sbEntry = WorkerScoreboard::kJournalSlots;
        if (opts.scoreboard)
            sbEntry = opts.scoreboard->claim(scoreboardHash(formula), api::toString(spec.kind));

        api::ExecuteOutcome run;
        // A solo engine is named even when its run dies; a portfolio names
        // its winner.
        if (spec.kind != EngineSpec::Kind::Portfolio) run.engine = api::toString(spec.kind);
        GuardOptions gopts;
        gopts.deadline = Deadline::in(ropts.timeoutSeconds);
        gopts.cancel = token;
        gopts.rssLimitBytes = ropts.rssLimitBytes;
        const GuardedOutcome outcome = runGuarded(gopts, [&](const Deadline& dl) {
            if (opts.solveOverride) return opts.solveOverride(formula, ropts, dl);
            if (!parsed) {
                parsed = dqcir ? lowerDqcir(parseDqcirString(formula))
                               : parseDqdimacsString(formula);
            }
            const DqbfFormula f = DqbfFormula::fromParsed(*parsed);
            parsed.reset();
            run = api::execute(request, f, dl, {}, strat);
            return run.result;
        });

        const double wallMs = t.elapsedMilliseconds();
        OBS_COUNT("service.solves.completed", 1);
        OBS_OBSERVE("service.solve_latency_us", wallMs * 1000.0);
#if HQS_OBS_ENABLED
        obs::currentRegistry().add(
            obs::metric(std::string("service.result.") + toString(outcome.result),
                        obs::MetricKind::Counter),
            1);
#endif

        const FailureInfo& failure = outcome.failure ? outcome.failure : run.failure;
        std::string body = "\"result\":\"" + toString(outcome.result) + "\"";
        body += ",\"wall_ms\":" + std::to_string(wallMs);
        if (!run.engine.empty()) body += ",\"engine\":\"" + jsonEscape(run.engine) + "\"";
        if (failure) {
            body += ",\"failure\":{\"kind\":\"" + std::string(toString(failure.kind)) +
                    "\",\"site\":\"" + jsonEscape(failure.site) + "\",\"what\":\"" +
                    jsonEscape(failure.what) + "\"}";
        }
        int status = 200;
        if (ropts.certify && outcome.result == SolveResult::Sat)
            status = appendCertificate(body, run.certificate, gopts.deadline);
        if (api::storeCache(plan, outcome.result, run.engine, wallMs, run.certificate))
            counters.cacheStores.fetch_add(1, std::memory_order_relaxed);
        if (opts.scoreboard) opts.scoreboard->release(sbEntry);
        complete({reqId, std::move(body), status, {}});
    }

    /// One v2 session op on the pool.  The per-session FIFO guarantees at
    /// most one op per session runs at a time, so Session methods need no
    /// locking of their own.
    void runSessionJob(SessionOp op, const CancelToken& token)
    {
        Timer t;
        if (op.ropts.op == "open") {
            std::string err;
            const std::string sid =
                sessions->open(op.formula, op.ropts.format,
                               static_cast<std::uint64_t>(op.ownerFd), &err);
            Completion done;
            done.reqId = op.reqId;
            if (sid.empty()) {
                counters.badRequests.fetch_add(1, std::memory_order_relaxed);
                done.bodyFragment = "\"error\":\"open failed: " + jsonEscape(err) + "\"";
            } else {
                done.bodyFragment = "\"session\":\"" + jsonEscape(sid) + "\"";
                if (std::shared_ptr<Session> s = sessions->find(sid)) {
                    done.bodyFragment +=
                        ",\"vars\":" + std::to_string(s->baseVars()) +
                        ",\"clauses\":" + std::to_string(s->baseClauses());
                }
                done.bodyFragment +=
                    ",\"wall_ms\":" + std::to_string(t.elapsedMilliseconds());
                done.openedSession = sid;
            }
            complete(std::move(done));
            return;
        }
        if (op.ropts.op == "close") {
            const bool closed = sessions->close(op.ropts.session);
            std::string body = "\"session\":\"" + jsonEscape(op.ropts.session) +
                               "\",\"closed\":" + (closed ? "true" : "false") +
                               ",\"wall_ms\":" + std::to_string(t.elapsedMilliseconds());
            complete({op.reqId, std::move(body), 200, {}});
            return;
        }
        runSessionSolve(std::move(op), token);
    }

    /// The delta/solve ops: apply the delta (transactionally, inside the
    /// guard so an injected `session-delta` fault surfaces as a contained
    /// FailureInfo), solve the effective formula incrementally, and report
    /// the reuse accounting.  Client mistakes (SessionError) become a typed
    /// `delta-invalid` row, never a guard failure.
    void runSessionSolve(SessionOp op, const CancelToken& token)
    {
        Timer t;
        GuardOptions gopts;
        gopts.deadline = Deadline::in(op.ropts.timeoutSeconds);
        gopts.cancel = token;
        gopts.rssLimitBytes = op.ropts.rssLimitBytes;
        SessionSolveOutcome outcome;
        std::string typedError;
        const GuardedOutcome guarded = runGuarded(gopts, [&](const Deadline& dl) {
            try {
                if (op.ropts.op == "delta") {
                    SessionDelta delta;
                    delta.addGroup = op.ropts.addGroup;
                    delta.addClauses = op.ropts.deltaClauses;
                    delta.retractGroup = op.ropts.retractGroup;
                    delta.gate = op.ropts.gate;
                    op.session->applyDelta(delta);
                }
                SessionSolveOptions sopts;
                sopts.deadline = dl;
                sopts.nodeLimit = opts.nodeLimit;
                sopts.certify = op.ropts.certify;
                outcome = op.session->solve(sopts, op.ropts.assume);
            } catch (const SessionError& e) {
                typedError = e.what();
                return SolveResult::Unknown;
            }
            return outcome.result;
        });

        const double wallMs = t.elapsedMilliseconds();
        OBS_COUNT("service.solves.completed", 1);
        OBS_OBSERVE("service.solve_latency_us", wallMs * 1000.0);

        std::string body;
        int status = 200;
        if (!typedError.empty()) {
            counters.badRequests.fetch_add(1, std::memory_order_relaxed);
            body = "\"error\":\"" + jsonEscape(typedError) +
                   "\",\"error_kind\":\"delta-invalid\",\"session\":\"" +
                   jsonEscape(op.ropts.session) + "\"";
        } else {
            body = "\"result\":\"" + toString(guarded.result) + "\"";
            body += ",\"wall_ms\":" + std::to_string(wallMs);
            body += ",\"engine\":\"hqs\"";
            body += ",\"session\":\"" + jsonEscape(op.ropts.session) + "\"";
            body += ",\"delta\":{\"components\":" + std::to_string(outcome.components) +
                    ",\"reused\":" + std::to_string(outcome.reusedComponents) +
                    ",\"cone_nodes_saved\":" + std::to_string(outcome.coneNodesSaved) +
                    "}";
            if (guarded.failure) {
                body += ",\"failure\":{\"kind\":\"" +
                        std::string(toString(guarded.failure.kind)) + "\",\"site\":\"" +
                        jsonEscape(guarded.failure.site) + "\",\"what\":\"" +
                        jsonEscape(guarded.failure.what) + "\"}";
            }
            if (op.ropts.certify && guarded.result == SolveResult::Sat)
                status = appendCertificate(body, outcome.certificate, gopts.deadline);
            // Session solves feed the shared content-addressed cache under
            // the canonical key of the *effective* formula — a later cold
            // solve of the same text hits — and never read it.  Assumption-
            // carrying solves are request-local and skip it (Session counted
            // cache.bypass.session).
            if (!outcome.usedAssumptions && isConclusive(guarded.result)) {
                api::CachePlan plan =
                    api::planCache(solveCache(), findStrategy(op.ropts.strategy),
                                   op.ropts.cacheControl, op.session->circuitBased());
                plan.keyBy(outcome.effective);
                if (api::storeCache(plan, guarded.result, "hqs", wallMs, outcome.certificate))
                    counters.cacheStores.fetch_add(1, std::memory_order_relaxed);
            }
        }
        complete({op.reqId, std::move(body), status, {}});
    }

    /// Attach the certificate of a certify+Sat solve to @p body: the
    /// size-capped `certificate` object (optionally self-checked through the
    /// independent parser/checker first), or a `certificate_error` field.
    /// Returns the HTTP status for the response (JSONL rows ignore it).
    int appendCertificate(std::string& body, const std::string& certText,
                          const Deadline& deadline)
    {
        if (certText.empty()) {
            // A portfolio race can be won by an engine that cannot certify.
            body += ",\"certificate_error\":\"unavailable\"";
            return 200;
        }
        if (certText.size() > opts.maxCertificateBytes) {
            counters.certTooLarge.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("service.cert.too_large", 1);
            body += ",\"certificate_error\":\"certificate size " +
                    std::to_string(certText.size()) + " exceeds cap " +
                    std::to_string(opts.maxCertificateBytes) + "\"";
            return 413;
        }
        std::string selfCheck;
        if (opts.certSelfCheck) {
            const cert::CheckStatus st = cert::checkCertificateText(certText, deadline).status;
            selfCheck = cert::toString(st);
            if (st != cert::CheckStatus::Ok) {
                // Never ship a certificate the server itself could not
                // validate; the verdict still goes out, bytes withheld.
                counters.certSelfCheckFails.fetch_add(1, std::memory_order_relaxed);
                OBS_COUNT("cert.selfcheck_fail", 1);
                body += ",\"certificate\":{\"self_check\":\"" + selfCheck +
                        "\",\"error\":\"self-check failed; certificate withheld\"}";
                return 200;
            }
        }
        counters.certificatesIssued.fetch_add(1, std::memory_order_relaxed);
        OBS_COUNT("service.cert.issued", 1);
        body += ",\"certificate\":{\"size_bytes\":" + std::to_string(certText.size());
        if (!selfCheck.empty()) body += ",\"self_check\":\"" + selfCheck + "\"";
        body += ",\"bytes\":\"" + jsonEscape(certText) + "\"}";
        return 200;
    }

    // -------------------------------------------------- loop: responses --

    void processCompletions()
    {
        std::vector<Completion> batch;
        {
            std::lock_guard<std::mutex> lock(completionMu);
            batch.swap(completions);
        }
        for (Completion& done : batch) {
            auto it = pending.find(done.reqId);
            if (it == pending.end()) continue;
            Pending p = std::move(it->second);
            pending.erase(it);
            counters.pendingSolves.fetch_sub(1, std::memory_order_relaxed);
            counters.solvesCompleted.fetch_add(1, std::memory_order_relaxed);
            // Release the per-session FIFO slot whatever happened to the
            // connection — a queued op behind this one must still run.
            if (!p.sessionId.empty()) finishSessionOp(p.sessionId);

            auto cit = p.connFd < 0 ? conns.end() : conns.find(p.connFd);
            if (cit == conns.end()) {
                // Client gone; verdict dropped — and a session opened for a
                // gone client is closed again (no one ever learned its id).
                if (!done.openedSession.empty()) sessions->close(done.openedSession);
                continue;
            }
            Conn& c = cit->second;
            std::erase(c.outstanding, done.reqId);
            if (p.jsonl) {
                std::string row = "{";
                if (!p.rowId.empty()) row += "\"id\":\"" + jsonEscape(p.rowId) + "\",";
                row += done.bodyFragment;
                if (!p.protocol.empty()) row += ",\"protocol\":\"" + p.protocol + "\"";
                row += "}\n";
                queueWrite(c, row);
            } else {
                queueWrite(c, httpResponse(done.status, "application/json",
                                           "{" + done.bodyFragment + "}", p.keepAlive));
                if (!p.keepAlive) c.closeAfterFlush = true;
            }
            if (flushOrKeep(c) && !c.jsonl) {
                // The response unblocked request ordering; parse whatever
                // the client pipelined behind it.
                auto alive = conns.find(p.connFd);
                if (alive != conns.end() && !alive->second.in.empty())
                    parseLoop(alive->second);
            }
        }
    }

    // ---------------------------------------------------- loop: writing --

    void queueWrite(Conn& c, std::string data)
    {
        if (c.out.empty())
            c.out = std::move(data);
        else
            c.out += data;
    }

    /// Flush as much of @p c's output as the socket accepts.  Returns false
    /// when the connection was destroyed (peer reset, or close-after-flush
    /// completed).
    bool flushOrKeep(Conn& c) { return flushOut(c); }

    bool flushOut(Conn& c)
    {
        while (!c.out.empty()) {
            // MSG_NOSIGNAL: a dead peer yields EPIPE instead of SIGPIPE —
            // writes to gone clients are disconnects, never aborts.
            const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
            if (n > 0) {
                c.out.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (!c.wantWrite) {
                    c.wantWrite = true;
                    epollMod(c.fd, EPOLLIN | EPOLLRDHUP | EPOLLOUT);
                }
                return true;
            }
            if (n < 0 && errno == EINTR) continue;
            // EPIPE / ECONNRESET / short-circuit: the peer is gone.
            auto it = conns.find(c.fd);
            if (it != conns.end()) closeConn(it->second, /*peerClosed=*/true);
            return false;
        }
        if (c.wantWrite) {
            c.wantWrite = false;
            epollMod(c.fd, EPOLLIN | EPOLLRDHUP);
        }
        if (c.closeAfterFlush) {
            auto it = conns.find(c.fd);
            if (it != conns.end()) closeConn(it->second, /*peerClosed=*/false);
            return false;
        }
        return true;
    }

    // ------------------------------------------------------------ misc --

    std::string statsJson()
    {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("draining").value(drainRequested.load(std::memory_order_acquire));
        w.key("uptime_ms").value(uptime.elapsedMilliseconds());
        w.key("pending_solves")
            .value(static_cast<std::int64_t>(
                counters.pendingSolves.load(std::memory_order_relaxed)));
        w.key("open_connections")
            .value(static_cast<std::int64_t>(
                counters.openConnections.load(std::memory_order_relaxed)));
        w.key("counters").beginObject();
        const auto put = [&](const char* name, const std::atomic<std::uint64_t>& v) {
            w.key(name).value(static_cast<std::int64_t>(v.load(std::memory_order_relaxed)));
        };
        put("connections_accepted", counters.connectionsAccepted);
        put("requests", counters.requests);
        put("solves_admitted", counters.solvesAdmitted);
        put("solves_completed", counters.solvesCompleted);
        put("rejected_busy", counters.rejectedBusy);
        put("rejected_draining", counters.rejectedDraining);
        put("bad_requests", counters.badRequests);
        put("disconnects", counters.disconnects);
        put("disconnect_cancels", counters.disconnectCancels);
        put("certificates_issued", counters.certificatesIssued);
        put("cert_selfcheck_fails", counters.certSelfCheckFails);
        put("cert_too_large", counters.certTooLarge);
        put("cache_hits", counters.cacheHits);
        put("cache_stores", counters.cacheStores);
        put("cache_cert_served", counters.cacheCertServed);
        put("cache_cert_rejects", counters.cacheCertRejects);
        w.endObject();
        if (opts.resultCache) {
            const cache::CacheStats cs = opts.resultCache->stats();
            w.key("cache").beginObject();
            w.key("entries")
                .value(static_cast<std::int64_t>(opts.resultCache->entryCount()));
            w.key("bytes").value(static_cast<std::int64_t>(cs.bytes));
            w.key("hits").value(static_cast<std::int64_t>(cs.hits));
            w.key("misses").value(static_cast<std::int64_t>(cs.misses));
            w.key("evictions").value(static_cast<std::int64_t>(cs.evictions));
            w.key("stores").value(static_cast<std::int64_t>(cs.stores));
            w.key("persist_hits").value(static_cast<std::int64_t>(cs.persistHits));
            w.key("persist_errors").value(static_cast<std::int64_t>(cs.persistErrors));
            w.endObject();
        }
        w.key("limits").beginObject();
        w.key("max_inflight").value(static_cast<std::int64_t>(opts.maxInflight));
        w.key("max_queue").value(static_cast<std::int64_t>(opts.maxQueue));
        w.key("max_certificate_bytes")
            .value(static_cast<std::int64_t>(opts.maxCertificateBytes));
        w.endObject();
        w.endObject();
        return os.str();
    }

    void wake()
    {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wakeFd, &one, sizeof one);
    }

    ~Impl()
    {
        if (wakeFd >= 0) ::close(wakeFd);
        if (epollFd >= 0) ::close(epollFd);
    }
};

SolverService::SolverService(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
}

SolverService::~SolverService()
{
    installSignalDrain(nullptr);
    stop();
}

bool SolverService::start(std::string* error)
{
    std::string err;
    if (!impl_->start(&err)) {
        if (error) *error = err;
        // Release any fds a partial start left behind.
        if (impl_->httpListenFd >= 0) ::close(impl_->httpListenFd);
        if (impl_->jsonlListenFd >= 0) ::close(impl_->jsonlListenFd);
        if (impl_->udsListenFd >= 0) ::close(impl_->udsListenFd);
        impl_->httpListenFd = impl_->jsonlListenFd = impl_->udsListenFd = -1;
        return false;
    }
    return true;
}

std::uint16_t SolverService::httpPort() const { return impl_->boundHttpPort; }
std::uint16_t SolverService::jsonlPort() const { return impl_->boundJsonlPort; }

void SolverService::beginDrain()
{
    impl_->drainRequested.store(true, std::memory_order_release);
    impl_->wake();
}

bool SolverService::waitForDrained(double timeoutSeconds)
{
    std::unique_lock<std::mutex> lock(impl_->drainMu);
    if (timeoutSeconds <= 0) {
        impl_->drainCv.wait(lock, [this] { return impl_->drained; });
        return true;
    }
    return impl_->drainCv.wait_for(lock, std::chrono::duration<double>(timeoutSeconds),
                                   [this] { return impl_->drained; });
}

void SolverService::stop()
{
    if (!impl_->started) return;
    impl_->drainRequested.store(true, std::memory_order_release);
    impl_->hardStopRequested.store(true, std::memory_order_release);
    impl_->wake();
    if (impl_->loopThread.joinable()) impl_->loopThread.join();
    impl_->pool.reset(); // drains any still-queued jobs
    impl_->started = false;
}

bool SolverService::draining() const
{
    return impl_->drainRequested.load(std::memory_order_acquire);
}

const ServiceCounters& SolverService::counters() const { return impl_->counters; }

void SolverService::installSignalDrain(SolverService* s)
{
    if (!s) {
        gSignalWakeFd.store(-1, std::memory_order_relaxed);
        return;
    }
    s->impl_->signalBaseline.store(gSignalCount.load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
    s->impl_->drainOnSignal.store(true, std::memory_order_relaxed);
    gSignalWakeFd.store(s->impl_->wakeFd, std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = serviceSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

} // namespace hqs::service
