// Solver-service tests: HTTP codec units, loopback end-to-end round trips,
// and the serving guarantees — bounded admission (429 + Retry-After under
// flood), disconnect-storm cancellation through CancelReason::Disconnected,
// graceful drain (programmatic and via SIGTERM), and the /metrics
// Prometheus schema.  The whole file also compiles into the tsan/* and
// asan/* runtime binaries, so the epoll loop's single-writer discipline is
// sanitizer-checked, not just asserted in comments.
//
// Golden files live in tests/data/golden/; regenerate with
// HQS_UPDATE_GOLDEN=1 after an intentional schema change.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/result_cache.hpp"
#include "src/cert/certificate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/service/client.hpp"
#include "src/service/http.hpp"
#include "src/service/server.hpp"

using namespace hqs;
using namespace hqs::service;
using namespace std::chrono_literals;

namespace {

// Forall u1 u2 exists e3(u1) e4(u2): (u1 <-> e3) and (u2 <-> e4) — SAT.
const char* kSatFormula =
    "p cnf 4 4\n"
    "a 1 2 0\n"
    "d 3 1 0\n"
    "d 4 2 0\n"
    "1 -3 0\n"
    "-1 3 0\n"
    "2 -4 0\n"
    "-2 4 0\n";

// Forall u1 exists e2 with empty support: e2 <-> u1 — UNSAT.
const char* kUnsatFormula =
    "p cnf 2 2\n"
    "a 1 0\n"
    "d 2 0\n"
    "1 -2 0\n"
    "-1 2 0\n";

// DQCIR copycat: forall x, exists y with D_y = {x}: y <-> x — SAT.
const char* kDqcirSat =
    "#QCIR-G14\n"
    "forall(x)\n"
    "depend(y, x)\n"
    "output(-g)\n"
    "g = xor(x, y)\n";

// Same matrix but free(y): y cannot see x it must mirror — UNSAT.
const char* kDqcirUnsat =
    "#QCIR-G14\n"
    "forall(x)\n"
    "free(y)\n"
    "output(-g)\n"
    "g = xor(x, y)\n";

std::string goldenPath(const std::string& name)
{
    return std::string(HQS_TEST_DATA_DIR) + "/golden/" + name;
}

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

/// Poll @p cond (a counter predicate) for up to @p seconds.
bool eventually(const std::function<bool()>& cond, double seconds = 10.0)
{
    Timer t;
    while (t.elapsedSeconds() < seconds) {
        if (cond()) return true;
        std::this_thread::sleep_for(1ms);
    }
    return cond();
}

} // namespace

// --- HTTP codec -------------------------------------------------------------

TEST(ServiceHttp, ParsesRequestAndPipelinedSuccessor)
{
    HttpParser parser;
    std::string buf = "POST /solve HTTP/1.1\r\nContent-Length: 3\r\n"
                      "timeout-ms: 250\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
    HttpRequest req;
    ASSERT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::Ready);
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.target, "/solve");
    EXPECT_EQ(req.body, "abc");
    ASSERT_NE(req.header("timeout-ms"), nullptr);
    EXPECT_EQ(*req.header("timeout-ms"), "250");
    EXPECT_TRUE(req.keepAlive());

    ASSERT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::Ready);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.target, "/healthz");
    EXPECT_TRUE(buf.empty());
}

TEST(ServiceHttp, IncompleteBodyNeedsMore)
{
    HttpParser parser;
    std::string buf = "POST /solve HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
    HttpRequest req;
    EXPECT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::NeedMore);
}

TEST(ServiceHttp, EnforcesLimits)
{
    {
        HttpParser parser(/*maxHeaderBytes=*/64, /*maxBodyBytes=*/1024);
        std::string buf = "GET / HTTP/1.1\r\nx: " + std::string(200, 'a') + "\r\n\r\n";
        HttpRequest req;
        EXPECT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::Error);
        EXPECT_EQ(parser.errorStatus(), 431);
    }
    {
        HttpParser parser(/*maxHeaderBytes=*/1024, /*maxBodyBytes=*/8);
        std::string buf = "POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        HttpRequest req;
        EXPECT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::Error);
        EXPECT_EQ(parser.errorStatus(), 413);
    }
    {
        HttpParser parser;
        std::string buf = "not-http\r\n\r\n";
        HttpRequest req;
        EXPECT_EQ(parser.consumeRequest(buf, req), HttpParser::Status::Error);
        EXPECT_EQ(parser.errorStatus(), 400);
    }
}

TEST(ServiceHttp, JsonlRowRoundTrip)
{
    SolveRequestOptions opts;
    opts.timeoutSeconds = 0.25;
    opts.engine = "portfolio:2";
    const std::string row = buildJsonlSolveRequest("job-1", kSatFormula, opts);
    EXPECT_EQ(row.find('\n'), row.size() - 1) << "row must be a single line";

    std::string id, formula, engine;
    double timeoutMs = 0;
    EXPECT_TRUE(jsonStringField(row, "id", id));
    EXPECT_TRUE(jsonStringField(row, "formula", formula));
    EXPECT_TRUE(jsonStringField(row, "engine", engine));
    EXPECT_TRUE(jsonNumberField(row, "timeout_ms", timeoutMs));
    EXPECT_EQ(id, "job-1");
    EXPECT_EQ(formula, kSatFormula);
    EXPECT_EQ(engine, "portfolio:2");
    EXPECT_EQ(timeoutMs, 250);
}

TEST(ServiceHttp, JsonStringFieldRoundTripsEveryByteAndRejectsBrokenStrings)
{
    std::string every;
    for (int b = 0x01; b <= 0xff; ++b) every.push_back(static_cast<char>(b));
    const std::string obj = "{\"id\":\"x\",\"formula\":\"" + jsonEscape(every) + "\"}";
    std::string out = "stale";
    ASSERT_TRUE(jsonStringField(obj, "formula", out));
    EXPECT_EQ(out, every);

    // \u00XX escapes decode to their byte, between and around plain runs.
    ASSERT_TRUE(jsonStringField(R"({"f":"\u0041b\u00ffc\u001f\\\"\n\r\t"})", "f", out));
    EXPECT_EQ(out, "Ab\xff" "c\x1f\\\"\n\r\t");
    ASSERT_TRUE(jsonStringField(R"({"f":""})", "f", out));
    EXPECT_EQ(out, "");

    EXPECT_FALSE(jsonStringField(R"({"g":"x"})", "f", out));       // absent
    EXPECT_FALSE(jsonStringField(R"({"f":"abc)", "f", out));        // unterminated
    EXPECT_FALSE(jsonStringField(R"({"f":"abc\)", "f", out));       // truncated escape
    EXPECT_FALSE(jsonStringField(R"({"f":"a\u00)", "f", out));      // truncated \u
    EXPECT_FALSE(jsonStringField(R"({"f":"a\u0041)", "f", out));    // \u then end
    EXPECT_FALSE(jsonStringField(R"({"f":"a\u00zz"})", "f", out));  // bad hex
    EXPECT_FALSE(jsonStringField(R"({"f":"a\x41"})", "f", out));    // unknown escape
}

// --- loopback round trips ---------------------------------------------------

TEST(ServiceLoopback, HttpSolveRoundTrip)
{
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;

    // SAT and UNSAT verdicts on one keep-alive connection.
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");

    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kUnsatFormula, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "UNSAT");

    // The portfolio engine answers too and reports its winner.
    ropts.engine = "portfolio:2";
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    std::string engine;
    EXPECT_TRUE(jsonStringField(rsp.body, "engine", engine));
    EXPECT_FALSE(engine.empty());

    // Unknown engine is a 400, not a hang.
    ropts.engine = "no-such-engine";
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 400);

    // /healthz and /stats.
    ASSERT_TRUE(client.sendAll("GET /healthz HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    EXPECT_EQ(rsp.body, "ok\n");
    ASSERT_TRUE(client.sendAll("GET /stats HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    EXPECT_NE(rsp.body.find("\"solves_completed\""), std::string::npos);

    service.stop();
    EXPECT_EQ(service.counters().solvesCompleted.load(), 3u);
    EXPECT_EQ(service.counters().badRequests.load(), 1u);
}

TEST(ServiceLoopback, DqcirRoundTripSniffedExplicitAndCacheBypassed)
{
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.defaultTimeoutSeconds = 30;
    opts.resultCache = std::make_shared<cache::ResultCache>();
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;

    // Content-sniffed: no format header, the '#QCIR' header line decides.
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirSat, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200) << rsp.body;
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");

    // Resubmitting the identical circuit must solve fresh, not hit the
    // cache: circuit requests bypass the result cache entirely.
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirSat, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200) << rsp.body;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    EXPECT_EQ(rsp.body.find("\"cached\":true"), std::string::npos) << rsp.body;

    // Explicit format=dqcir, solved by the CEGAR engine with a certificate.
    ropts.format = "dqcir";
    ropts.engine = "cegar";
    ropts.certify = true;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirSat, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200) << rsp.body;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    std::string engine;
    ASSERT_TRUE(jsonStringField(rsp.body, "engine", engine));
    EXPECT_EQ(engine, "cegar");
    std::string certBytes;
    EXPECT_TRUE(jsonStringField(rsp.body, "bytes", certBytes)) << rsp.body;
    EXPECT_FALSE(certBytes.empty());

    ropts.certify = false;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirUnsat, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200) << rsp.body;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "UNSAT");

    // Forcing format=dqdimacs on a circuit body is a structured parse
    // failure in the response, not a crash or a hang.
    ropts.engine.clear();
    ropts.format = "dqdimacs";
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirSat, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200) << rsp.body;
    EXPECT_NE(rsp.body.find("\"kind\":\"parse-error\""), std::string::npos) << rsp.body;

    // An unknown format is rejected up front.
    ropts.format = "xml";
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kDqcirSat, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 400) << rsp.body;

    // The same circuit round-trips over the JSONL front end.
    BlockingClient jclient;
    ASSERT_TRUE(jclient.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    SolveRequestOptions jropts;
    jropts.format = "dqcir";
    ASSERT_TRUE(jclient.sendAll(buildJsonlSolveRequest("c-1", kDqcirSat, jropts)));
    std::string row;
    ASSERT_TRUE(jclient.readLine(row));
    ASSERT_TRUE(jsonStringField(row, "result", verdict)) << row;
    EXPECT_EQ(verdict, "SAT");

    service.stop();
    // No circuit verdict entered or left the cache.
    EXPECT_EQ(service.counters().cacheHits.load(), 0u);
    EXPECT_EQ(service.counters().cacheStores.load(), 0u);
}

TEST(ServiceLoopback, JsonlPipelinedRoundTrip)
{
    ServiceOptions opts;
    opts.maxInflight = 4;
    opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;

    // Pipeline several rows, then collect every tagged response.
    SolveRequestOptions ropts;
    const int kRows = 6;
    std::string burst;
    for (int i = 0; i < kRows; ++i) {
        burst += buildJsonlSolveRequest("row-" + std::to_string(i),
                                        i % 2 == 0 ? kSatFormula : kUnsatFormula, ropts);
    }
    ASSERT_TRUE(client.sendAll(burst));

    std::vector<std::string> verdicts(kRows);
    for (int i = 0; i < kRows; ++i) {
        std::string row;
        ASSERT_TRUE(client.readLine(row)) << "missing response row " << i;
        std::string id, verdict;
        ASSERT_TRUE(jsonStringField(row, "id", id)) << row;
        ASSERT_TRUE(jsonStringField(row, "result", verdict)) << row;
        ASSERT_TRUE(id.rfind("row-", 0) == 0);
        const int idx = std::atoi(id.c_str() + 4);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, kRows);
        verdicts[static_cast<std::size_t>(idx)] = verdict;
    }
    for (int i = 0; i < kRows; ++i)
        EXPECT_EQ(verdicts[static_cast<std::size_t>(i)], i % 2 == 0 ? "SAT" : "UNSAT");

    // A row without a formula gets an error row, and the connection lives on.
    ASSERT_TRUE(client.sendAll("{\"id\":\"bad\"}\n"));
    std::string row;
    ASSERT_TRUE(client.readLine(row));
    EXPECT_NE(row.find("\"error\""), std::string::npos);

    service.stop();
}

// --- certification over the wire --------------------------------------------

// The certify header turns a SAT response into verdict + checkable artifact:
// the returned bytes must parse and pass the independent checker on the
// client side, not just claim a self_check on the server side.
TEST(ServiceLoopback, CertifyHttpRoundTripDeliversACheckableCertificate)
{
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.defaultTimeoutSeconds = 30;
    opts.certSelfCheck = true;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;

    SolveRequestOptions ropts;
    ropts.certify = true;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    EXPECT_NE(rsp.body.find("\"self_check\":\"ok\""), std::string::npos) << rsp.body;

    // Recover the artifact and check it with the independent checker.
    std::string certText;
    ASSERT_TRUE(jsonStringField(rsp.body, "bytes", certText)) << rsp.body;
    cert::Certificate parsed;
    std::string detail;
    ASSERT_EQ(cert::parseCertificateString(certText, parsed, detail), cert::CheckStatus::Ok)
        << detail;
    const cert::CheckResult check = cert::checkCertificate(parsed);
    EXPECT_TRUE(check.ok()) << cert::toString(check.status) << ": " << check.detail;

    // UNSAT with certify is still a plain verdict — no certificate block.
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kUnsatFormula, ropts, true)));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "UNSAT");
    EXPECT_EQ(rsp.body.find("\"certificate\""), std::string::npos) << rsp.body;

    // A malformed certify header is a 400, not a silent default.
    ASSERT_TRUE(client.sendAll("POST /solve HTTP/1.1\r\nContent-Length: 0\r\n"
                               "certify: maybe\r\n\r\n"));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 400);

    service.stop();
    EXPECT_EQ(service.counters().certificatesIssued.load(), 1u);
    EXPECT_EQ(service.counters().certSelfCheckFails.load(), 0u);
}

TEST(ServiceLoopback, CertifyOverCapKeepsTheVerdictAndReturns413)
{
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.defaultTimeoutSeconds = 30;
    opts.maxCertificateBytes = 10; // every real certificate exceeds this
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;

    SolveRequestOptions ropts;
    ropts.certify = true;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 413);
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict)) << rsp.body;
    EXPECT_EQ(verdict, "SAT"); // the verdict survives even when the cert cannot
    std::string reason;
    ASSERT_TRUE(jsonStringField(rsp.body, "certificate_error", reason)) << rsp.body;
    EXPECT_NE(reason.find("exceeds cap"), std::string::npos) << reason;

    // The cap and the rejection both show up in /stats.
    ASSERT_TRUE(client.sendAll("GET /stats HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    EXPECT_NE(rsp.body.find("\"cert_too_large\": 1"), std::string::npos) << rsp.body;
    EXPECT_NE(rsp.body.find("\"max_certificate_bytes\": 10"), std::string::npos)
        << rsp.body;

    service.stop();
    EXPECT_EQ(service.counters().certTooLarge.load(), 1u);
    EXPECT_EQ(service.counters().certificatesIssued.load(), 0u);
}

TEST(ServiceLoopback, JsonlCertifyRowCarriesTheCertificateBlock)
{
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;

    SolveRequestOptions ropts;
    ropts.certify = true;
    ASSERT_TRUE(client.sendAll(buildJsonlSolveRequest("c-1", kSatFormula, ropts)));
    std::string row;
    ASSERT_TRUE(client.readLine(row));
    std::string id, verdict;
    ASSERT_TRUE(jsonStringField(row, "id", id));
    EXPECT_EQ(id, "c-1");
    ASSERT_TRUE(jsonStringField(row, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    double sizeBytes = 0;
    ASSERT_TRUE(jsonNumberField(row, "size_bytes", sizeBytes)) << row;
    EXPECT_GT(sizeBytes, 0);
    std::string certText;
    ASSERT_TRUE(jsonStringField(row, "bytes", certText)) << row;
    cert::Certificate parsed;
    std::string detail;
    EXPECT_EQ(cert::parseCertificateString(certText, parsed, detail), cert::CheckStatus::Ok)
        << detail;
    EXPECT_EQ(static_cast<double>(certText.size()), sizeBytes);

    service.stop();
    EXPECT_EQ(service.counters().certificatesIssued.load(), 1u);
}

TEST(ServiceLoopback, RejectsNonFiniteTimeoutHeader)
{
    ServiceOptions opts;
    opts.maxInflight = 1;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;

    // strtod happily parses "nan" and "inf"; the parse layer passes them
    // through and api::SolveRequest::validate() — the one non-finite-budget
    // gate shared by every entry point — bounces them as 400, so they never
    // become an undefined Deadline.
    for (const char* bad : {"nan", "inf", "-inf"}) {
        const std::string body = kSatFormula;
        std::string req = "POST /solve HTTP/1.1\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\ntimeout-ms: " + bad +
                          "\r\n\r\n" + body;
        ASSERT_TRUE(client.sendAll(req));
        HttpResponseMsg rsp;
        ASSERT_TRUE(client.readResponse(rsp)) << bad;
        EXPECT_EQ(rsp.status, 400) << bad;
        EXPECT_NE(rsp.body.find("timeout must be finite"), std::string::npos) << bad;
    }
    service.stop();
    EXPECT_EQ(service.counters().solvesAdmitted.load(), 0u);
}

TEST(ServiceLoopback, HttpInputBoundedWhileSolveOutstanding)
{
    // parseLoop holds pipelined HTTP input behind an outstanding solve; a
    // hostile peer streaming bytes into that window must hit the buffer cap
    // (413 + close), not balloon c.in until the solve finishes.
    std::atomic<bool> release{false};
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.maxBodyBytes = 4096;
    opts.solveOverride = [&](const std::string&, const SolveRequestOptions&,
                             const Deadline& dl) {
        while (!release.load(std::memory_order_acquire) && !dl.cancelled())
            std::this_thread::sleep_for(1ms);
        return SolveResult::Sat;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    ASSERT_TRUE(eventually([&] { return service.counters().pendingSolves.load() == 1; }));

    // Stream well past maxHeaderBytes + maxBodyBytes while the solve blocks.
    // sendAll may fail partway once the server tears the connection down.
    const std::string chunk(64 * 1024, 'x');
    for (int i = 0; i < 8; ++i) {
        if (!client.sendAll(chunk)) break;
        if (service.counters().badRequests.load() > 0) break;
    }
    ASSERT_TRUE(eventually([&] { return service.counters().badRequests.load() == 1; }));

    // The server answers 413 and closes.  If it closed with garbage still
    // unread in its receive buffer the close degrades to a RST that may
    // outrun the 413, so a reset counts as torn-down too.
    HttpResponseMsg rsp;
    if (client.readResponse(rsp)) {
        EXPECT_EQ(rsp.status, 413);
        EXPECT_NE(rsp.body.find("exceeds limit"), std::string::npos);
        EXPECT_FALSE(client.readResponse(rsp)) << "connection must close after 413";
    }

    release.store(true, std::memory_order_release);
    ASSERT_TRUE(eventually([&] { return service.counters().pendingSolves.load() == 0; }));
    service.stop();
}

TEST(ServiceLoopback, JsonlMalformedBurstSurvivesPeerReset)
{
    // Regression for a use-after-free: a JSONL client pipelines several
    // malformed rows and resets the connection; if an error-row flush fails
    // mid-burst the parse loop must stop, not keep using the destroyed conn.
    ServiceOptions opts;
    opts.maxInflight = 2;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    std::string burst;
    for (int i = 0; i < 64; ++i) burst += "{\"id\":\"bad-" + std::to_string(i) + "\"}\n";
    for (int attempt = 0; attempt < 20; ++attempt) {
        BlockingClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
        ASSERT_TRUE(client.sendAll(burst));
        // SO_LINGER 0 turns close() into a RST, so the server's error-row
        // writes race against a dead socket.
        struct linger lin{};
        lin.l_onoff = 1;
        lin.l_linger = 0;
        ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &lin, sizeof lin);
        client.close();
    }

    // The service survives the storm and still answers a polite client.
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildJsonlSolveRequest("ok", kSatFormula, ropts)));
    std::string row;
    ASSERT_TRUE(client.readLine(row));
    std::string verdict;
    ASSERT_TRUE(jsonStringField(row, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    service.stop();
}

// --- backpressure -----------------------------------------------------------

TEST(ServiceLoopback, FloodGets429WithRetryAfterAndExactlyOneResponseEach)
{
    std::atomic<bool> release{false};
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.maxQueue = 0;
    opts.retryAfterSeconds = 2.0;
    opts.solveOverride = [&](const std::string&, const SolveRequestOptions&,
                             const Deadline& dl) {
        while (!release.load(std::memory_order_acquire) && !dl.expired())
            std::this_thread::sleep_for(1ms);
        return dl.cancelled() ? SolveResult::Unknown : SolveResult::Sat;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    // 64 concurrent clients, one solve each, against a single admission slot
    // that is held open: exactly one is admitted, the rest bounce with 429,
    // and every single one hears back.
    const std::size_t kClients = 64;
    std::atomic<std::size_t> ok{0}, busy{0}, retryAfterSeen{0}, failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        threads.emplace_back([&] {
            BlockingClient client;
            if (!client.connect("127.0.0.1", service.httpPort())) {
                failures.fetch_add(1);
                return;
            }
            SolveRequestOptions ropts;
            if (!client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, false))) {
                failures.fetch_add(1);
                return;
            }
            HttpResponseMsg rsp;
            if (!client.readResponse(rsp)) {
                failures.fetch_add(1);
                return;
            }
            if (rsp.status == 200) {
                ok.fetch_add(1);
            } else if (rsp.status == 429) {
                busy.fetch_add(1);
                if (rsp.header("retry-after") && *rsp.header("retry-after") == "2")
                    retryAfterSeen.fetch_add(1);
                double retryMs = 0;
                if (!jsonNumberField(rsp.body, "retry_after_ms", retryMs) ||
                    retryMs != 2000)
                    failures.fetch_add(1);
            } else {
                failures.fetch_add(1);
            }
        });
    }
    // Let the flood finish rejecting, then release the one admitted solve.
    ASSERT_TRUE(eventually([&] {
        return service.counters().rejectedBusy.load() +
                   service.counters().solvesAdmitted.load() >=
               kClients;
    }));
    release.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(ok.load(), 1u);
    EXPECT_EQ(busy.load(), kClients - 1);
    EXPECT_EQ(retryAfterSeen.load(), busy.load());
    EXPECT_EQ(service.counters().solvesAdmitted.load(), 1u);
    EXPECT_EQ(service.counters().rejectedBusy.load(), kClients - 1);
    service.stop();
}

TEST(ServiceLoopback, JsonlBusyRowCarriesRetryAfter)
{
    std::atomic<bool> release{false};
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.maxQueue = 0;
    opts.retryAfterSeconds = 0.5;
    opts.solveOverride = [&](const std::string&, const SolveRequestOptions&,
                             const Deadline& dl) {
        while (!release.load(std::memory_order_acquire) && !dl.expired())
            std::this_thread::sleep_for(1ms);
        return dl.cancelled() ? SolveResult::Unknown : SolveResult::Sat;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildJsonlSolveRequest("first", kSatFormula, ropts) +
                               buildJsonlSolveRequest("second", kSatFormula, ropts)));

    // The second row bounces immediately with the busy error.
    std::string row;
    ASSERT_TRUE(client.readLine(row));
    std::string id, errField;
    ASSERT_TRUE(jsonStringField(row, "id", id));
    EXPECT_EQ(id, "second");
    ASSERT_TRUE(jsonStringField(row, "error", errField));
    EXPECT_EQ(errField, "busy");
    double retryMs = 0;
    ASSERT_TRUE(jsonNumberField(row, "retry_after_ms", retryMs));
    EXPECT_EQ(retryMs, 500);

    release.store(true, std::memory_order_release);
    ASSERT_TRUE(client.readLine(row));
    ASSERT_TRUE(jsonStringField(row, "id", id));
    EXPECT_EQ(id, "first");
    std::string verdict;
    ASSERT_TRUE(jsonStringField(row, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    service.stop();
}

// --- disconnect cancellation ------------------------------------------------

TEST(ServiceLoopback, DisconnectStormCancelsInFlightSolves)
{
    ServiceOptions opts;
    opts.maxInflight = 8;
    opts.maxQueue = 64;
    opts.defaultTimeoutSeconds = 60; // backstop only; cancellation must win
    opts.solveOverride = [](const std::string&, const SolveRequestOptions&,
                            const Deadline& dl) {
        while (!dl.expired()) std::this_thread::sleep_for(1ms);
        return dl.cancelled() ? SolveResult::Unknown : SolveResult::Timeout;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    // A storm of clients that fire a solve and hang up without reading.
    const std::size_t kClients = 32;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        threads.emplace_back([&] {
            BlockingClient client;
            if (!client.connect("127.0.0.1", service.httpPort())) return;
            SolveRequestOptions ropts;
            client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true));
            client.close(); // mid-solve hangup
        });
    }
    for (std::thread& t : threads) t.join();

    // Every solve the server admitted must be cancelled by the hangups and
    // unwind long before the 60 s deadline backstop.
    ASSERT_TRUE(eventually([&] {
        const ServiceCounters& c = service.counters();
        return c.solvesAdmitted.load() == c.solvesCompleted.load() &&
               c.pendingSolves.load() == 0 && c.solvesAdmitted.load() > 0;
    }))
        << "admitted=" << service.counters().solvesAdmitted.load()
        << " completed=" << service.counters().solvesCompleted.load();
    EXPECT_GT(service.counters().disconnectCancels.load(), 0u);
    EXPECT_EQ(service.counters().disconnectCancels.load(),
              service.counters().solvesAdmitted.load());

    // The service is still healthy for a well-behaved client afterwards.
    // (The override never returns Sat un-cancelled, so use /healthz.)
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;
    ASSERT_TRUE(client.sendAll("GET /healthz HTTP/1.1\r\n\r\n"));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    service.stop();
}

// --- graceful drain ---------------------------------------------------------

TEST(ServiceLoopback, DrainFinishesInFlightAndRejectsNew)
{
    std::atomic<bool> release{false};
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.solveOverride = [&](const std::string&, const SolveRequestOptions&,
                             const Deadline& dl) {
        while (!release.load(std::memory_order_acquire) && !dl.expired())
            std::this_thread::sleep_for(1ms);
        return dl.cancelled() ? SolveResult::Unknown : SolveResult::Sat;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient inflight;
    ASSERT_TRUE(inflight.connect("127.0.0.1", service.httpPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(inflight.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    ASSERT_TRUE(eventually([&] { return service.counters().pendingSolves.load() == 1; }));

    // Second client connects before the drain begins; its request arrives
    // after and must be answered 503, exactly once.
    BlockingClient late;
    ASSERT_TRUE(late.connect("127.0.0.1", service.httpPort(), &error)) << error;
    service.beginDrain();
    EXPECT_TRUE(service.draining());
    ASSERT_TRUE(late.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(late.readResponse(rsp));
    EXPECT_EQ(rsp.status, 503);
    ASSERT_TRUE(late.sendAll("GET /healthz HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(late.readResponse(rsp));
    EXPECT_EQ(rsp.status, 503);

    // The in-flight solve still completes and its response is flushed
    // before the loop exits.
    release.store(true, std::memory_order_release);
    ASSERT_TRUE(inflight.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");

    EXPECT_TRUE(service.waitForDrained(/*timeoutSeconds=*/10));
    EXPECT_EQ(service.counters().solvesCompleted.load(), 1u);
    EXPECT_EQ(service.counters().rejectedDraining.load(), 1u);
}

TEST(ServiceLoopback, SigtermDrainsAndSecondSignalCancels)
{
    ServiceOptions opts;
    opts.maxInflight = 2;
    opts.defaultTimeoutSeconds = 60; // backstop; the signals must win
    opts.solveOverride = [](const std::string&, const SolveRequestOptions&,
                            const Deadline& dl) {
        while (!dl.expired()) std::this_thread::sleep_for(1ms);
        return SolveResult::Unknown;
    };
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    SolverService::installSignalDrain(&service);

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    ASSERT_TRUE(eventually([&] { return service.counters().pendingSolves.load() == 1; }));

    // First SIGTERM: graceful drain — the solve keeps running.
    std::raise(SIGTERM);
    ASSERT_TRUE(eventually([&] { return service.draining(); }));
    EXPECT_EQ(service.counters().pendingSolves.load(), 1u);

    // Second SIGTERM escalates: the in-flight solve is cancelled, its
    // response flushed, and the loop exits.
    std::raise(SIGTERM);
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    EXPECT_EQ(rsp.status, 200);
    EXPECT_TRUE(service.waitForDrained(/*timeoutSeconds=*/10));
    SolverService::installSignalDrain(nullptr);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
}

// The supervised-fleet drain path leans on this guarantee: a SIGTERM
// arriving while a certify solve is in flight must still deliver the full
// response with an intact, independently checkable certificate — never a
// torn artifact, never a dropped connection.
TEST(ServiceLoopback, SigtermDrainFlushesInFlightCertifyIntact)
{
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.defaultTimeoutSeconds = 30;
    opts.certSelfCheck = true;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    SolverService::installSignalDrain(&service);

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;
    SolveRequestOptions ropts;
    ropts.certify = true;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, false)));
    // Drain the moment the solve is admitted (or already done — either way
    // the response must be flushed complete before the loop exits).
    ASSERT_TRUE(eventually([&] {
        return service.counters().solvesAdmitted.load() >= 1;
    }));
    std::raise(SIGTERM);

    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp)) << "certify response torn by drain";
    EXPECT_EQ(rsp.status, 200);
    std::string verdict;
    ASSERT_TRUE(jsonStringField(rsp.body, "result", verdict));
    EXPECT_EQ(verdict, "SAT");
    EXPECT_NE(rsp.body.find("\"self_check\":\"ok\""), std::string::npos) << rsp.body;
    std::string certText;
    ASSERT_TRUE(jsonStringField(rsp.body, "bytes", certText)) << rsp.body;
    cert::Certificate parsed;
    std::string detail;
    ASSERT_EQ(cert::parseCertificateString(certText, parsed, detail),
              cert::CheckStatus::Ok)
        << detail;
    const cert::CheckResult check = cert::checkCertificate(parsed);
    EXPECT_TRUE(check.ok()) << cert::toString(check.status) << ": " << check.detail;

    EXPECT_TRUE(service.waitForDrained(/*timeoutSeconds=*/10));
    SolverService::installSignalDrain(nullptr);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
}

// --- metrics ----------------------------------------------------------------

TEST(ServiceLoopback, MetricsEndpointSpeaksPrometheus)
{
    ServiceOptions opts;
    opts.maxInflight = 1;
    opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.httpPort(), &error)) << error;
    SolveRequestOptions ropts;
    ASSERT_TRUE(client.sendAll(buildHttpSolveRequest(kSatFormula, ropts, true)));
    HttpResponseMsg rsp;
    ASSERT_TRUE(client.readResponse(rsp));
    ASSERT_EQ(rsp.status, 200);

    ASSERT_TRUE(client.sendAll("GET /metrics HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(client.readResponse(rsp));
    ASSERT_EQ(rsp.status, 200);
    ASSERT_NE(rsp.header("content-type"), nullptr);
    EXPECT_NE(rsp.header("content-type")->find("text/plain"), std::string::npos);
#if HQS_OBS_ENABLED
    // Counter and histogram samples in Prometheus text exposition format.
    EXPECT_NE(rsp.body.find("# TYPE hqs_service_requests counter"),
              std::string::npos)
        << rsp.body;
    EXPECT_NE(rsp.body.find("# TYPE hqs_service_solve_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(rsp.body.find("hqs_service_solve_latency_us_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(rsp.body.find("hqs_service_solve_latency_us_count 1"),
              std::string::npos);
#endif
    service.stop();
}

TEST(ServicePrometheus, WriterFormatsAllKinds)
{
    std::vector<obs::MetricValue> metrics;
    obs::MetricValue counter;
    counter.name = "service.requests";
    counter.kind = obs::MetricKind::Counter;
    counter.value = 7;
    metrics.push_back(counter);
    obs::MetricValue gauge;
    gauge.name = "service.pending.max";
    gauge.kind = obs::MetricKind::Gauge;
    gauge.value = 3;
    metrics.push_back(gauge);
    obs::MetricValue hist;
    hist.name = "service.solve_latency_us";
    hist.kind = obs::MetricKind::Histogram;
    hist.count = 3;
    hist.sum = 11;
    hist.max = 8;
    hist.buckets[1] = 1; // one observation of 1
    hist.buckets[2] = 1; // one in [2,4)
    hist.buckets[4] = 1; // one in [8,16)
    metrics.push_back(hist);

    std::ostringstream os;
    obs::writePrometheusText(os, metrics);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE hqs_service_requests counter\n"
                        "hqs_service_requests 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE hqs_service_pending_max gauge\n"
                        "hqs_service_pending_max 3\n"),
              std::string::npos);
    // Registry bucket i counts [2^(i-1), 2^i), emitted at the le="2^i" edge:
    // the observation of 1 lands at le="2", the one in [2,4) at le="4".
    EXPECT_NE(text.find("hqs_service_solve_latency_us_bucket{le=\"2\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("hqs_service_solve_latency_us_bucket{le=\"4\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("hqs_service_solve_latency_us_bucket{le=\"16\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("hqs_service_solve_latency_us_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("hqs_service_solve_latency_us_sum 11\n"), std::string::npos);
    EXPECT_NE(text.find("hqs_service_solve_latency_us_count 3\n"), std::string::npos);
}

TEST(ServicePrometheus, HistogramQuantilesFromLog2Buckets)
{
    obs::MetricValue hist;
    hist.kind = obs::MetricKind::Histogram;
    hist.count = 100;
    hist.sum = 0;
    hist.max = 900;
    hist.buckets[5] = 90;  // 90 observations in [16, 32)
    hist.buckets[10] = 10; // 10 observations in [512, 1024)
    EXPECT_EQ(obs::histogramQuantile(hist, 0.50), 32);
    EXPECT_EQ(obs::histogramQuantile(hist, 0.90), 32);
    // The top occupied bucket's upper edge is clamped to the observed max.
    EXPECT_EQ(obs::histogramQuantile(hist, 0.99), 900);
    EXPECT_EQ(obs::histogramQuantile(hist, 1.0), 900);
}

// --- protocol versioning & solve sessions -----------------------------------

namespace {

/// Start an in-process service, connect a JSONL client, run @p body.
void withJsonlService(const std::function<void(SolverService&, BlockingClient&)>& body,
                      ServiceOptions opts = {})
{
    if (opts.maxInflight == 0) opts.maxInflight = 4;
    if (opts.defaultTimeoutSeconds == 0) opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    body(service, client);
    service.stop();
}

/// Send one JSONL row, read one response row.
std::string roundTrip(BlockingClient& client, const std::string& row)
{
    EXPECT_TRUE(client.sendAll(row));
    std::string reply;
    EXPECT_TRUE(client.readLine(reply));
    return reply;
}

/// Open a session over @p formula and return its id ("" on failure).
std::string openSession(BlockingClient& client, const std::string& formula)
{
    SolveRequestOptions open;
    open.op = "open";
    const std::string reply =
        roundTrip(client, buildJsonlSolveRequest("open-1", formula, open));
    std::string sid;
    jsonStringField(reply, "session", sid);
    return sid;
}

} // namespace

// Locks both protocol shapes: a v1 row (formula, no op) keeps its exact v1
// fields and gains only the "protocol":"v1-compat" tag; a v2 row is tagged
// "v2".  Registered as the ctest entry service/protocol-compat.
TEST(ProtocolCompat, V1RowsAnswerV1CompatAndV2RowsAnswerV2)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        // v1 shape: formula row -> verdict row tagged v1-compat.
        SolveRequestOptions ropts;
        std::string reply =
            roundTrip(client, buildJsonlSolveRequest("v1-row", kSatFormula, ropts));
        std::string verdict, protocol;
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "SAT");
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v1-compat");

        // v1 error rows carry the same tag.
        reply = roundTrip(client, "{\"id\":\"bad\"}\n");
        EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v1-compat");

        // v2 shape: an op row is tagged v2.
        SolveRequestOptions open;
        open.op = "open";
        reply = roundTrip(client, buildJsonlSolveRequest("v2-row", kSatFormula, open));
        std::string sid;
        ASSERT_TRUE(jsonStringField(reply, "session", sid)) << reply;
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v2");
    });
}

TEST(ProtocolCompat, HandshakeRowNegotiatesTheVersion)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        std::string protocol;
        std::string reply = roundTrip(client, buildJsonlHandshake(2));
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v2");
        EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;

        reply = roundTrip(client, buildJsonlHandshake(1));
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v1-compat");

        // An unsupported version is an error row, and the connection lives.
        reply = roundTrip(client, buildJsonlHandshake(9));
        EXPECT_NE(reply.find("unsupported protocol version"), std::string::npos)
            << reply;
        reply = roundTrip(client, buildJsonlHandshake(2));
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v2");
    });
}

TEST(ProtocolCompat, RetiredCacheControlSpellingsNoLongerSwitchTheCacheOff)
{
    // The pre-v2 spellings (`cache_control` in JSONL, the `cache-control`
    // HTTP header) are unknown fields now: they are ignored, so a repeat
    // request is answered from the result cache.
    ServiceOptions opts;
    opts.resultCache = std::make_shared<cache::ResultCache>();
    withJsonlService(
        [](SolverService& service, BlockingClient& client) {
            const std::string row = "{\"id\":\"old\",\"cache_control\":\"off\",\"formula\":\"" +
                                    jsonEscape(kSatFormula) + "\"}\n";
            std::string reply = roundTrip(client, row);
            std::string verdict;
            ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
            EXPECT_EQ(verdict, "SAT");
            reply = roundTrip(client, row);
            EXPECT_NE(reply.find("\"cached\":true"), std::string::npos) << reply;
            EXPECT_EQ(reply.find("deprecated"), std::string::npos) << reply;

            std::string error;
            BlockingClient http;
            ASSERT_TRUE(http.connect("127.0.0.1", service.httpPort(), &error)) << error;
            const std::string body = kSatFormula;
            ASSERT_TRUE(http.sendAll("POST /solve HTTP/1.1\r\ncache-control: off\r\n"
                                     "Content-Length: " +
                                     std::to_string(body.size()) + "\r\n\r\n" + body));
            HttpResponseMsg rsp;
            ASSERT_TRUE(http.readResponse(rsp));
            EXPECT_EQ(rsp.status, 200);
            EXPECT_NE(rsp.body.find("\"cached\":true"), std::string::npos) << rsp.body;
            EXPECT_EQ(rsp.header("deprecation"), nullptr) << rsp.body;
        },
        opts);
}

TEST(ServiceSession, OpenDeltaSolveCloseRoundTrip)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        const std::string sid = openSession(client, kSatFormula);
        ASSERT_FALSE(sid.empty());

        // Solve the base: SAT.
        SolveRequestOptions solve;
        solve.op = "solve";
        solve.session = sid;
        std::string reply = roundTrip(client, buildJsonlSolveRequest("s-1", "", solve));
        std::string verdict, protocol;
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "SAT");
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v2");

        // Delta: contradictory units on e3 flip the verdict to UNSAT, and
        // the delta row carries the reuse accounting block.
        SolveRequestOptions delta;
        delta.op = "delta";
        delta.session = sid;
        delta.addGroup = "conflict";
        delta.deltaClauses = "3 0 -3 0";
        reply = roundTrip(client, buildJsonlSolveRequest("d-1", "", delta));
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "UNSAT");
        EXPECT_NE(reply.find("\"delta\":{"), std::string::npos) << reply;

        // Retracting the group restores the base verdict, now served from
        // the session's per-component memo.
        SolveRequestOptions retract;
        retract.op = "delta";
        retract.session = sid;
        retract.retractGroup = "conflict";
        reply = roundTrip(client, buildJsonlSolveRequest("d-2", "", retract));
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "SAT");
        double reused = 0;
        ASSERT_TRUE(jsonNumberField(reply, "reused", reused)) << reply;
        EXPECT_GT(reused, 0) << reply;

        // Close answers closed:true once, then the id is gone.
        SolveRequestOptions close;
        close.op = "close";
        close.session = sid;
        reply = roundTrip(client, buildJsonlSolveRequest("c-1", "", close));
        EXPECT_NE(reply.find("\"closed\":true"), std::string::npos) << reply;
        reply = roundTrip(client, buildJsonlSolveRequest("s-2", "", solve));
        std::string kind;
        ASSERT_TRUE(jsonStringField(reply, "error_kind", kind)) << reply;
        EXPECT_EQ(kind, "session-gone");
    });
}

// The fix under test: a delta against an evicted or never-opened session is
// a typed `session-gone` row, not a generic parse error, and the connection
// survives.
TEST(ServiceSession, UnknownSessionIsATypedGoneRow)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        SolveRequestOptions delta;
        delta.op = "delta";
        delta.session = "s-999";
        delta.addGroup = "g";
        delta.deltaClauses = "1 0";
        const std::string reply =
            roundTrip(client, buildJsonlSolveRequest("gone-1", "", delta));
        std::string kind, protocol, sid;
        ASSERT_TRUE(jsonStringField(reply, "error_kind", kind)) << reply;
        EXPECT_EQ(kind, "session-gone");
        ASSERT_TRUE(jsonStringField(reply, "session", sid)) << reply;
        EXPECT_EQ(sid, "s-999");
        ASSERT_TRUE(jsonStringField(reply, "protocol", protocol)) << reply;
        EXPECT_EQ(protocol, "v2");

        // Still serving: a plain v1 solve follows on the same connection.
        SolveRequestOptions ropts;
        const std::string next =
            roundTrip(client, buildJsonlSolveRequest("after", kSatFormula, ropts));
        std::string verdict;
        ASSERT_TRUE(jsonStringField(next, "result", verdict)) << next;
        EXPECT_EQ(verdict, "SAT");
    });
}

TEST(ServiceSession, ClientMistakesAreTypedDeltaInvalidRows)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        const std::string sid = openSession(client, kSatFormula);
        ASSERT_FALSE(sid.empty());

        SolveRequestOptions bad;
        bad.op = "delta";
        bad.session = sid;
        bad.retractGroup = "never-added";
        std::string reply = roundTrip(client, buildJsonlSolveRequest("bad-1", "", bad));
        std::string kind;
        ASSERT_TRUE(jsonStringField(reply, "error_kind", kind)) << reply;
        EXPECT_EQ(kind, "delta-invalid");

        // The failed delta must not have corrupted the session.
        SolveRequestOptions solve;
        solve.op = "solve";
        solve.session = sid;
        reply = roundTrip(client, buildJsonlSolveRequest("s-1", "", solve));
        std::string verdict;
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "SAT");
    });
}

TEST(ServiceSession, OpsOnOneSessionAnswerInSubmissionOrder)
{
    withJsonlService([](SolverService&, BlockingClient& client) {
        const std::string sid = openSession(client, kSatFormula);
        ASSERT_FALSE(sid.empty());

        // Pipeline four ops without reading; the per-session FIFO must
        // answer them strictly in submission order.
        SolveRequestOptions solve;
        solve.op = "solve";
        solve.session = sid;
        std::string burst;
        for (int i = 0; i < 4; ++i)
            burst += buildJsonlSolveRequest("ord-" + std::to_string(i), "", solve);
        ASSERT_TRUE(client.sendAll(burst));
        for (int i = 0; i < 4; ++i) {
            std::string reply;
            ASSERT_TRUE(client.readLine(reply));
            std::string id;
            ASSERT_TRUE(jsonStringField(reply, "id", id)) << reply;
            EXPECT_EQ(id, "ord-" + std::to_string(i));
        }
    });
}

TEST(ServiceSession, DisconnectClosesOwnedSessions)
{
    ServiceOptions opts;
    opts.maxInflight = 4;
    opts.defaultTimeoutSeconds = 30;
    SolverService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    BlockingClient first;
    ASSERT_TRUE(first.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    SolveRequestOptions open;
    open.op = "open";
    std::string reply;
    ASSERT_TRUE(first.sendAll(buildJsonlSolveRequest("open-1", kSatFormula, open)));
    ASSERT_TRUE(first.readLine(reply));
    std::string sid;
    ASSERT_TRUE(jsonStringField(reply, "session", sid)) << reply;
    first.close();

    // The loop closes owned sessions when the connection dies; poll until a
    // second connection observes the id as gone.
    BlockingClient second;
    ASSERT_TRUE(second.connect("127.0.0.1", service.jsonlPort(), &error)) << error;
    SolveRequestOptions solve;
    solve.op = "solve";
    solve.session = sid;
    ASSERT_TRUE(eventually([&] {
        if (!second.sendAll(buildJsonlSolveRequest("probe", "", solve))) return false;
        std::string row;
        if (!second.readLine(row)) return false;
        std::string kind;
        return jsonStringField(row, "error_kind", kind) && kind == "session-gone";
    }));
    service.stop();
}

// --- bench report schema ----------------------------------------------------

// Session solves write the shared result cache under the effective cache
// mode (the strategy's, unless the request overrides it) and never read it.
// A deployment whose "default" strategy turns the cache off gets no session
// verdicts in it.
TEST(ServiceSession, SessionSolvesStoreOnlyWhenTheCacheModeAllows)
{
    // Solve the session's base, then the same formula as a cold solve; its
    // reply lands in @p cold ("" when the session step failed).
    const auto solveBaseThenCold = [](BlockingClient& client, std::string* cold) {
        const std::string sid = openSession(client, kSatFormula);
        ASSERT_FALSE(sid.empty());
        SolveRequestOptions solve;
        solve.op = "solve";
        solve.session = sid;
        std::string reply = roundTrip(client, buildJsonlSolveRequest("s-1", "", solve));
        std::string verdict;
        ASSERT_TRUE(jsonStringField(reply, "result", verdict)) << reply;
        EXPECT_EQ(verdict, "SAT");
        *cold = roundTrip(client, buildJsonlSolveRequest("cold", kSatFormula, {}));
    };

    ServiceOptions on;
    on.resultCache = std::make_shared<cache::ResultCache>();
    withJsonlService(
        [&](SolverService&, BlockingClient& client) {
            std::string cold;
            solveBaseThenCold(client, &cold);
            EXPECT_NE(cold.find("\"cached\":true"), std::string::npos) << cold;
            EXPECT_EQ(on.resultCache->stats().stores, 1u);
        },
        on);

    ServiceOptions off;
    off.resultCache = std::make_shared<cache::ResultCache>();
    strategy::StrategySpec spec = strategy::defaultStrategySpec();
    spec.cache.mode = strategy::CachePolicy::Mode::Off;
    off.strategies["default"] = spec;
    withJsonlService(
        [&](SolverService&, BlockingClient& client) {
            std::string cold;
            solveBaseThenCold(client, &cold);
            EXPECT_EQ(cold.find("\"cached\":true"), std::string::npos) << cold;
            EXPECT_EQ(off.resultCache->stats().stores, 0u);
        },
        off);
}

TEST(ServiceReport, BenchServiceMatchesGoldenSchema)
{
    // v2 is a multi-run report: one "runs" entry per fleet size.  The
    // baseline row (workers=0, in-process service) carries a registry
    // snapshot; fleet rows do not — the solves happen in forked workers.
    obs::BenchServiceReport baseline;
    baseline.connections = 8;
    baseline.requests = 256;
    baseline.maxInflight = 4;
    baseline.maxQueue = 64;
    baseline.jsonlMode = false;
    baseline.workers = 0;
    baseline.ok = 250;
    baseline.rejected = 6;
    baseline.errors = 0;
    baseline.retries = 0;
    baseline.wallMs = 1234.5;
    baseline.throughputRps = 202.5;
    baseline.latency.p50Us = 2048;
    baseline.latency.p90Us = 4096;
    baseline.latency.p99Us = 8192;
    baseline.latency.maxUs = 9000;
    baseline.latency.meanUs = 2500.25;

    obs::MetricValue counter;
    counter.name = "service.requests";
    counter.kind = obs::MetricKind::Counter;
    counter.value = 256;
    baseline.metrics.push_back(counter);
    obs::MetricValue hist;
    hist.name = "service.solve_latency_us";
    hist.kind = obs::MetricKind::Histogram;
    hist.count = 250;
    hist.sum = 625062;
    hist.max = 9000;
    hist.buckets[11] = 200;
    hist.buckets[12] = 40;
    hist.buckets[13] = 10;
    baseline.metrics.push_back(hist);

    obs::BenchServiceReport fleet = baseline;
    fleet.metrics.clear();
    fleet.workers = 2;
    fleet.cacheEnabled = true;
    fleet.cacheHits = 254;
    fleet.ok = 256;
    fleet.rejected = 0;
    fleet.retries = 3;
    fleet.wallMs = 1500.25;
    fleet.throughputRps = 170.6;

    // v4 adds the session matrix: a session-reuse row over a delta family
    // carries the family size in "params" and the reuse accounting
    // ("session_reuses", "cone_nodes_saved") next to the latency block.
    obs::BenchServiceReport session;
    session.connections = 1;
    session.requests = 8;
    session.maxInflight = 1;
    session.maxQueue = 8;
    session.jsonlMode = true;
    session.sessionMode = true;
    session.deltaFamily = 8;
    session.sessionReuses = 20;
    session.coneNodesSaved = 1040;
    session.ok = 8;
    session.wallMs = 4.5;
    session.throughputRps = 1777.7;
    session.latency.p50Us = 480;
    session.latency.p90Us = 900;
    session.latency.p99Us = 1100;
    session.latency.maxUs = 1200;
    session.latency.meanUs = 560.5;

    std::ostringstream os;
    obs::writeBenchServiceJson(os, {baseline, fleet, session});
    expectMatchesGolden(os.str(), "bench_service.json");
}
