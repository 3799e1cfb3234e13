// exec/*: every row of data/exec/table.txt (engine x certify x instance)
// runs through api::execute, the BatchScheduler and the in-process service
// over JSONL and HTTP, and each answer must match the row: verdict, engine
// label, failure kind, and certificate presence, every certificate valid
// under cert::checkCertificateText.  exec/cli-table runs it through
// dqbf_solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/certificate.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/runtime/batch.hpp"
#include "src/runtime/execute.hpp"
#include "src/service/client.hpp"
#include "src/service/http.hpp"
#include "src/service/server.hpp"

namespace hqs {
namespace {

using namespace hqs::service;

struct Row {
    std::string engine;
    bool certify = false;
    std::string instance; ///< path under the test data directory
    std::string verdict;  ///< "SAT" | "UNSAT" | "UNKNOWN" | "refused"
    std::vector<std::string> labels;
    std::string failure;
    std::vector<std::string> certificateLabels;
    bool serviceRefuses = false;
};

void PrintTo(const Row& r, std::ostream* os)
{
    *os << r.engine << (r.certify ? " certify " : " ") << r.instance;
}

std::vector<std::string> splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::istringstream in(text == "-" ? "" : text);
    for (std::string item; std::getline(in, item, ',');) out.push_back(item);
    return out;
}

std::vector<Row> loadTable()
{
    std::vector<Row> rows;
    std::ifstream in(std::string(HQS_TEST_DATA_DIR) + "/exec/table.txt");
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream cols(line);
        Row r;
        std::string certify, labels, certificates, service;
        cols >> r.engine >> certify >> r.instance >> r.verdict >> labels >> r.failure >>
            certificates >> service;
        r.certify = certify == "1";
        r.labels = splitList(labels);
        r.certificateLabels = splitList(certificates);
        r.serviceRefuses = service == "refused";
        rows.push_back(std::move(r));
    }
    return rows;
}

std::string rowName(const ::testing::TestParamInfo<Row>& info)
{
    std::string name = info.param.engine + (info.param.certify ? "_certify_" : "_") +
                       std::filesystem::path(info.param.instance).stem().string();
    std::replace_if(name.begin(), name.end(),
                    [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); }, '_');
    return name;
}

std::string readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// One front end's answer to a row.
struct Answer {
    bool refused = false;
    std::string verdict;
    std::string engine;
    std::string failure = "none";
    bool certificate = false;
    bool certificateValid = false;
};

bool contains(const std::vector<std::string>& list, const std::string& item)
{
    return std::find(list.begin(), list.end(), item) != list.end();
}

void expectMatches(const Row& row, bool refusedHere, const Answer& a, const char* frontEnd)
{
    SCOPED_TRACE(frontEnd);
    if (refusedHere) {
        EXPECT_TRUE(a.refused);
        return;
    }
    ASSERT_FALSE(a.refused);
    EXPECT_EQ(a.verdict, row.verdict);
    EXPECT_TRUE(contains(row.labels, a.engine)) << "engine label \"" << a.engine << "\"";
    EXPECT_EQ(a.failure, row.failure);
    EXPECT_EQ(a.certificate, contains(row.certificateLabels, a.engine));
    EXPECT_TRUE(a.certificateValid || !a.certificate);
}

// ----------------------------------------------------------- front ends --

Answer viaExecute(const api::SolveRequest& request, const std::string& path)
{
    const DqbfFormula f = DqbfFormula::fromParsed(parseDqdimacsFile(path));
    api::ExecuteOutcome run;
    GuardOptions gopts;
    gopts.deadline = Deadline::in(60);
    const GuardedOutcome guarded = runGuarded(gopts, [&](const Deadline& dl) {
        run = api::execute(request, f, dl);
        return run.result;
    });
    return {false, toString(guarded.result), run.engine,
            toString((guarded.failure ? guarded.failure : run.failure).kind),
            !run.certificate.empty(), cert::checkCertificateText(run.certificate).ok()};
}

Answer viaBatch(const api::SolveRequest& request, const std::string& path)
{
    BatchOptions opts;
    opts.numWorkers = 1;
    opts.jobTimeoutSeconds = 60;
    opts.engine = *request.parsedEngine();
    opts.certify = request.certify;
    const std::vector<BatchJobResult> results = BatchScheduler(opts).run({path});
    EXPECT_EQ(results.size(), 1u);
    if (results.empty()) return {};
    const BatchJobResult& r = results.front();
    return {false, toString(r.result), r.engine, toString(r.failure.kind),
            r.certificate.present, r.certificate.valid};
}

/// Read a service reply body (JSONL row or HTTP body).
Answer fromReply(const std::string& reply)
{
    Answer a;
    std::string text;
    a.refused = jsonStringField(reply, "error", text);
    if (a.refused) return a;
    jsonStringField(reply, "result", a.verdict);
    jsonStringField(reply, "engine", a.engine);
    if (jsonStringField(reply, "kind", text)) a.failure = text;
    a.certificate = jsonStringField(reply, "bytes", text);
    if (a.certificate) a.certificateValid = cert::checkCertificateText(text).ok();
    return a;
}

class ExecTable : public ::testing::TestWithParam<Row> {
protected:
    static void SetUpTestSuite()
    {
        ServiceOptions opts;
        opts.maxInflight = 2;
        opts.defaultTimeoutSeconds = 60;
        service_ = std::make_unique<SolverService>(opts);
        std::string error;
        ASSERT_TRUE(service_->start(&error)) << error;
    }

    static void TearDownTestSuite() { service_.reset(); }

    /// One request to the in-process service, over HTTP or JSONL.
    static Answer viaService(const Row& row, const std::string& formula, bool http)
    {
        BlockingClient client;
        std::string error, reply;
        EXPECT_TRUE(client.connect("127.0.0.1", http ? service_->httpPort() : service_->jsonlPort(),
                                   &error))
            << error;
        SolveRequestOptions ropts;
        ropts.engine = row.engine;
        ropts.certify = row.certify;
        if (!http) {
            EXPECT_TRUE(client.sendAll(buildJsonlSolveRequest("row", formula, ropts)));
            EXPECT_TRUE(client.readLine(reply));
            return fromReply(reply);
        }
        HttpResponseMsg rsp;
        EXPECT_TRUE(client.sendAll(buildHttpSolveRequest(formula, ropts, false)));
        EXPECT_TRUE(client.readResponse(rsp));
        const Answer a = fromReply(rsp.body);
        EXPECT_EQ(a.refused, rsp.status == 400) << rsp.status << " " << rsp.body;
        return a;
    }

    static std::unique_ptr<SolverService> service_;
};

std::unique_ptr<SolverService> ExecTable::service_;

TEST_P(ExecTable, EveryFrontEndAnswersTheRow)
{
    const Row& row = GetParam();
    const std::string path = std::string(HQS_TEST_DATA_DIR) + "/" + row.instance;
    const std::string formula = readFile(path);
    ASSERT_FALSE(formula.empty()) << path;
    const bool refused = row.verdict == "refused";
    const bool serviceRefused = refused || row.serviceRefuses;

    // validate() is the gate every front end applies (dqbf_batch's included)
    // before the library calls below, which take a validated request.
    api::SolveRequest request;
    request.engine = row.engine;
    request.certify = row.certify;
    ASSERT_EQ(request.validate().empty(), !refused);
    if (!refused) {
        expectMatches(row, false, viaExecute(request, path), "api::execute");
        expectMatches(row, false, viaBatch(request, path), "BatchScheduler");
    }
    expectMatches(row, serviceRefused, viaService(row, formula, false), "service JSONL");
    expectMatches(row, serviceRefused, viaService(row, formula, true), "service HTTP");
}

INSTANTIATE_TEST_SUITE_P(Table, ExecTable, ::testing::ValuesIn(loadTable()), rowName);

TEST(ExecTableFile, CoversEveryEngineCertifyAndInstance)
{
    // 7 engines x certify off/on x 3 instances.
    EXPECT_EQ(loadTable().size(), 42u);
}

} // namespace
} // namespace hqs
