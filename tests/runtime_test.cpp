// Tests for the parallel runtime: CancelToken/Deadline semantics, the
// bounded ThreadPool, portfolio racing, and the batch scheduler.
//
// Cancellation tests assert the contract "a fired token yields Timeout —
// not a wrong answer and not a hang".  Where a test needs a formula that is
// guaranteed not to be decided before the first deadline check, it probes
// the PEC families for an instance the solver cannot finish in 100 ms and
// skips (rather than flakes) if every probe solves instantly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cancel.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/idq/idq_solver.hpp"
#include "src/pec/pec_encoder.hpp"
#include "src/runtime/batch.hpp"
#include "src/runtime/portfolio.hpp"
#include "src/runtime/thread_pool.hpp"

using namespace hqs;

namespace {

std::string dataPath(const std::string& name)
{
    return std::string(HQS_TEST_DATA_DIR) + "/" + name;
}

/// A PEC-family formula HQS cannot decide within 100 ms (cached), or
/// nullopt when the machine solves every probe instantly.
const std::optional<DqbfFormula>& hardFormula()
{
    static const std::optional<DqbfFormula> cached = []() -> std::optional<DqbfFormula> {
        for (Family fam : {Family::C432, Family::Comp, Family::Lookahead}) {
            for (unsigned w : {8u, 10u, 12u, 14u}) {
                DqbfFormula f = encodePec(makeInstance(fam, w, false)).formula;
                HqsOptions opts;
                opts.deadline = Deadline::in(0.1);
                HqsSolver solver(opts);
                if (solver.solve(f) == SolveResult::Timeout) return f;
            }
        }
        return std::nullopt;
    }();
    return cached;
}

/// A small-but-nontrivial formula that preprocessing cannot decide (so a
/// pre-fired token is observed before any verdict).
DqbfFormula nontrivialFormula()
{
    return encodePec(makeInstance(Family::Adder, 4, true)).formula;
}

} // namespace

// ---------------------------------------------------------------- CancelToken

TEST(CancelToken, FiringExpiresAnUnlimitedDeadline)
{
    CancelToken token;
    const Deadline d = Deadline::unlimited().withCancel(token);
    EXPECT_FALSE(d.expired());
    EXPECT_FALSE(d.cancelled());
    EXPECT_FALSE(d.isUnlimited()); // can expire now
    token.requestCancel();
    EXPECT_TRUE(d.expired());
    EXPECT_TRUE(d.cancelled());
}

TEST(CancelToken, CopiesShareTheFlag)
{
    CancelToken token;
    const CancelToken copy = token;
    const Deadline d = Deadline::in(3600).withCancel(token);
    copy.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(d.expired());
    token.reset();
    EXPECT_FALSE(copy.cancelled());
    EXPECT_FALSE(d.expired());
}

TEST(CancelToken, TimeBudgetStillApplies)
{
    CancelToken token;
    const Deadline d = Deadline::in(0.005).withCancel(token);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(d.expired());
    EXPECT_FALSE(d.cancelled());
}

TEST(CancelToken, PlainDeadlineUnaffected)
{
    const Deadline d = Deadline::unlimited();
    EXPECT_TRUE(d.isUnlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_FALSE(d.cancelled());
}

// ----------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryJob)
{
    std::atomic<int> count{0};
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pool.submit([&] { count.fetch_add(1); }));
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitWithNoJobsReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
}

TEST(ThreadPool, BoundedQueueAppliesBackPressure)
{
    // Queue of 2 with slow jobs: submit() must block rather than grow the
    // queue, and every job must still run exactly once.
    std::atomic<int> count{0};
    {
        ThreadPool pool(1, 2);
        for (int i = 0; i < 20; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                count.fetch_add(1);
            });
        }
        pool.wait();
    }
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmitFromManyThreads)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4, 8);
        std::vector<std::thread> producers;
        for (int p = 0; p < 8; ++p) {
            producers.emplace_back([&] {
                for (int i = 0; i < 250; ++i)
                    pool.submit([&] { count.fetch_add(1); });
            });
        }
        for (std::thread& t : producers) t.join();
        pool.wait();
    }
    EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, DestructWhileBusyDrainsAcceptedJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2, 4);
        for (int i = 0; i < 16; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                count.fetch_add(1);
            });
        }
        // No wait(): the destructor must finish all accepted jobs.
    }
    EXPECT_EQ(count.load(), 16);
}

// -------------------------------------------------- solver cancellation

TEST(Cancellation, HqsPreFiredTokenYieldsTimeout)
{
    CancelToken token;
    token.requestCancel();
    HqsOptions opts;
    opts.deadline = Deadline::unlimited().withCancel(token);
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(nontrivialFormula()), SolveResult::Timeout);
}

TEST(Cancellation, IdqPreFiredTokenYieldsTimeout)
{
    CancelToken token;
    token.requestCancel();
    IdqOptions opts;
    opts.deadline = Deadline::unlimited().withCancel(token);
    IdqSolver solver(opts);
    EXPECT_EQ(solver.solve(nontrivialFormula()), SolveResult::Timeout);
}

TEST(Cancellation, HqsCancelMidEliminationYieldsTimeoutPromptly)
{
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    CancelToken token;
    HqsOptions opts;
    opts.deadline = Deadline::unlimited().withCancel(token);
    HqsSolver solver(opts);

    SolveResult result = SolveResult::Unknown;
    Timer t;
    std::thread runner([&] { result = solver.solve(*hardFormula()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.requestCancel();
    runner.join();
    EXPECT_EQ(result, SolveResult::Timeout);
    // Granularity bound: generous for sanitizer builds, but far below the
    // minutes an uncancellable elimination could take.
    EXPECT_LT(t.elapsedSeconds(), 30.0);
}

TEST(Cancellation, IdqCancelMidRunYieldsTimeoutPromptly)
{
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    CancelToken token;
    IdqOptions opts;
    opts.deadline = Deadline::unlimited().withCancel(token);
    IdqSolver solver(opts);

    SolveResult result = SolveResult::Unknown;
    Timer t;
    std::thread runner([&] { result = solver.solve(*hardFormula()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.requestCancel();
    runner.join();
    EXPECT_EQ(result, SolveResult::Timeout);
    EXPECT_LT(t.elapsedSeconds(), 30.0);
}

TEST(Cancellation, DeadlineGranularityOnHugeCones)
{
    // Satellite regression: a 50 ms budget on an instance with huge cones
    // must yield Timeout without overshooting by orders of magnitude.
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    HqsOptions opts;
    opts.deadline = Deadline::in(0.05);
    HqsSolver solver(opts);
    Timer t;
    EXPECT_EQ(solver.solve(*hardFormula()), SolveResult::Timeout);
    EXPECT_LT(t.elapsedSeconds(), 30.0);
}

// ------------------------------------------------------------------ portfolio

TEST(Portfolio, AgreesWithDefaultEngineOnSatExample)
{
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_sat.dqdimacs")));
    PortfolioSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    const PortfolioStats& st = solver.stats();
    EXPECT_FALSE(st.winnerName.empty());
    EXPECT_EQ(st.engines.size(), 6u);
    EXPECT_FALSE(st.disagreement);
    int winners = 0;
    for (const EngineRunStats& es : st.engines) {
        if (es.winner) {
            ++winners;
            EXPECT_EQ(es.name, st.winnerName);
            EXPECT_EQ(es.result, SolveResult::Sat);
        }
    }
    EXPECT_EQ(winners, 1);
}

TEST(Portfolio, AgreesWithDefaultEngineOnUnsatExample)
{
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_unsat.dqdimacs")));
    PortfolioSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    EXPECT_FALSE(solver.stats().winnerName.empty());
}

TEST(Portfolio, MaxEnginesTruncatesTheLineup)
{
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_sat.dqdimacs")));
    PortfolioOptions opts;
    opts.maxEngines = 2;
    PortfolioSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_EQ(solver.stats().engines.size(), 2u);
}

TEST(Portfolio, ExternalKillSwitchCancelsTheRace)
{
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    PortfolioOptions opts;
    opts.cancel = CancelToken();
    PortfolioSolver solver(opts);

    SolveResult result = SolveResult::Unknown;
    Timer t;
    std::thread runner([&] { result = solver.solve(*hardFormula()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    opts.cancel->requestCancel();
    runner.join();
    EXPECT_EQ(result, SolveResult::Timeout);
    EXPECT_TRUE(solver.stats().winnerName.empty());
    EXPECT_LT(t.elapsedSeconds(), 60.0);
}

TEST(Portfolio, SharedTimeBudgetYieldsTimeout)
{
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    PortfolioOptions opts;
    opts.deadline = Deadline::in(0.05);
    opts.maxEngines = 2; // keep the single-core race short
    PortfolioSolver solver(opts);
    Timer t;
    EXPECT_EQ(solver.solve(*hardFormula()), SolveResult::Timeout);
    EXPECT_LT(t.elapsedSeconds(), 60.0);
}

// ---------------------------------------------------------------------- batch

TEST(Batch, CollectInstancesFindsTheExampleFiles)
{
    const std::vector<std::string> files =
        BatchScheduler::collectInstances(HQS_TEST_DATA_DIR);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_NE(files[0].find("example1_sat"), std::string::npos);
    EXPECT_NE(files[1].find("example1_unsat"), std::string::npos);
}

TEST(Batch, SolvesADirectoryAndStreamsJsonl)
{
    BatchOptions opts;
    opts.numWorkers = 2;
    BatchScheduler scheduler(opts);
    std::ostringstream jsonl;
    const std::vector<BatchJobResult> results =
        scheduler.run(BatchScheduler::collectInstances(HQS_TEST_DATA_DIR), &jsonl);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].result, SolveResult::Sat);
    EXPECT_EQ(results[1].result, SolveResult::Unsat);
    for (const BatchJobResult& r : results) {
        EXPECT_EQ(r.engine, "hqs");
        EXPECT_EQ(r.attempts, 1u);
        EXPECT_FALSE(r.degraded);
        EXPECT_TRUE(r.error.empty());
    }

    // Two well-formed lines, one JSON object each.
    std::istringstream lines(jsonl.str());
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"instance\":"), std::string::npos);
        EXPECT_NE(line.find("\"result\":"), std::string::npos);
        EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);
    }
    EXPECT_EQ(n, 2);
}

TEST(Batch, PortfolioModeReportsTheWinner)
{
    BatchOptions opts;
    opts.numWorkers = 1;
    opts.engine = *api::parseEngineSpec("portfolio:2");
    BatchScheduler scheduler(opts);
    const std::vector<BatchJobResult> results =
        scheduler.run(BatchScheduler::collectInstances(HQS_TEST_DATA_DIR));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].result, SolveResult::Sat);
    EXPECT_EQ(results[1].result, SolveResult::Unsat);
    for (const BatchJobResult& r : results) EXPECT_FALSE(r.engine.empty());
}

TEST(Batch, ParseFailureIsReportedNotThrown)
{
    // Per-process name: ctest runs the plain, tsan/ and asan/ copies at once.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("hqs_batch_parse_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::filesystem::path bad = dir / "bad.dqdimacs";
    std::ofstream(bad) << "p cnf not-a-number\n";

    BatchScheduler scheduler;
    const std::vector<BatchJobResult> results = scheduler.run({bad.string()});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].result, SolveResult::Unknown);
    EXPECT_EQ(results[0].failure.kind, FailureKind::ParseError);
    EXPECT_EQ(results[0].attempts, 1u); // parse errors are terminal, no retry
    EXPECT_FALSE(results[0].error.empty());
    std::filesystem::remove_all(dir);
}

TEST(Batch, MemoutWalksTheWholeLadderWithDegradedConfigs)
{
    if (!hardFormula()) GTEST_SKIP() << "no instance slow enough on this machine";
    // Per-process name: ctest runs the plain, tsan/ and asan/ copies at once.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("hqs_batch_memout_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::filesystem::path file = dir / "hard.dqdimacs";
    {
        std::ofstream os(file);
        writeDqdimacs(os, hardFormula()->toParsed());
    }

    BatchOptions opts;
    opts.nodeLimit = 10; // absurdly small: every rung memouts, fast
    BatchScheduler scheduler(opts);
    std::ostringstream jsonl;
    const std::vector<BatchJobResult> results = scheduler.run({file.string()}, &jsonl);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].result, SolveResult::Memout);
    EXPECT_EQ(results[0].attempts, 4u); // full -> no-fraig -> half-nodes -> bdd
    EXPECT_TRUE(results[0].degraded);
    EXPECT_EQ(results[0].rung, "bdd");
    EXPECT_NE(jsonl.str().find("\"degraded\":true"), std::string::npos);
    EXPECT_NE(jsonl.str().find("\"rung\":\"bdd\""), std::string::npos);

    const std::vector<RungStats>& stats = scheduler.rungStats();
    ASSERT_EQ(stats.size(), 4u);
    for (const RungStats& rs : stats) {
        EXPECT_EQ(rs.attempts, 1u) << rs.name;
        EXPECT_EQ(rs.memouts, 1u) << rs.name;
        EXPECT_EQ(rs.conclusive, 0u) << rs.name;
    }
    std::filesystem::remove_all(dir);
}

TEST(Batch, PreFiredCancelSkipsAllJobs)
{
    BatchOptions opts;
    opts.cancel.requestCancel();
    BatchScheduler scheduler(opts);
    const std::vector<BatchJobResult> results =
        scheduler.run(BatchScheduler::collectInstances(HQS_TEST_DATA_DIR));
    ASSERT_EQ(results.size(), 2u);
    for (const BatchJobResult& r : results) {
        EXPECT_EQ(r.result, SolveResult::Timeout);
        EXPECT_EQ(r.failure.kind, FailureKind::Cancelled);
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Batch, JsonlEscapesSpecialCharacters)
{
    BatchJobResult r;
    r.instance = "dir/\"quoted\"\\name\n.dqdimacs";
    r.result = SolveResult::Sat;
    r.engine = "hqs";
    r.attempts = 1;
    std::ostringstream os;
    writeJsonl(r, os);
    const std::string line = os.str();
    EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(line.find("\\\\name"), std::string::npos);
    EXPECT_NE(line.find("\\n"), std::string::npos);
    EXPECT_EQ(line.find('\n'), line.size() - 1); // exactly one real newline
}

TEST(Batch, JsonlRowIsOneAtomicLine)
{
    // toJsonlLine is the single-write row used for torn-row-free journals:
    // it must equal the streamed form byte for byte, carry exactly one real
    // newline (the terminator), and round-trip through readJsonl.
    BatchJobResult r;
    r.instance = "multi\nline\ninstance.dqdimacs";
    r.result = SolveResult::Memout;
    r.wallMilliseconds = 12.5;
    r.engine = "hqs";
    r.attempts = 2;
    r.degraded = true;
    r.rung = "no-fraig";
    r.failure = {FailureKind::ClientGone, "service", "client disconnected"};
    r.error = "client disconnected";

    const std::string row = toJsonlLine(r);
    std::ostringstream os;
    writeJsonl(r, os);
    EXPECT_EQ(row, os.str());
    EXPECT_EQ(row.find('\n'), row.size() - 1);

    BatchJobResult back;
    ASSERT_TRUE(readJsonl(row.substr(0, row.size() - 1), back));
    EXPECT_EQ(back.instance, r.instance);
    EXPECT_EQ(back.result, SolveResult::Memout);
    EXPECT_EQ(back.failure.kind, FailureKind::ClientGone);
    EXPECT_EQ(back.rung, "no-fraig");
}

TEST(Guard, DisconnectedCancelMapsToClientGone)
{
    CancelToken cancel;
    cancel.requestCancel(CancelReason::Disconnected);
    GuardOptions opts;
    opts.cancel = cancel;
    const GuardedOutcome out = runGuarded(opts, [](const Deadline& d) {
        EXPECT_TRUE(d.expired());
        return deadlineExceededResult(d);
    });
    EXPECT_EQ(out.result, SolveResult::Timeout);
    EXPECT_EQ(out.failure.kind, FailureKind::ClientGone);
    EXPECT_EQ(out.failure.site, "service");
    EXPECT_STREQ(toString(out.failure.kind), "client-gone");
}

TEST(Guard, DisconnectedCancelForwardedMidRun)
{
    // The watchdog forwards an external Disconnected cancel into the run
    // with its reason intact, so the solver's deadline reports the right
    // CancelReason and the outcome carries the client-gone failure.
    CancelToken cancel;
    GuardOptions opts;
    opts.cancel = cancel;
    opts.watchdogPollMilliseconds = 1.0;
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancel.requestCancel(CancelReason::Disconnected);
    });
    const GuardedOutcome out = runGuarded(opts, [](const Deadline& d) {
        while (!d.expired()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(d.cancelReason(), CancelReason::Disconnected);
        return deadlineExceededResult(d);
    });
    killer.join();
    EXPECT_EQ(out.failure.kind, FailureKind::ClientGone);
}
