// Tests for the guarded execution layer: the fault-injection registry, the
// failure taxonomy, runGuarded (exception conversion + RSS watchdog), the
// degradation ladder, batch checkpoint/resume, and the EnvFault suite that
// the faults/* ctest partition drives through HQS_FAULT.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cancel.hpp"
#include "src/base/fault.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/pec/pec_encoder.hpp"
#include "src/runtime/batch.hpp"
#include "src/runtime/guard.hpp"
#include "src/runtime/portfolio.hpp"
#include "src/runtime/thread_pool.hpp"

using namespace hqs;

namespace {

std::string dataPath(const std::string& name)
{
    return std::string(HQS_TEST_DATA_DIR) + "/" + name;
}

/// A formula preprocessing cannot decide, so solving it reaches the main
/// elimination loop (and therefore the FRAIG sweep under a node budget of
/// 1000, whose nodeLimit/8 its cone passes).
DqbfFormula nontrivialFormula()
{
    return encodePec(makeInstance(Family::Adder, 4, true)).formula;
}

/// Writes @p f to `<tmp>/<dirname>/<filename>` and returns the path.
std::filesystem::path writeFormulaFile(const DqbfFormula& f, const std::string& dirname,
                                       const std::string& filename)
{
    const std::filesystem::path dir = std::filesystem::temp_directory_path() / dirname;
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / filename;
    std::ofstream os(path);
    writeDqdimacs(os, f.toParsed());
    return path;
}

} // namespace

// ------------------------------------------------------------- fault registry

TEST(FaultRegistry, DisarmedCheckpointIsANoop)
{
    fault::disarm();
    EXPECT_NO_THROW(fault::checkpoint("parse"));
    EXPECT_NO_THROW(fault::checkpointAlloc("aig-alloc"));
    EXPECT_EQ(fault::armedSite(), "");
}

TEST(FaultRegistry, ArmedSiteFiresExactlyOnceThenDisarms)
{
    fault::arm("sat");
    EXPECT_EQ(fault::armedSite(), "sat");
    EXPECT_NO_THROW(fault::checkpoint("parse")); // different site: untouched
    EXPECT_THROW(fault::checkpoint("sat"), fault::InjectedFault);
    // One-shot: the registry disarmed itself at the hit.
    EXPECT_EQ(fault::armedSite(), "");
    EXPECT_NO_THROW(fault::checkpoint("sat"));
}

TEST(FaultRegistry, NthHitCountsDynamicHitsOfTheArmedSite)
{
    fault::arm("sat", 3);
    EXPECT_NO_THROW(fault::checkpoint("sat"));
    EXPECT_NO_THROW(fault::checkpoint("parse")); // other sites do not count
    EXPECT_NO_THROW(fault::checkpoint("sat"));
    EXPECT_THROW(fault::checkpoint("sat"), fault::InjectedFault);
    EXPECT_NO_THROW(fault::checkpoint("sat"));
}

TEST(FaultRegistry, InjectedFaultCarriesTheSiteName)
{
    fault::arm("pool-dispatch");
    try {
        fault::checkpoint("pool-dispatch");
        FAIL() << "checkpoint did not throw";
    } catch (const fault::InjectedFault& e) {
        EXPECT_EQ(e.site(), "pool-dispatch");
        EXPECT_NE(std::string(e.what()).find("pool-dispatch"), std::string::npos);
    }
}

TEST(FaultRegistry, CheckpointAllocThrowsBadAlloc)
{
    fault::arm("fraig");
    EXPECT_THROW(fault::checkpointAlloc("fraig"), std::bad_alloc);
    EXPECT_EQ(fault::armedSite(), "");
}

TEST(FaultRegistry, ArmReplacesThePreviousSite)
{
    fault::arm("parse");
    fault::arm("sat");
    EXPECT_EQ(fault::armedSite(), "sat");
    EXPECT_NO_THROW(fault::checkpoint("parse"));
    EXPECT_THROW(fault::checkpoint("sat"), fault::InjectedFault);
}

TEST(FaultRegistry, ScopedFaultDisarmsOnDestruction)
{
    {
        fault::ScopedFault guard("sat");
        EXPECT_EQ(fault::armedSite(), "sat");
    }
    EXPECT_EQ(fault::armedSite(), "");
    EXPECT_NO_THROW(fault::checkpoint("sat"));
}

// ----------------------------------------------------------- HQS_FAULT specs

TEST(FaultSpec, ParsesSiteNthAndKind)
{
    std::string site, error;
    unsigned long nth = 0;
    fault::FaultKind kind = fault::FaultKind::Crash;

    ASSERT_TRUE(fault::detail::parseSpec("sat", &site, &nth, &kind, &error)) << error;
    EXPECT_EQ(site, "sat");
    EXPECT_EQ(nth, 1u);
    EXPECT_EQ(kind, fault::FaultKind::Throw);

    ASSERT_TRUE(fault::detail::parseSpec("aig-alloc:10", &site, &nth, &kind, &error));
    EXPECT_EQ(site, "aig-alloc");
    EXPECT_EQ(nth, 10u);
    EXPECT_EQ(kind, fault::FaultKind::Throw);

    ASSERT_TRUE(fault::detail::parseSpec("sat:3:crash", &site, &nth, &kind, &error));
    EXPECT_EQ(site, "sat");
    EXPECT_EQ(nth, 3u);
    EXPECT_EQ(kind, fault::FaultKind::Crash);

    // `site:crash` is shorthand for `site:1:crash`.
    ASSERT_TRUE(fault::detail::parseSpec("fraig:crash", &site, &nth, &kind, &error));
    EXPECT_EQ(site, "fraig");
    EXPECT_EQ(nth, 1u);
    EXPECT_EQ(kind, fault::FaultKind::Crash);
}

TEST(FaultSpec, RejectsMalformedSpecsWithADiagnostic)
{
    const char* bad[] = {
        "",          // empty site
        ":1",        // empty site with nth
        "sat:0",     // nth is 1-based
        "sat:-1",    // negative
        "sat:two",   // non-numeric nth
        "sat:1:boom",                 // unknown kind token
        "sat:1:crash:extra",          // trailing garbage
        "sat:99999999999999999999",   // out of range
    };
    for (const char* spec : bad) {
        std::string site, error;
        unsigned long nth = 0;
        fault::FaultKind kind = fault::FaultKind::Throw;
        EXPECT_FALSE(fault::detail::parseSpec(spec, &site, &nth, &kind, &error))
            << "accepted: '" << spec << "'";
        EXPECT_FALSE(error.empty()) << "no diagnostic for: '" << spec << "'";
    }
}

TEST(FaultSpec, CrashKindExitsTheProcessWith137)
{
    // The crash kind must not unwind: fork a victim, arm the site, hit the
    // checkpoint, and expect the supervisor-recognizable exit code 137.
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        fault::arm("sat", 1, fault::FaultKind::Crash);
        try {
            fault::checkpoint("sat"); // _exit(137)s; must not throw
        } catch (...) {
            _exit(3); // unwound — wrong
        }
        _exit(4); // returned — wrong
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << status;
    EXPECT_EQ(WEXITSTATUS(status), 137);
}

// --------------------------------------------------------- failure taxonomy

TEST(FailureTaxonomy, ClassifiesTheInterestingExceptionTypes)
{
    auto classify = [](auto&& thrower) {
        try {
            thrower();
        } catch (...) {
            return classifyException(std::current_exception());
        }
        return FailureInfo{};
    };

    const FailureInfo injected =
        classify([] { throw fault::InjectedFault("fraig", 1); });
    EXPECT_EQ(injected.kind, FailureKind::InjectedFault);
    EXPECT_EQ(injected.site, "fraig");

    const FailureInfo parse = classify([] { throw ParseError("bad header"); });
    EXPECT_EQ(parse.kind, FailureKind::ParseError);
    EXPECT_NE(parse.what.find("bad header"), std::string::npos);

    const FailureInfo alloc = classify([] { throw std::bad_alloc(); });
    EXPECT_EQ(alloc.kind, FailureKind::BadAlloc);

    const FailureInfo engine = classify([] { throw std::runtime_error("boom"); });
    EXPECT_EQ(engine.kind, FailureKind::EngineError);
    EXPECT_NE(engine.what.find("boom"), std::string::npos);

    const FailureInfo odd = classify([] { throw 42; });
    EXPECT_EQ(odd.kind, FailureKind::EngineError);
}

TEST(FailureTaxonomy, KindsHaveStableStringForms)
{
    EXPECT_STREQ(toString(FailureKind::None), "none");
    EXPECT_STREQ(toString(FailureKind::ParseError), "parse-error");
    EXPECT_STREQ(toString(FailureKind::BadAlloc), "bad-alloc");
    EXPECT_STREQ(toString(FailureKind::RssLimit), "rss-limit");
    EXPECT_STREQ(toString(FailureKind::InjectedFault), "injected-fault");
    EXPECT_STREQ(toString(FailureKind::EngineError), "engine-error");
    EXPECT_STREQ(toString(FailureKind::Disagreement), "disagreement");
    EXPECT_STREQ(toString(FailureKind::Cancelled), "cancelled");
}

TEST(FailureTaxonomy, CancelReasonSelectsMemoutOverTimeout)
{
    CancelToken user;
    user.requestCancel();
    EXPECT_EQ(user.reason(), CancelReason::User);
    EXPECT_EQ(deadlineExceededResult(Deadline::unlimited().withCancel(user)),
              SolveResult::Timeout);

    CancelToken memout;
    memout.requestCancel(CancelReason::Memout);
    EXPECT_EQ(memout.reason(), CancelReason::Memout);
    EXPECT_EQ(deadlineExceededResult(Deadline::unlimited().withCancel(memout)),
              SolveResult::Memout);

    // First reason sticks: a later cancel cannot rewrite Memout into User.
    memout.requestCancel(CancelReason::User);
    EXPECT_EQ(memout.reason(), CancelReason::Memout);
}

// ----------------------------------------------------------------- runGuarded

TEST(Guard, CleanRunPassesTheResultThrough)
{
    const GuardedOutcome out =
        runGuarded({}, [](const Deadline&) { return SolveResult::Sat; });
    EXPECT_EQ(out.result, SolveResult::Sat);
    EXPECT_FALSE(out.failure);
}

TEST(Guard, BadAllocBecomesMemoutWithStructuredFailure)
{
    const GuardedOutcome out = runGuarded(
        {}, [](const Deadline&) -> SolveResult { throw std::bad_alloc(); });
    EXPECT_EQ(out.result, SolveResult::Memout);
    EXPECT_EQ(out.failure.kind, FailureKind::BadAlloc);
}

TEST(Guard, ParseErrorBecomesUnknownWithStructuredFailure)
{
    const GuardedOutcome out = runGuarded(
        {}, [](const Deadline&) -> SolveResult { throw ParseError("bad file"); });
    EXPECT_EQ(out.result, SolveResult::Unknown);
    EXPECT_EQ(out.failure.kind, FailureKind::ParseError);
    EXPECT_NE(out.failure.what.find("bad file"), std::string::npos);
}

TEST(Guard, InjectedFaultKeepsItsSite)
{
    fault::arm("sat");
    const GuardedOutcome out = runGuarded({}, [](const Deadline&) {
        fault::checkpoint("sat");
        return SolveResult::Sat;
    });
    EXPECT_EQ(out.result, SolveResult::Unknown);
    EXPECT_EQ(out.failure.kind, FailureKind::InjectedFault);
    EXPECT_EQ(out.failure.site, "sat");
}

TEST(Guard, RssWatchdogFiresCooperativeMemout)
{
    GuardOptions opts;
    opts.rssLimitBytes = 1000;
    opts.memoryProbe = [] { return std::size_t{4000}; };
    opts.watchdogPollMilliseconds = 1.0;

    const GuardedOutcome out = runGuarded(opts, [](const Deadline& dl) {
        // A cooperative solver: poll the deadline until the watchdog fires.
        while (!dl.expired()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return deadlineExceededResult(dl);
    });
    EXPECT_EQ(out.result, SolveResult::Memout);
    EXPECT_EQ(out.failure.kind, FailureKind::RssLimit);
    EXPECT_EQ(out.peakRssBytes, 4000u);
}

TEST(Guard, RssWatchdogStaysQuietUnderTheBudget)
{
    GuardOptions opts;
    opts.rssLimitBytes = 1 << 30;
    opts.memoryProbe = [] { return std::size_t{1024}; };
    opts.watchdogPollMilliseconds = 1.0;
    const GuardedOutcome out = runGuarded(opts, [](const Deadline&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return SolveResult::Unsat;
    });
    EXPECT_EQ(out.result, SolveResult::Unsat);
    EXPECT_FALSE(out.failure);
    // 0 only if the watchdog thread never got a poll in before the body
    // returned; it must never exceed the probe reading.
    EXPECT_LE(out.peakRssBytes, 1024u);
}

TEST(Guard, ExternalCancelIsForwardedIntoTheRun)
{
    CancelToken kill;
    GuardOptions opts;
    opts.cancel = kill;
    opts.watchdogPollMilliseconds = 1.0;

    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        kill.requestCancel();
    });
    const GuardedOutcome out = runGuarded(opts, [](const Deadline& dl) {
        while (!dl.expired()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return deadlineExceededResult(dl);
    });
    killer.join();
    EXPECT_EQ(out.result, SolveResult::Timeout);
    EXPECT_EQ(out.failure.kind, FailureKind::Cancelled);
}

TEST(Guard, ReadRssBytesReportsSomethingPlausible)
{
#ifdef __linux__
    const std::size_t rss = readRssBytes();
    EXPECT_GT(rss, 1u << 20); // a gtest binary resides in megabytes
#else
    GTEST_SKIP() << "no cheap RSS probe on this platform";
#endif
}

// ------------------------------------------------------- thread-pool guarding

TEST(ThreadPoolGuard, ThrowingJobIsRecordedNotFatal)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    pool.submit([&] { ran.fetch_add(1); });
    pool.submit([] { throw std::runtime_error("job exploded"); });
    pool.submit([] { throw std::bad_alloc(); });
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();

    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.failedJobs(), 2u);
    const std::vector<FailureInfo> failures = pool.failures();
    ASSERT_EQ(failures.size(), 2u);
    int engineErrors = 0, badAllocs = 0;
    for (const FailureInfo& f : failures) {
        if (f.kind == FailureKind::EngineError) ++engineErrors;
        if (f.kind == FailureKind::BadAlloc) ++badAllocs;
    }
    EXPECT_EQ(engineErrors, 1);
    EXPECT_EQ(badAllocs, 1);
}

TEST(ThreadPoolGuard, PoolDispatchFaultLosesOneJobOnly)
{
    fault::ScopedFault guard("pool-dispatch");
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 5; ++i) pool.submit([&] { ran.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(pool.failedJobs(), 1u);
        ASSERT_EQ(pool.failures().size(), 1u);
        EXPECT_EQ(pool.failures()[0].kind, FailureKind::InjectedFault);
        EXPECT_EQ(pool.failures()[0].site, "pool-dispatch");
    }
    EXPECT_EQ(ran.load(), 4); // the faulted dispatch dropped exactly one job
}

// ------------------------------------------------------ portfolio disagreement

TEST(PortfolioGuard, ContradictoryVerdictsYieldUnknownNotACoinFlip)
{
    PortfolioOptions opts;
    opts.engines = {
        {"says-sat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Sat; }, ""},
        {"says-unsat",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Unsat; }, ""},
    };
    PortfolioSolver solver(opts);
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_sat.dqdimacs")));
    EXPECT_EQ(solver.solve(f), SolveResult::Unknown);
    const PortfolioStats& st = solver.stats();
    EXPECT_TRUE(st.disagreement);
    EXPECT_TRUE(st.winnerName.empty());
    EXPECT_EQ(st.failure.kind, FailureKind::Disagreement);
    EXPECT_NE(st.failure.what.find("says-sat"), std::string::npos);
    EXPECT_NE(st.failure.what.find("says-unsat"), std::string::npos);
    for (const EngineRunStats& es : st.engines) EXPECT_FALSE(es.winner);
}

TEST(PortfolioGuard, ThrowingEngineIsRecordedAndTheRaceStillAnswers)
{
    PortfolioOptions opts;
    opts.engines = {
        {"crasher",
         [](const DqbfFormula&, const Deadline&, std::string*) -> SolveResult {
             throw std::runtime_error("engine bug");
         }, ""},
        {"steady",
         [](const DqbfFormula&, const Deadline&, std::string*) { return SolveResult::Sat; }, ""},
    };
    PortfolioSolver solver(opts);
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_sat.dqdimacs")));
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    const PortfolioStats& st = solver.stats();
    EXPECT_EQ(st.winnerName, "steady");
    EXPECT_FALSE(st.disagreement);
    bool sawFailure = false;
    for (const EngineRunStats& es : st.engines) {
        if (es.name != "crasher") continue;
        sawFailure = true;
        EXPECT_EQ(es.failure.kind, FailureKind::EngineError);
        EXPECT_NE(es.failure.what.find("engine bug"), std::string::npos);
    }
    EXPECT_TRUE(sawFailure);
}

TEST(PortfolioGuard, GuardCancelStopsTheRaceWithinBoundedLatency)
{
    // Racers that only stop when their deadline expires: with a 5 s budget,
    // a return well before it means the guard's token reached them.
    auto spin = [](const DqbfFormula&, const Deadline& dl, std::string*) {
        while (!dl.expired()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return deadlineExceededResult(dl);
    };
    CancelToken kill;
    GuardOptions gopts;
    gopts.deadline = Deadline::in(5.0);
    gopts.cancel = kill;
    gopts.watchdogPollMilliseconds = 1.0;
    const DqbfFormula f =
        DqbfFormula::fromParsed(parseDqdimacsFile(dataPath("example1_sat.dqdimacs")));

    using Clock = std::chrono::steady_clock;
    Clock::time_point cancelledAt;
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancelledAt = Clock::now();
        kill.requestCancel();
    });
    PortfolioStats stats;
    const GuardedOutcome out = runGuarded(gopts, [&](const Deadline& dl) {
        PortfolioOptions opts;
        opts.engines = {{"spin-a", spin, ""}, {"spin-b", spin, ""}};
        opts.deadline = dl;
        PortfolioSolver solver(opts);
        const SolveResult r = solver.solve(f);
        stats = solver.stats();
        return r;
    });
    const Clock::time_point returnedAt = Clock::now();
    killer.join();
    const double latencyMs =
        std::chrono::duration<double, std::milli>(returnedAt - cancelledAt).count();
    EXPECT_EQ(out.result, SolveResult::Timeout);
    EXPECT_EQ(out.failure.kind, FailureKind::Cancelled);
    EXPECT_EQ(stats.failure.kind, FailureKind::Cancelled);
    EXPECT_LT(latencyMs, 1000.0);
    for (const EngineRunStats& es : stats.engines) EXPECT_EQ(es.result, SolveResult::Timeout);
}

// ---------------------------------------------------------- degradation ladder

TEST(Ladder, DefaultLadderShape)
{
    const std::vector<DegradationRung> ladder = defaultDegradationLadder();
    ASSERT_EQ(ladder.size(), 4u);
    EXPECT_EQ(ladder[0].name, "full");
    EXPECT_TRUE(ladder[0].fraig);
    EXPECT_EQ(ladder[1].name, "no-fraig");
    EXPECT_FALSE(ladder[1].fraig);
    EXPECT_EQ(ladder[2].name, "half-nodes");
    EXPECT_DOUBLE_EQ(ladder[2].nodeLimitScale, 0.5);
    EXPECT_EQ(ladder[3].name, "bdd");
    EXPECT_TRUE(ladder[3].bddBackend);
}

TEST(Ladder, InjectedFraigBadAllocDegradesToNoFraigAndStillAnswers)
{
    // The acceptance scenario: bad_alloc in the FRAIG sweep at the full
    // rung; the ladder retries with FRAIG off and the instance concludes.
    const std::filesystem::path file =
        writeFormulaFile(nontrivialFormula(), "hqs_fault_ladder_test", "adder.dqdimacs");

    BatchOptions opts;
    opts.numWorkers = 1;
    opts.nodeLimit = 1000; // the adder cone passes nodeLimit/8: a sweep runs
    BatchScheduler scheduler(opts);
    std::ostringstream jsonl;
    fault::ScopedFault guard("fraig");
    const std::vector<BatchJobResult> results = scheduler.run({file.string()}, &jsonl);

    ASSERT_EQ(results.size(), 1u);
    const BatchJobResult& r = results[0];
    EXPECT_TRUE(isConclusive(r.result)) << toString(r.result);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.rung, "no-fraig");
    EXPECT_FALSE(r.failure); // the final attempt was clean

    const std::vector<RungStats>& stats = scheduler.rungStats();
    ASSERT_EQ(stats.size(), 4u);
    EXPECT_EQ(stats[0].attempts, 1u);
    EXPECT_EQ(stats[0].memouts, 1u); // bad_alloc is normalized to Memout
    EXPECT_EQ(stats[0].failures, 1u);
    EXPECT_EQ(stats[1].attempts, 1u);
    EXPECT_EQ(stats[1].conclusive, 1u);
    EXPECT_EQ(stats[2].attempts, 0u);

    EXPECT_NE(jsonl.str().find("\"rung\":\"no-fraig\""), std::string::npos);
    std::filesystem::remove_all(file.parent_path());
}

TEST(Ladder, SingleRungLadderDisablesRetriesAndKeepsTheFailure)
{
    // The --no-retry edge: with a one-rung ladder an injected crash is
    // reported as the final outcome instead of walking the ladder.
    const std::filesystem::path file = writeFormulaFile(
        nontrivialFormula(), "hqs_fault_single_rung_test", "adder.dqdimacs");

    BatchOptions opts;
    opts.numWorkers = 1;
    opts.ladder.resize(1); // --no-retry
    BatchScheduler scheduler(opts);
    fault::ScopedFault guard("sat");
    const std::vector<BatchJobResult> results = scheduler.run({file.string()});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_FALSE(results[0].degraded);
    EXPECT_EQ(results[0].failure.kind, FailureKind::InjectedFault);
    EXPECT_EQ(results[0].failure.site, "sat");
    EXPECT_FALSE(results[0].error.empty());
    std::filesystem::remove_all(file.parent_path());
}

// ------------------------------------------------------------ corrupt corpus

TEST(CorruptCorpus, BatchRecordsEveryParseErrorAndContinues)
{
    const std::vector<std::string> files =
        BatchScheduler::collectInstances(dataPath("corrupt"));
    ASSERT_GE(files.size(), 13u);

    BatchOptions opts;
    opts.numWorkers = 2;
    BatchScheduler scheduler(opts);
    std::ostringstream jsonl;
    const std::vector<BatchJobResult> results = scheduler.run(files, &jsonl);

    ASSERT_EQ(results.size(), files.size());
    for (const BatchJobResult& r : results) {
        EXPECT_EQ(r.result, SolveResult::Unknown) << r.instance;
        EXPECT_EQ(r.failure.kind, FailureKind::ParseError) << r.instance;
        EXPECT_FALSE(r.failure.what.empty()) << r.instance;
        EXPECT_EQ(r.attempts, 1u) << r.instance; // parse errors never retry
        EXPECT_FALSE(r.error.empty()) << r.instance;
    }

    // The JSONL journal carries the structured failure for every line.
    std::istringstream lines(jsonl.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_NE(line.find("\"failure\":{\"kind\":\"parse-error\""), std::string::npos);
    }
    EXPECT_EQ(n, files.size());
}

// --------------------------------------------------------- journal and resume

TEST(Journal, JsonlRoundTripsTheFailureFields)
{
    BatchJobResult r;
    r.instance = "bench/weird \"name\".dqdimacs";
    r.result = SolveResult::Memout;
    r.wallMilliseconds = 12.5;
    r.engine = "hqs";
    r.attempts = 3;
    r.degraded = true;
    r.rung = "half-nodes";
    r.failure = {FailureKind::BadAlloc, "aig-alloc", "injected\nbad_alloc"};
    r.error = r.failure.what;

    std::ostringstream os;
    writeJsonl(r, os);
    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    line.pop_back(); // strip the newline, as std::getline would

    BatchJobResult back;
    ASSERT_TRUE(readJsonl(line, back));
    EXPECT_EQ(back.instance, r.instance);
    EXPECT_EQ(back.result, SolveResult::Memout);
    EXPECT_EQ(back.engine, "hqs");
    EXPECT_EQ(back.rung, "half-nodes");
    EXPECT_EQ(back.failure.kind, FailureKind::BadAlloc);
    EXPECT_EQ(back.failure.site, "aig-alloc");
    EXPECT_EQ(back.failure.what, "injected\nbad_alloc");
    EXPECT_EQ(back.error, r.error);
}

TEST(Journal, TornAndGarbageLinesAreSkippedAndLastEntryWins)
{
    BatchJobResult a;
    a.instance = "a.dqdimacs";
    a.result = SolveResult::Timeout;
    BatchJobResult a2 = a;
    a2.result = SolveResult::Sat;
    BatchJobResult b;
    b.instance = "b.dqdimacs";
    b.result = SolveResult::Unsat;

    std::ostringstream os;
    writeJsonl(a, os);
    writeJsonl(b, os);
    os << "{\"instance\":\"torn.dqdimacs\",\"result\":\"SA"; // killed mid-write
    os << "\nnot json at all\n";
    writeJsonl(a2, os); // resumed run supersedes a's Timeout

    std::istringstream in(os.str());
    const std::vector<BatchJobResult> journal = readJournal(in);
    ASSERT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal[0].instance, "a.dqdimacs");
    EXPECT_EQ(journal[0].result, SolveResult::Sat); // last entry won
    EXPECT_EQ(journal[1].instance, "b.dqdimacs");

    const std::unordered_set<std::string> done = conclusiveInstances(journal);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_TRUE(done.contains("a.dqdimacs"));
    EXPECT_TRUE(done.contains("b.dqdimacs"));
}

TEST(Journal, KilledBatchResumesToTheSameVerdicts)
{
    // Acceptance scenario: run the batch to completion once, then replay an
    // interrupted journal (one conclusive line + one torn line) and resume.
    // The resumed run must re-solve only the missing instance and the merged
    // journal must match the uninterrupted verdicts.
    const std::vector<std::string> files =
        BatchScheduler::collectInstances(HQS_TEST_DATA_DIR);
    ASSERT_EQ(files.size(), 2u);

    std::ostringstream full;
    BatchOptions opts;
    opts.numWorkers = 2;
    const std::vector<BatchJobResult> uninterrupted =
        BatchScheduler(opts).run(files, &full);
    ASSERT_EQ(uninterrupted.size(), 2u);
    ASSERT_TRUE(isConclusive(uninterrupted[0].result));
    ASSERT_TRUE(isConclusive(uninterrupted[1].result));

    // Interrupted journal: instance 0 committed, instance 1 torn mid-line.
    std::ostringstream interrupted;
    writeJsonl(uninterrupted[0], interrupted);
    {
        std::ostringstream tornLine;
        writeJsonl(uninterrupted[1], tornLine);
        interrupted << tornLine.str().substr(0, tornLine.str().size() / 2);
    }

    std::istringstream in(interrupted.str());
    const std::vector<BatchJobResult> journal = readJournal(in);
    const std::unordered_set<std::string> done = conclusiveInstances(journal);
    EXPECT_EQ(done.size(), 1u);
    EXPECT_TRUE(done.contains(files[0]));

    std::vector<std::string> toRun;
    for (const std::string& f : files)
        if (!done.contains(f)) toRun.push_back(f);
    ASSERT_EQ(toRun.size(), 1u);
    EXPECT_EQ(toRun[0], files[1]);

    // Resume appends to the same journal; last entry wins on re-read.
    std::ostringstream resumed(interrupted.str(), std::ios::app);
    const std::vector<BatchJobResult> fresh =
        BatchScheduler(opts).run(toRun, &resumed);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].result, uninterrupted[1].result);

    std::istringstream mergedIn(resumed.str());
    const std::vector<BatchJobResult> merged = readJournal(mergedIn);
    ASSERT_EQ(merged.size(), 2u);
    for (const BatchJobResult& r : merged) {
        const std::size_t i = (r.instance == files[0]) ? 0 : 1;
        EXPECT_EQ(r.instance, files[i]);
        EXPECT_EQ(r.result, uninterrupted[i].result);
    }
}

// -------------------------------------------------------------------- EnvFault

// Driven by the faults/* ctest partition: the harness sets HQS_FAULT to one
// registered site before launching this binary with --gtest_filter=EnvFault.*.
// Whatever the armed site throws, the batch must survive, report every
// instance, and any conclusive verdict it does produce must be correct.
TEST(EnvFault, BatchSurvivesTheArmedSiteAndVerdictsStayCorrect)
{
    const std::string site = fault::armedSite();
    if (site.empty()) GTEST_SKIP() << "HQS_FAULT not set; run via the faults/* partition";

    std::vector<std::string> files = BatchScheduler::collectInstances(HQS_TEST_DATA_DIR);
    ASSERT_EQ(files.size(), 2u);
    // Preprocessing decides both examples; the adder reaches the solver's
    // later sites, the budget-driven FRAIG sweep among them.
    const std::filesystem::path adder =
        writeFormulaFile(nontrivialFormula(), "hqs_envfault_" + std::to_string(getpid()),
                         "adder.dqdimacs");
    files.push_back(adder.string());

    BatchOptions opts;
    opts.numWorkers = 2;
    opts.nodeLimit = 1000; // the adder cone passes nodeLimit/8: a sweep runs
    BatchScheduler scheduler(opts);
    std::ostringstream jsonl;
    const std::vector<BatchJobResult> results = scheduler.run(files, &jsonl);
    std::filesystem::remove_all(adder.parent_path());

    ASSERT_EQ(results.size(), files.size());
    // files are sorted: example1_sat before example1_unsat; the adder is
    // realizable, so SAT.
    const SolveResult expected[] = {SolveResult::Sat, SolveResult::Unsat, SolveResult::Sat};
    std::size_t conclusive = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BatchJobResult& r = results[i];
        if (isConclusive(r.result)) {
            ++conclusive;
            EXPECT_EQ(r.result, expected[i]) << r.instance << " at site " << site;
        }
    }
    EXPECT_TRUE(fault::armedSite().empty()) << "site " << site << " was never reached";
    // The fault is one-shot, so at most one job can be affected — and with
    // the ladder armed, crash-style faults usually still conclude.  A
    // "pool-dispatch" fault swallows one whole job, hence >= 1, not == 3.
    EXPECT_GE(conclusive, 1u) << "site " << site;
}
