// session/*: the stateful v2 solve-session layer (src/runtime/session.hpp).
//
// The heart of the file is the differential suite: a session's verdict
// after `open + N deltas` — and the Skolem certificate it merges from
// per-component traces — must be indistinguishable from a cold solve of
// the effective formula the session claims to have decided.  Verdicts are
// compared against a fresh HqsSolver on SessionSolveOutcome::effective;
// certificates must parse, pass the independent checker (the dqbf_check
// path), and hash-bind to the effective formula, not the base.
//
// Alongside: component-reuse accounting, transactional delta application,
// SessionManager TTL/LRU with an injected clock, the `session-delta` fault
// checkpoint (run via the faults/session-delta ctest entry), and
// `dqbf_batch --session-group` equivalence against cold batch rows.
//
// The file also compiles into the tsan/* and asan/* runtime binaries, so
// the session layer's single-owner discipline is sanitizer-checked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/fault.hpp"
#include "src/cert/certificate.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/runtime/batch.hpp"
#include "src/runtime/session.hpp"

using namespace hqs;

namespace {

// Two variable-disjoint, non-isomorphic components (distinct canonical
// keys, so the component memo cannot cross-answer them):
//   A: forall u1 u2, exists e3(u1,u2): e3 <-> (u1 and u2)
//   B: forall u4,    exists e5(u4):    e5 <-> u4          (copycat)
// SAT, and small enough that every delta's cold reference solve is instant.
const char* kTwoComponentBase =
    "p cnf 5 5\n"
    "a 1 2 4 0\n"
    "d 3 1 2 0\n"
    "d 5 4 0\n"
    "-3 1 0\n"
    "-3 2 0\n"
    "3 -1 -2 0\n"
    "4 -5 0\n"
    "-4 5 0\n";

/// Cold reference: solve @p text from scratch with a fresh HqsSolver.
SolveResult coldSolve(const std::string& text)
{
    HqsOptions opts;
    HqsSolver solver(opts);
    return solver.solve(DqbfFormula::fromParsed(parseDqdimacsString(text)));
}

/// Assert the serialized certificate parses, passes the independent
/// checker, and binds to @p effectiveText (the session's claimed effective
/// formula), mirroring what `dqbf_check` would do with the artifact.
void expectCheckableAgainst(const std::string& certificate,
                            const std::string& effectiveText)
{
    ASSERT_FALSE(certificate.empty());
    cert::Certificate parsed;
    std::string detail;
    ASSERT_EQ(cert::parseCertificateString(certificate, parsed, detail),
              cert::CheckStatus::Ok)
        << detail;
    const cert::CheckResult res = cert::checkCertificate(parsed);
    EXPECT_TRUE(res.ok()) << cert::toString(res.status) << ": " << res.detail;
    // Certificates of delta solves bind to the *effective* formula.
    const DqbfFormula effective =
        DqbfFormula::fromParsed(parseDqdimacsString(effectiveText));
    EXPECT_EQ(parsed.hash, cert::formulaHash(effective.toParsed()));
}

/// The service keys a session verdict by the effective formula itself; a
/// later cold request for the same formula arrives as its text.  Both must
/// land on one cache key and one certificate hash.
void expectKeyedLikeItsText(const ParsedQdimacs& effective)
{
    const ParsedQdimacs reparsed = parseDqdimacsString(toDqdimacsString(effective));
    EXPECT_EQ(cache::canonicalKey(effective), cache::canonicalKey(reparsed));
    EXPECT_EQ(cert::formulaHash(effective), cert::formulaHash(reparsed));
}

SessionDelta addGroup(const std::string& name, const std::string& clauses)
{
    SessionDelta d;
    d.addGroup = name;
    d.addClauses = clauses;
    return d;
}

SessionDelta retractGroup(const std::string& name)
{
    SessionDelta d;
    d.retractGroup = name;
    return d;
}

/// RAII scratch directory for the batch --session-group tests.
struct ScratchDir {
    std::filesystem::path path;

    explicit ScratchDir(const std::string& tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("hqs-session-test-" + tag + "-" +
                std::to_string(static_cast<unsigned>(::getpid())));
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string write(const std::string& name, const std::string& text) const
    {
        const std::filesystem::path p = path / name;
        std::ofstream out(p);
        out << text;
        return p.string();
    }
};

} // namespace

// --- differential suite -----------------------------------------------------

TEST(SessionDifferential, DeltaVerdictsMatchColdSolvesOfTheEffectiveFormula)
{
    Session s("s-diff", kTwoComponentBase, "");
    EXPECT_FALSE(s.circuitBased());
    EXPECT_EQ(s.baseVars(), 5u);
    EXPECT_EQ(s.baseClauses(), 5u);

    // Each step mutates the effective formula; after every step the session
    // verdict must equal a cold solve of outcome.effective, and SAT
    // verdicts must come with a checkable certificate.
    const std::vector<SessionDelta> steps = {
        // Unit e3 forces u1/u2 true on every branch: UNSAT, touches A only.
        addGroup("conflict-a", "3 0"),
        retractGroup("conflict-a"),
        // u4 or e5 with e5 forced to u4: UNSAT, touches component B only.
        addGroup("conflict-b", "4 5 0"),
        retractGroup("conflict-b"),
        // A weakening of the implied (not e3 or u1), widened with a B
        // literal: still SAT, but the two components merge into one —
        // decomposition must re-form.
        addGroup("bridge", "-3 1 5 0"),
        retractGroup("bridge"),
    };
    const std::vector<SolveResult> expected = {
        SolveResult::Unsat, SolveResult::Sat, SolveResult::Unsat,
        SolveResult::Sat,   SolveResult::Sat, SolveResult::Sat,
    };

    SessionSolveOptions sopts;
    sopts.certify = true;

    // The base solve first: SAT across two components.
    SessionSolveOutcome out = s.solve(sopts);
    EXPECT_EQ(out.result, SolveResult::Sat);
    EXPECT_EQ(out.components, 2u);
    EXPECT_EQ(out.result, coldSolve(toDqdimacsString(out.effective)));
    expectCheckableAgainst(out.certificate, toDqdimacsString(out.effective));

    for (std::size_t i = 0; i < steps.size(); ++i) {
        s.applyDelta(steps[i]);
        out = s.solve(sopts);
        EXPECT_EQ(out.result, expected[i]) << "step " << i;
        EXPECT_EQ(out.result, coldSolve(toDqdimacsString(out.effective))) << "step " << i;
        expectKeyedLikeItsText(out.effective);
        if (out.result == SolveResult::Sat)
            expectCheckableAgainst(out.certificate, toDqdimacsString(out.effective));
    }
    EXPECT_EQ(s.deltasApplied(), steps.size());
}

TEST(SessionDifferential, AssumptionSolvesMatchColdAndBypassNothingStale)
{
    Session s("s-assume", kTwoComponentBase, "");
    SessionSolveOptions sopts;

    // Assuming e5 true forces u4 true for every branch: UNSAT.  The cold
    // solve of the effective formula agreeing proves the assumption was embedded
    // in the effective formula as a unit clause.
    SessionSolveOutcome out = s.solve(sopts, "5");
    EXPECT_TRUE(out.usedAssumptions);
    EXPECT_EQ(out.result, SolveResult::Unsat);
    EXPECT_EQ(out.result, coldSolve(toDqdimacsString(out.effective)));

    // The assumption was request-local: the next plain solve is SAT again.
    out = s.solve(sopts);
    EXPECT_FALSE(out.usedAssumptions);
    EXPECT_EQ(out.result, SolveResult::Sat);
    EXPECT_EQ(out.result, coldSolve(toDqdimacsString(out.effective)));
}

// --- component reuse --------------------------------------------------------

TEST(SessionReuse, UntouchedComponentsAreAnsweredFromTheMemo)
{
    Session s("s-reuse", kTwoComponentBase, "");
    SessionSolveOptions sopts;

    SessionSolveOutcome out = s.solve(sopts);
    EXPECT_EQ(out.components, 2u);
    EXPECT_EQ(out.reusedComponents, 0u);

    // Touch only component B: component A must come from the memo.
    s.applyDelta(addGroup("b-only", "4 5 0"));
    out = s.solve(sopts);
    EXPECT_EQ(out.result, SolveResult::Unsat);
    EXPECT_EQ(out.components, 2u);
    EXPECT_GE(out.reusedComponents, 1u);

    // Retract: both components are now known, the solve is pure reuse.
    s.applyDelta(retractGroup("b-only"));
    out = s.solve(sopts);
    EXPECT_EQ(out.result, SolveResult::Sat);
    EXPECT_EQ(out.reusedComponents, 2u);
}

TEST(SessionReuse, CertifyRequiresAMatchingSkolemTraceToReuse)
{
    // A memo entry filled without certify carries no Skolem functions; a
    // later certify solve must re-solve instead of reusing it, and still
    // produce a checkable certificate.
    Session s("s-certify", kTwoComponentBase, "");
    SessionSolveOptions plain;
    SessionSolveOutcome out = s.solve(plain);
    EXPECT_EQ(out.result, SolveResult::Sat);

    SessionSolveOptions certify;
    certify.certify = true;
    out = s.solve(certify);
    EXPECT_EQ(out.result, SolveResult::Sat);
    expectCheckableAgainst(out.certificate, toDqdimacsString(out.effective));
}

// --- delta validation -------------------------------------------------------

TEST(SessionDelta, ApplicationIsTransactionalOnClientMistakes)
{
    Session s("s-tx", kTwoComponentBase, "");
    EXPECT_THROW(s.applyDelta(retractGroup("never-added")), SessionError);
    EXPECT_EQ(s.activeGroups(), 0u);
    EXPECT_EQ(s.deltasApplied(), 0u);

    s.applyDelta(addGroup("g", "3 4 0"));
    EXPECT_EQ(s.activeGroups(), 1u);
    // Re-adding an active name is a mistake; the group stays as committed.
    EXPECT_THROW(s.applyDelta(addGroup("g", "1 0")), SessionError);
    EXPECT_EQ(s.activeGroups(), 1u);
    EXPECT_EQ(s.deltasApplied(), 1u);

    // Clauses need a group name; malformed clause text never commits.
    SessionDelta anonymous;
    anonymous.addClauses = "3 0";
    EXPECT_THROW(s.applyDelta(anonymous), SessionError);
    EXPECT_THROW(s.applyDelta(addGroup("h", "3 4")), SessionError); // no 0
    EXPECT_THROW(s.applyDelta(addGroup("h", "3 x 0")), SessionError);
    EXPECT_EQ(s.activeGroups(), 1u);

    // Gate replacement is a DQCIR-session feature.
    SessionDelta gate;
    gate.gate = "g = and(x, y)";
    EXPECT_THROW(s.applyDelta(gate), SessionError);

    // Retract-and-re-add under one name round-trips.
    s.applyDelta(retractGroup("g"));
    s.applyDelta(addGroup("g", "4 5 0"));
    EXPECT_EQ(s.activeGroups(), 1u);
    EXPECT_EQ(s.solve({}).result, SolveResult::Unsat);
}

// --- manager lifecycle ------------------------------------------------------

TEST(SessionManagerLifecycle, LruEvictsTheLeastRecentlyUsedSession)
{
    std::int64_t now = 1'000;
    SessionManagerOptions mopts;
    mopts.maxSessions = 2;
    mopts.clock = [&now] { return now; };
    SessionManager mgr(mopts);

    std::string error;
    const std::string a = mgr.open(kTwoComponentBase, "", 1, &error);
    ASSERT_FALSE(a.empty()) << error;
    now += 10;
    const std::string b = mgr.open(kTwoComponentBase, "", 1, &error);
    ASSERT_FALSE(b.empty()) << error;

    now += 10; // touching a makes b the LRU victim
    EXPECT_NE(mgr.find(a), nullptr);
    now += 10;
    const std::string c = mgr.open(kTwoComponentBase, "", 1, &error);
    ASSERT_FALSE(c.empty()) << error;

    EXPECT_EQ(mgr.size(), 2u);
    EXPECT_EQ(mgr.find(b), nullptr) << "LRU victim must be gone";
    EXPECT_NE(mgr.find(a), nullptr);
    EXPECT_NE(mgr.find(c), nullptr);
    EXPECT_EQ(mgr.stats().evicted, 1u);
}

TEST(SessionManagerLifecycle, TtlExpiresIdleSessionsLazily)
{
    std::int64_t now = 0;
    SessionManagerOptions mopts;
    mopts.ttlSeconds = 10;
    mopts.clock = [&now] { return now; };
    SessionManager mgr(mopts);

    std::string error;
    const std::string id = mgr.open(kTwoComponentBase, "", 1, &error);
    ASSERT_FALSE(id.empty()) << error;

    now += 9'000; // within TTL: find refreshes the stamp
    EXPECT_NE(mgr.find(id), nullptr);
    now += 9'000; // still within TTL of the refreshed stamp
    EXPECT_NE(mgr.find(id), nullptr);
    now += 11'000; // idle past the TTL: gone
    EXPECT_EQ(mgr.find(id), nullptr);
    EXPECT_EQ(mgr.stats().evicted, 1u);
    EXPECT_EQ(mgr.size(), 0u);
}

TEST(SessionManagerLifecycle, CloseAndCloseOwnedTearDownByIdAndOwner)
{
    SessionManager mgr;
    std::string error;
    const std::string a = mgr.open(kTwoComponentBase, "", /*owner=*/7, &error);
    const std::string b = mgr.open(kTwoComponentBase, "", /*owner=*/7, &error);
    const std::string c = mgr.open(kTwoComponentBase, "", /*owner=*/8, &error);
    ASSERT_FALSE(a.empty() || b.empty() || c.empty());
    EXPECT_EQ(mgr.size(), 3u);

    EXPECT_TRUE(mgr.close(a));
    EXPECT_FALSE(mgr.close(a)) << "double close reports already-gone";
    EXPECT_EQ(mgr.closeOwned(7), 1u) << "only b is still owned by 7";
    EXPECT_EQ(mgr.size(), 1u);
    EXPECT_NE(mgr.find(c), nullptr);
    EXPECT_EQ(mgr.stats().closed, 2u) << "a explicitly, b via closeOwned";

    // An op holding the shared_ptr keeps a closed session alive.
    std::shared_ptr<Session> pinned = mgr.find(c);
    EXPECT_TRUE(mgr.close(c));
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(pinned->solve({}).result, SolveResult::Sat);
}

TEST(SessionManagerLifecycle, OpenRejectsGarbageWithAnError)
{
    SessionManager mgr;
    std::string error;
    EXPECT_EQ(mgr.open("p cnf garbage\n", "", 1, &error), "");
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(mgr.size(), 0u);
}

// --- batch --session-group --------------------------------------------------

namespace {

/// Three-member delta family over kTwoComponentBase plus one singleton:
/// fam_1 = base + conflict in A (UNSAT), fam_2 = base + conflict in B
/// (UNSAT), fam_3 = base (SAT).  The singleton keeps the cold path alive in
/// the same run.
std::vector<std::string> writeFamily(const ScratchDir& dir)
{
    const std::string base(kTwoComponentBase);
    auto withExtra = [&](const std::string& clause) {
        std::string text = base;
        text.replace(text.find("p cnf 5 5"), 9, "p cnf 5 6");
        return text + clause + "\n";
    };
    return {
        dir.write("fam_1.dqdimacs", withExtra("3 0")),
        dir.write("fam_2.dqdimacs", withExtra("4 5 0")),
        dir.write("fam_3.dqdimacs", base),
        dir.write("solo.dqdimacs", base),
    };
}

} // namespace

TEST(BatchSessionGroup, FamilyRowsMatchColdBatchVerdictsAndCertify)
{
    const ScratchDir dir("group");
    const std::vector<std::string> files = writeFamily(dir);

    BatchOptions grouped;
    grouped.numWorkers = 1;
    grouped.sessionGroup = true;
    grouped.certify = true;
    std::ostringstream groupedJsonl;
    const std::vector<BatchJobResult> viaSession =
        BatchScheduler(grouped).run(files, &groupedJsonl);

    BatchOptions cold;
    cold.numWorkers = 1;
    cold.certify = true;
    const std::vector<BatchJobResult> viaCold = BatchScheduler(cold).run(files);

    ASSERT_EQ(viaSession.size(), files.size());
    ASSERT_EQ(viaCold.size(), files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(viaSession[i].result, viaCold[i].result) << files[i];
        EXPECT_EQ(viaSession[i].error, "") << files[i];
    }

    // The three fam_* members solved through one session; the singleton
    // stayed cold.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(viaSession[i].sessionGroup, "fam") << files[i];
        EXPECT_EQ(viaSession[i].rung, "session") << files[i];
        EXPECT_EQ(viaSession[i].engine, "hqs") << files[i];
        EXPECT_GE(viaSession[i].sessionComponents, 1u) << files[i];
    }
    EXPECT_EQ(viaSession[3].sessionGroup, "");

    // SAT members carry a checker-validated certificate, same as cold rows.
    EXPECT_EQ(viaSession[2].result, SolveResult::Sat);
    EXPECT_TRUE(viaSession[2].certificate.present);
    EXPECT_TRUE(viaSession[2].certificate.valid)
        << viaSession[2].certificate.status;

    // Later members reuse the base components the earlier ones solved.
    std::size_t reused = 0;
    for (std::size_t i = 0; i < 3; ++i) reused += viaSession[i].sessionReused;
    EXPECT_GE(reused, 1u);

    // The session block survives the JSONL journal round trip.
    std::istringstream in(groupedJsonl.str());
    const std::vector<BatchJobResult> journal = readJournal(in);
    ASSERT_EQ(journal.size(), files.size());
    bool sawSessionBlock = false;
    for (const BatchJobResult& r : journal)
        if (r.sessionGroup == "fam" && r.sessionComponents > 0) sawSessionBlock = true;
    EXPECT_TRUE(sawSessionBlock);
}

TEST(BatchSessionGroup, PrefixMismatchFallsBackToColdRows)
{
    const ScratchDir dir("mismatch");
    // Same stem, different quantifier prefix: must not form a family.
    const std::string other = "p cnf 2 2\n"
                              "a 1 0\n"
                              "d 2 1 0\n"
                              "1 -2 0\n"
                              "-1 2 0\n";
    const std::vector<std::string> files = {
        dir.write("mix_1.dqdimacs", kTwoComponentBase),
        dir.write("mix_2.dqdimacs", other),
    };
    BatchOptions opts;
    opts.numWorkers = 1;
    opts.sessionGroup = true;
    const std::vector<BatchJobResult> rows = BatchScheduler(opts).run(files);
    ASSERT_EQ(rows.size(), 2u);
    for (const BatchJobResult& r : rows) {
        EXPECT_EQ(r.sessionGroup, "") << r.instance;
        EXPECT_EQ(r.result, SolveResult::Sat) << r.instance;
    }
}

// --- the session-delta fault checkpoint -------------------------------------

// Run via the faults/session-delta ctest entry (HQS_FAULT=session-delta:1).
// The checkpoint fires between delta validation and commit: the injected
// fault must unwind with the session state intact, and the spent one-shot
// site must not affect the next delta.
TEST(EnvFaultSession, DeltaFaultUnwindsTransactionally)
{
    const std::string site = fault::armedSite();
    if (site != "session-delta")
        GTEST_SKIP() << "HQS_FAULT=session-delta not set; run via faults/*";

    Session s("s-fault", kTwoComponentBase, "");
    EXPECT_THROW(s.applyDelta(addGroup("g", "3 4 0")), fault::InjectedFault);
    EXPECT_EQ(s.activeGroups(), 0u);
    EXPECT_EQ(s.deltasApplied(), 0u);

    // The session survived intact: the same delta commits now and the
    // verdict reflects it.
    s.applyDelta(addGroup("g", "3 4 0"));
    EXPECT_EQ(s.activeGroups(), 1u);
    EXPECT_EQ(s.solve({}).result, SolveResult::Unsat);

    // The one-shot spent itself above; re-arm so the batch containment
    // test below still sees an armed site when both run in one process
    // (the faults/session-delta ctest entry).
    fault::arm(site);
}

// The same containment through the batch front end: an armed session-delta
// fault lands as a contained failure row — the family keeps its remaining
// members and the run reports every instance.
TEST(EnvFaultSession, BatchSessionGroupContainsTheFaultInOneRow)
{
    const std::string site = fault::armedSite();
    if (site != "session-delta")
        GTEST_SKIP() << "HQS_FAULT=session-delta not set; run via faults/*";

    const ScratchDir dir("fault");
    const std::vector<std::string> files = writeFamily(dir);
    BatchOptions opts;
    opts.numWorkers = 1;
    opts.sessionGroup = true;
    const std::vector<BatchJobResult> rows = BatchScheduler(opts).run(files);

    ASSERT_EQ(rows.size(), files.size());
    std::size_t conclusive = 0, contained = 0;
    for (const BatchJobResult& r : rows) {
        if (isConclusive(r.result)) ++conclusive;
        if (r.failure.kind != FailureKind::None) ++contained;
    }
    // The one-shot fault can swallow at most one member's delta; everyone
    // else concludes normally.
    EXPECT_GE(conclusive, files.size() - 1) << "fault must stay contained";
    EXPECT_LE(contained, 1u);
}
