// Solve sessions: the stateful half of the v2 request API.
//
// A Session pins one *base* formula (DQDIMACS text, or a DQCIR circuit
// lowered through the Tseitin front end) and then accepts delta solves:
// appended/retracted named clause groups, replaced DQCIR gates, and
// per-solve assumption literals.  The effective formula of a solve is
//
//   base  +  active clause groups (in add order)  +  assumption units
//
// Incrementality is PQE-style scoping by connected components: the
// effective formula splits into variable-connected components (a clause
// connects the variables it mentions), each component is rendered as a
// self-contained DQBF over a dense local numbering — dependency sets
// restricted to the component's universals, which is sound in both
// directions because a universal that never occurs in a component's matrix
// cannot help or hurt its Skolem functions — and solved independently.  The
// session keeps a per-component result cache keyed by the component's
// cache::canonicalKey, so a delta re-runs elimination only on the cones
// (components) it actually touched; untouched components are answered from
// the cache and their skipped elimination work is accounted in
// session.cone_nodes_saved.
//
// Verdict combination is the DQBF conjunction rule over disjoint variable
// sets: UNSAT if any component is UNSAT, SAT when all are SAT (Skolem
// functions compose independently), the worst inconclusive outcome
// otherwise.  Certificates for delta solves are re-extracted against the
// *effective* formula: per-component Skolem AIGs are imported into one
// manager, their local inputs substituted back to the effective variable
// numbering, and the merged artifact is byte-checkable by dqbf_check
// exactly like a cold solve's.
//
// Sessions run on the HQS engine only (api::SolveRequest::validate()
// rejects anything else): elimination is the engine whose per-component
// work the decomposition actually saves, and the one that records Skolem
// traces for the merged certificates.
//
// Lifecycle: SessionManager owns the id -> Session table with an explicit
// close op, a TTL, and an LRU bound on resident sessions; the service layer
// additionally closes every session its connection owned on disconnect.
// Sessions are reference-counted: an op running against a session keeps it
// alive through its shared_ptr even if the manager evicts it mid-solve.
//
// Thread model: SessionManager is thread-safe; a Session itself is NOT —
// callers must serialize ops per session (the service keeps a per-session
// FIFO op queue on its loop thread; batch --session-group drives each
// family's session from one worker).
//
// Fault checkpoint: `session-delta` fires between delta validation and
// commit (HQS_FAULT=session-delta:1), proving delta application is
// transactional — an injected fault unwinds with the session state intact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/cache/canonical.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/skolem_recorder.hpp"

namespace hqs {

/// Client mistakes against a session (unknown group, malformed clause
/// text, gate replacement on a CNF session, ...).  Front ends map this to a
/// typed error row instead of a guard-layer failure.
class SessionError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One delta against a session's effective formula.  All payloads are
/// text so the JSONL protocol can carry them as ordinary string fields.
struct SessionDelta {
    /// Name of a clause group to append (with @ref addClauses as its
    /// clauses, DIMACS style: "1 -2 0 3 0").  Group names are unique while
    /// active; re-adding a retracted name is fine.
    std::string addGroup;
    std::string addClauses;
    /// Name of an active clause group to retract.
    std::string retractGroup;
    /// DQCIR gate replacement, e.g. "g2 = or(g1, -x2)": the existing
    /// definition of g2 is replaced and the base re-lowered.  DQCIR
    /// sessions only.
    std::string gate;

    bool empty() const
    {
        return addGroup.empty() && addClauses.empty() && retractGroup.empty() &&
               gate.empty();
    }
};

struct SessionSolveOptions {
    Deadline deadline = Deadline::unlimited();
    std::size_t nodeLimit = 0; ///< per-component live-AIG-node budget
    bool certify = false;      ///< extract a merged Skolem certificate on Sat
};

/// Outcome of one session solve, with the incremental accounting the
/// response rows and obs metrics report.
struct SessionSolveOutcome {
    SolveResult result = SolveResult::Unknown;
    /// Serialized certificate of a certify+Sat solve ("" otherwise, or when
    /// a component's Skolem trace was unavailable).
    std::string certificate;
    /// The effective formula this solve decided (assumptions included as
    /// unit clauses).  A cold solve of it must agree with @ref result — the
    /// differential suite's contract.
    ParsedQdimacs effective;
    std::size_t components = 0;        ///< components of the effective formula
    std::size_t reusedComponents = 0;  ///< answered from the component cache
    std::int64_t coneNodesSaved = 0;   ///< peak-AIG-node work skipped via reuse
    /// Solve carried assumption literals: the effective formula is
    /// request-local, so callers skip whole-formula canonicalization and
    /// the shared result cache (counted as cache.bypass.session).
    bool usedAssumptions = false;
};

class Session {
public:
    /// Open a session on @p text.  @p format is "dqdimacs", "dqcir", or ""
    /// (content sniff).  Throws ParseError on malformed input.
    Session(std::string id, const std::string& text, const std::string& format);

    const std::string& id() const { return id_; }
    bool circuitBased() const { return !circuitLines_.empty(); }
    std::size_t baseVars() const { return base_.matrix.numVars(); }
    std::size_t baseClauses() const { return base_.matrix.numClauses(); }
    std::size_t activeGroups() const { return groups_.size(); }
    std::uint64_t deltasApplied() const { return deltasApplied_; }

    /// Apply @p delta transactionally: everything is validated and staged
    /// first, the `session-delta` fault checkpoint fires, then the staged
    /// state is committed — any throw before commit leaves the session
    /// unchanged.  Throws SessionError on client mistakes.
    void applyDelta(const SessionDelta& delta);

    /// Solve the current effective formula under @p assume (DIMACS
    /// literals, whitespace separated, "" = none).  Throws SessionError on
    /// malformed assumption text.
    SessionSolveOutcome solve(const SessionSolveOptions& opts,
                              const std::string& assume = std::string());

private:
    struct Component; // one variable-connected component, dense local form

    /// One solved component, keyed by its canonical hash.
    struct ComponentEntry {
        SolveResult result = SolveResult::Unknown;
        std::int64_t peakNodes = 0; ///< what re-solving it would cost again
        /// Exact local DQDIMACS of the solve that filled this entry; Skolem
        /// reuse requires byte equality (the canonical key identifies the
        /// formula up to renaming, but the stored functions are over one
        /// concrete local numbering).
        std::string localText;
        std::optional<AigSkolemCertificate> skolem; ///< local-numbered functions
    };

    ParsedQdimacs effectiveParsed(const std::vector<Lit>& assumptions) const;
    std::vector<Component> decompose(const ParsedQdimacs& effective) const;
    std::string buildCertificate(const ParsedQdimacs& effective,
                                 const std::vector<Component>& comps,
                                 const std::vector<const ComponentEntry*>& entries) const;

    std::string id_;
    ParsedQdimacs base_;
    /// DQCIR sessions keep the circuit source lines; gate replacement edits
    /// one line and re-lowers into base_.
    std::vector<std::string> circuitLines_;
    std::vector<std::pair<std::string, std::vector<Clause>>> groups_;
    std::unordered_map<cache::CanonicalKey, ComponentEntry> componentCache_;
    std::uint64_t deltasApplied_ = 0;
};

struct SessionManagerOptions {
    /// Resident-session bound; opening past it evicts the least recently
    /// used session (0 = unbounded).
    std::size_t maxSessions = 64;
    /// Idle lifetime in seconds (0 = no expiry), checked lazily on every
    /// open/find.
    double ttlSeconds = 0;
    /// Unix-epoch milliseconds; tests inject a fake clock to age sessions.
    std::function<std::int64_t()> clock;
};

struct SessionManagerStats {
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;  ///< explicit close ops (incl. closeOwned)
    std::uint64_t evicted = 0; ///< TTL + LRU evictions
};

/// Thread-safe id -> Session table with TTL/LRU eviction and per-owner
/// teardown (the service's disconnect-closes-session hook).
class SessionManager {
public:
    explicit SessionManager(SessionManagerOptions opts = {});

    /// Open a session on @p text ("s-1", "s-2", ... ids).  Returns the id,
    /// or "" with @p error filled on a parse failure.
    std::string open(const std::string& text, const std::string& format,
                     std::uint64_t owner, std::string* error);

    /// The session for @p id, touching its LRU/TTL stamp; nullptr when the
    /// id is unknown, expired, or evicted (the typed `session-gone` case).
    std::shared_ptr<Session> find(const std::string& id);

    /// Close @p id; false when it was already gone.
    bool close(const std::string& id);

    /// Close every session opened under @p owner; returns how many.
    std::size_t closeOwned(std::uint64_t owner);

    std::size_t size() const;
    SessionManagerStats stats() const;

private:
    struct Entry {
        std::shared_ptr<Session> session;
        std::uint64_t owner = 0;
        std::int64_t lastUsedMs = 0;
    };

    std::int64_t nowMs() const;
    void expireLocked(std::int64_t now);
    void evictOverBudgetLocked();

    SessionManagerOptions opts_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> sessions_;
    std::uint64_t nextId_ = 1;
    SessionManagerStats stats_;
};

} // namespace hqs
