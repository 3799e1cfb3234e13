#include "src/runtime/session.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/base/fault.hpp"
#include "src/cert/certificate.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

namespace {

/// Parse one full-string integer; SessionError mentioning @p what otherwise.
int parseIntToken(const std::string& tok, const char* what)
{
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || errno != 0 ||
        v > 2'000'000'000L || v < -2'000'000'000L) {
        throw SessionError(std::string("malformed ") + what + " \"" + tok + "\"");
    }
    return static_cast<int>(v);
}

/// DIMACS clause stream "1 -2 0 3 0" -> clauses.  Every clause must be
/// 0-terminated; an explicit "0" alone is the (unsatisfiable) empty clause.
std::vector<Clause> parseDeltaClauses(const std::string& text)
{
    std::vector<Clause> out;
    Clause current;
    bool open = false;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
        const int v = parseIntToken(tok, "clause literal");
        if (v == 0) {
            out.push_back(current);
            current = Clause();
            open = false;
        } else {
            current.push(Lit::fromDimacs(v));
            open = true;
        }
    }
    if (open) throw SessionError("clause group text must terminate every clause with 0");
    return out;
}

std::vector<Lit> parseAssumptions(const std::string& text)
{
    std::vector<Lit> out;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
        const int v = parseIntToken(tok, "assumption literal");
        if (v == 0) throw SessionError("assumption literals must be non-zero");
        out.push_back(Lit::fromDimacs(v));
    }
    return out;
}

/// The gate name of a `name = op(args)` DQCIR line ("" when the line is
/// not a gate definition).
std::string gateNameOf(const std::string& line)
{
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return std::string();
    std::size_t b = 0;
    while (b < eq && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
    std::size_t e = eq;
    while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
    const std::string name = line.substr(b, e - b);
    if (name.empty() || name.find('(') != std::string::npos) return std::string();
    return name;
}

std::vector<std::string> splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else if (c != '\r') {
            cur.push_back(c);
        }
    }
    if (!cur.empty()) lines.push_back(cur);
    return lines;
}

std::string joinLines(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One variable-connected component of the effective formula, rendered as a
/// self-contained DQBF over a dense local numbering.
struct Session::Component {
    std::vector<Var> vars; ///< global vars, sorted ascending (== localToGlobal)
    ParsedQdimacs local;
    std::string text; ///< toDqdimacsString(local): the Skolem-reuse identity
};

Session::Session(std::string id, const std::string& text, const std::string& format)
    : id_(std::move(id))
{
    if (isCircuitInput(format, text)) {
        base_ = lowerDqcir(parseDqcirString(text));
        circuitLines_ = splitLines(text);
    } else {
        base_ = parseDqdimacsString(text);
    }
}

void Session::applyDelta(const SessionDelta& delta)
{
    if (delta.empty()) throw SessionError("empty delta");

    // Stage everything first; nothing below may touch member state until the
    // fault checkpoint has passed, so an injected fault (or a client
    // mistake) unwinds with the session unchanged.
    std::vector<std::string> stagedLines;
    ParsedQdimacs stagedBase;
    bool haveGate = false;
    if (!delta.gate.empty()) {
        if (!circuitBased())
            throw SessionError("gate replacement requires a DQCIR session");
        const std::string name = gateNameOf(delta.gate);
        if (name.empty())
            throw SessionError("gate replacement must look like \"name = op(args)\"");
        stagedLines = circuitLines_;
        bool found = false;
        for (std::string& line : stagedLines) {
            if (gateNameOf(line) == name) {
                line = delta.gate;
                found = true;
                break;
            }
        }
        if (!found) throw SessionError("unknown gate \"" + name + "\"");
        try {
            stagedBase = lowerDqcir(parseDqcirString(joinLines(stagedLines)));
        } catch (const ParseError& e) {
            throw SessionError(std::string("replacement gate does not parse: ") +
                               e.what());
        }
        haveGate = true;
    }

    std::size_t retractIndex = groups_.size();
    if (!delta.retractGroup.empty()) {
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            if (groups_[i].first == delta.retractGroup) {
                retractIndex = i;
                break;
            }
        }
        if (retractIndex == groups_.size())
            throw SessionError("unknown clause group \"" + delta.retractGroup + "\"");
    }

    std::vector<Clause> stagedClauses;
    bool haveGroup = false;
    if (!delta.addGroup.empty() || !delta.addClauses.empty()) {
        if (delta.addGroup.empty())
            throw SessionError("clauses without a clause group name");
        for (const auto& [name, clauses] : groups_) {
            if (name == delta.addGroup && name != delta.retractGroup)
                throw SessionError("clause group \"" + name + "\" already active");
        }
        stagedClauses = parseDeltaClauses(delta.addClauses);
        haveGroup = true;
    }

    fault::checkpoint("session-delta");

    // Commit.  The component cache survives every delta: entries are keyed
    // by canonical component content, which never goes stale.
    if (haveGate) {
        circuitLines_ = std::move(stagedLines);
        base_ = std::move(stagedBase);
    }
    if (retractIndex < groups_.size())
        groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(retractIndex));
    if (haveGroup) groups_.emplace_back(delta.addGroup, std::move(stagedClauses));
    ++deltasApplied_;
    OBS_COUNT("session.delta_solves", 1);
}

ParsedQdimacs Session::effectiveParsed(const std::vector<Lit>& assumptions) const
{
    ParsedQdimacs f = base_;
    for (const auto& [name, clauses] : groups_) {
        (void)name;
        for (const Clause& c : clauses) f.matrix.addClause(c);
    }
    for (const Lit l : assumptions) {
        f.matrix.ensureVars(l.var() + 1);
        f.matrix.addClause(Clause({l}));
    }
    return f;
}

std::vector<Session::Component> Session::decompose(const ParsedQdimacs& effective) const
{
    const Var n = effective.matrix.numVars();
    std::vector<Var> parent(n);
    for (Var v = 0; v < n; ++v) parent[v] = v;
    const auto find = [&parent](Var v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]]; // path halving
            v = parent[v];
        }
        return v;
    };

    std::vector<char> occurs(n, 0);
    for (const Clause& c : effective.matrix) {
        for (const Lit l : c) occurs[l.var()] = 1;
        for (std::size_t i = 1; i < c.size(); ++i) {
            const Var a = find(c[0].var());
            const Var b = find(c[i].var());
            if (a != b) parent[b] = a;
        }
    }

    // Components ordered by their smallest variable — deterministic, so the
    // rendered local texts (and hence Skolem reuse) are stable across solves.
    std::vector<std::size_t> compOf(n, static_cast<std::size_t>(-1));
    std::vector<Component> comps;
    for (Var v = 0; v < n; ++v) {
        if (!occurs[v]) continue;
        const Var root = find(v);
        if (compOf[root] == static_cast<std::size_t>(-1)) {
            compOf[root] = comps.size();
            comps.emplace_back();
        }
        comps[compOf[root]].vars.push_back(v);
    }

    const cert::NormalizedPrefix np = cert::normalizePrefix(effective);
    std::vector<char> isUniversal(n, 0);
    for (const Var u : np.universals)
        if (u < n) isUniversal[u] = 1;
    std::vector<std::size_t> existentialIndex(n, static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < np.existentials.size(); ++i)
        if (np.existentials[i] < n) existentialIndex[np.existentials[i]] = i;

    std::vector<Var> globalToLocal(n, kNoVar);
    for (Component& comp : comps) {
        for (std::size_t i = 0; i < comp.vars.size(); ++i)
            globalToLocal[comp.vars[i]] = static_cast<Var>(i);

        comp.local.matrix.ensureVars(static_cast<Var>(comp.vars.size()));
        PrefixBlockSpec universals{QuantKind::Forall, {}};
        for (const Var v : comp.vars) {
            if (isUniversal[v]) {
                universals.vars.push_back(globalToLocal[v]);
            } else {
                DependencySpec d;
                d.var = globalToLocal[v];
                const std::size_t ei = existentialIndex[v];
                if (ei != static_cast<std::size_t>(-1)) {
                    for (const Var dep : np.deps[ei]) {
                        // Restrict to this component's universals: a
                        // universal absent from the component's matrix can
                        // neither help nor hurt its Skolem functions.
                        if (dep < n && globalToLocal[dep] != kNoVar &&
                            compOf[find(dep)] == compOf[find(v)]) {
                            d.deps.push_back(globalToLocal[dep]);
                        }
                    }
                }
                comp.local.henkin.push_back(std::move(d));
            }
        }
        if (!universals.vars.empty()) comp.local.blocks.push_back(std::move(universals));

        for (const Var v : comp.vars) globalToLocal[v] = kNoVar; // reset scratch
    }

    for (const Clause& c : effective.matrix.clauses()) {
        if (c.empty()) continue; // caller short-circuits on empty clauses
        const std::size_t idx = compOf[find(c[0].var())];
        Component& comp = comps[idx];
        // Rebuild the local view of this component's mapping on demand.
        Clause local;
        for (const Lit l : c) {
            const auto it = std::lower_bound(comp.vars.begin(), comp.vars.end(), l.var());
            local.push(Lit(static_cast<Var>(it - comp.vars.begin()), l.negative()));
        }
        comp.local.matrix.addClause(std::move(local));
    }

    for (Component& comp : comps) comp.text = toDqdimacsString(comp.local);
    return comps;
}

SessionSolveOutcome Session::solve(const SessionSolveOptions& opts,
                                   const std::string& assume)
{
    const std::vector<Lit> assumptions = parseAssumptions(assume);
    SessionSolveOutcome out;
    out.usedAssumptions = !assumptions.empty();
    if (out.usedAssumptions) OBS_COUNT("cache.bypass.session", 1);

    out.effective = effectiveParsed(assumptions);
    const ParsedQdimacs& effective = out.effective;
    if (effective.matrix.hasEmptyClause()) {
        out.result = SolveResult::Unsat;
        return out;
    }

    const std::vector<Component> comps = decompose(effective);
    out.components = comps.size();

    std::vector<const ComponentEntry*> entries;
    std::vector<std::unique_ptr<ComponentEntry>> scratch; // inconclusive, uncached
    bool sawMemout = false, sawTimeout = false, sawUnknown = false, sawUnsat = false;
    for (const Component& comp : comps) {
        const cache::CanonicalKey key = cache::canonicalKey(comp.local);
        const auto it = componentCache_.find(key);
        const bool skolemOk =
            it != componentCache_.end() && it->second.result == SolveResult::Sat &&
            it->second.skolem && it->second.localText == comp.text;
        const bool reusable =
            it != componentCache_.end() && isConclusive(it->second.result) &&
            (!opts.certify || it->second.result == SolveResult::Unsat || skolemOk);

        const ComponentEntry* entry = nullptr;
        if (reusable) {
            ++out.reusedComponents;
            out.coneNodesSaved += it->second.peakNodes;
            entry = &it->second;
        } else {
            HqsOptions hopts;
            hopts.deadline = opts.deadline;
            hopts.nodeLimit = opts.nodeLimit;
            hopts.computeSkolem = opts.certify;
            HqsSolver solver(hopts);
            ComponentEntry fresh;
            fresh.result = solver.solve(DqbfFormula::fromParsed(comp.local));
            fresh.peakNodes = std::max<std::int64_t>(
                static_cast<std::int64_t>(solver.stats().aigKernel.peakLiveNodes),
                static_cast<std::int64_t>(solver.stats().peakConeSize));
            fresh.localText = comp.text;
            if (opts.certify && fresh.result == SolveResult::Sat &&
                solver.skolemCertificate()) {
                fresh.skolem = *solver.skolemCertificate();
            }
            if (isConclusive(fresh.result)) {
                entry = &(componentCache_[key] = std::move(fresh));
            } else {
                scratch.push_back(std::make_unique<ComponentEntry>(std::move(fresh)));
                entry = scratch.back().get();
            }
        }
        entries.push_back(entry);

        switch (entry->result) {
        case SolveResult::Unsat: sawUnsat = true; break;
        case SolveResult::Memout: sawMemout = true; break;
        case SolveResult::Timeout: sawTimeout = true; break;
        case SolveResult::Unknown: sawUnknown = true; break;
        case SolveResult::Sat: break;
        }
        if (sawUnsat) break; // the conjunction is already refuted
    }

    if (sawUnsat) {
        out.result = SolveResult::Unsat;
    } else if (sawMemout) {
        out.result = SolveResult::Memout;
    } else if (sawTimeout) {
        out.result = SolveResult::Timeout;
    } else if (sawUnknown) {
        out.result = SolveResult::Unknown;
    } else {
        out.result = SolveResult::Sat;
        if (opts.certify) out.certificate = buildCertificate(effective, comps, entries);
    }

    if (out.reusedComponents > 0) OBS_COUNT("session.reuse", 1);
    if (out.coneNodesSaved > 0)
        OBS_COUNT("session.cone_nodes_saved",
                  static_cast<std::uint64_t>(out.coneNodesSaved));
    return out;
}

std::string Session::buildCertificate(const ParsedQdimacs& effective,
                                      const std::vector<Component>& comps,
                                      const std::vector<const ComponentEntry*>& entries) const
{
    // Mirror cert::extractCertificate: the certificate binds to the
    // normalized effective formula, one function per existential in
    // declaration order, constFalse for unconstrained ones.
    const DqbfFormula f = DqbfFormula::fromParsed(effective);
    cert::Certificate cert;
    cert.formula = f.toParsed();
    cert.hash = cert::formulaHash(cert.formula);
    cert.aig = std::make_shared<Aig>();

    std::unordered_map<Var, AigEdge> merged;
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (!entries[i]->skolem) return std::string(); // no trace, no artifact
        const AigSkolemCertificate& sk = *entries[i]->skolem;
        const std::vector<Var>& localToGlobal = comps[i].vars;
        Substitution toGlobal;
        for (const auto& [localVar, edge] : sk.functions) {
            if (localVar >= localToGlobal.size()) continue; // solver-internal var
            const AigEdge imported = cert.aig->importCone(*sk.aig, edge);
            toGlobal.clear();
            for (const Var lv : cert.aig->support(imported)) {
                if (lv >= localToGlobal.size()) return std::string();
                toGlobal.set(lv, cert.aig->variable(localToGlobal[lv]));
            }
            merged[localToGlobal[localVar]] =
                toGlobal.empty() ? imported : cert.aig->substitute(imported, toGlobal);
        }
    }

    for (const Var y : f.existentials()) {
        const auto it = merged.find(y);
        cert.functions.push_back(it == merged.end() ? cert.aig->constFalse()
                                                    : it->second);
    }
    return cert::toCertificateString(cert);
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(SessionManagerOptions opts) : opts_(std::move(opts)) {}

std::int64_t SessionManager::nowMs() const
{
    if (opts_.clock) return opts_.clock();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void SessionManager::expireLocked(std::int64_t now)
{
    if (opts_.ttlSeconds <= 0) return;
    const auto ttlMs = static_cast<std::int64_t>(opts_.ttlSeconds * 1e3);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (now - it->second.lastUsedMs > ttlMs) {
            it = sessions_.erase(it);
            ++stats_.evicted;
            OBS_COUNT("session.evicted", 1);
        } else {
            ++it;
        }
    }
}

void SessionManager::evictOverBudgetLocked()
{
    if (opts_.maxSessions == 0) return;
    while (sessions_.size() > opts_.maxSessions) {
        auto oldest = sessions_.begin();
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
            if (it->second.lastUsedMs < oldest->second.lastUsedMs) oldest = it;
        }
        sessions_.erase(oldest);
        ++stats_.evicted;
        OBS_COUNT("session.evicted", 1);
    }
}

std::string SessionManager::open(const std::string& text, const std::string& format,
                                 std::uint64_t owner, std::string* error)
{
    std::shared_ptr<Session> session;
    std::string id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = "s-" + std::to_string(nextId_++);
    }
    try {
        session = std::make_shared<Session>(id, text, format);
    } catch (const std::exception& e) {
        if (error) *error = e.what();
        return std::string();
    }
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = nowMs();
    expireLocked(now);
    sessions_[id] = Entry{std::move(session), owner, now};
    evictOverBudgetLocked();
    ++stats_.opened;
    OBS_COUNT("session.open", 1);
    return id;
}

std::shared_ptr<Session> SessionManager::find(const std::string& id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = nowMs();
    expireLocked(now);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return nullptr;
    it->second.lastUsedMs = now;
    return it->second.session;
}

bool SessionManager::close(const std::string& id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    sessions_.erase(it);
    ++stats_.closed;
    return true;
}

std::size_t SessionManager::closeOwned(std::uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t closed = 0;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second.owner == owner) {
            it = sessions_.erase(it);
            ++closed;
        } else {
            ++it;
        }
    }
    stats_.closed += closed;
    return closed;
}

std::size_t SessionManager::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
}

SessionManagerStats SessionManager::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace hqs
