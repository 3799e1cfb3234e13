#include "src/runtime/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/base/timer.hpp"
#include "src/cert/certificate.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/obs/obs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/runtime/cache_plan.hpp"
#include "src/runtime/execute.hpp"
#include "src/runtime/session.hpp"
#include "src/runtime/thread_pool.hpp"

namespace hqs {
namespace {

/// Minimal JSON string escaping (quotes, backslashes, control characters).
void writeJsonString(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    const char* hex = "0123456789abcdef";
                    os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

/// Extract the JSON string value following `"key":` in @p line (as written
/// by writeJsonString).  Returns false when the key is absent or the value
/// is torn (unterminated — a killed writer mid-line).
bool readJsonStringField(const std::string& line, const std::string& key, std::string& out)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t start = line.find(needle);
    if (start == std::string::npos) return false;
    out.clear();
    std::size_t i = start + needle.size();
    while (i < line.size()) {
        const char c = line[i];
        if (c == '"') return true;
        if (c == '\\') {
            if (i + 1 >= line.size()) return false;
            const char esc = line[i + 1];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    // Only \u00XX is ever produced by writeJsonString.
                    if (i + 5 >= line.size()) return false;
                    const std::string hex = line.substr(i + 2, 4);
                    out.push_back(static_cast<char>(std::stoul(hex, nullptr, 16)));
                    i += 4;
                    break;
                }
                default: return false;
            }
            i += 2;
        } else {
            out.push_back(c);
            ++i;
        }
    }
    return false; // ran off the end inside the string: torn line
}

/// Extract the JSON number following `"key":` in @p line.  Returns false
/// when the key is absent or not followed by a number.
bool readJsonNumberField(const std::string& line, const std::string& key, double& out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = line.find(needle);
    if (start == std::string::npos) return false;
    const char* begin = line.c_str() + start + needle.size();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    out = v;
    return true;
}

/// Is @p path a circuit-form (DQCIR) instance?  Decided by extension — the
/// batch collects files by extension, so content sniffing never applies.
bool isDqcirPath(const std::string& path)
{
    return std::filesystem::path(path).extension() == ".dqcir";
}

/// Parse one instance in either input format.  DQCIR lowers through the
/// circuit/Tseitin front end into the same ParsedQdimacs shape.
ParsedQdimacs parseInstanceFile(const std::string& path)
{
    if (isDqcirPath(path)) return lowerDqcir(parseDqcirFile(path));
    return parseDqdimacsFile(path);
}

/// Distill a finished race into the per-family JSONL block: winner family
/// plus each family's most conclusive result.
BatchJobFamilies collectFamilies(const PortfolioStats& stats)
{
    auto rank = [](SolveResult r) {
        switch (r) {
            case SolveResult::Sat:
            case SolveResult::Unsat: return 3;
            case SolveResult::Timeout: return 2;
            case SolveResult::Memout: return 1;
            default: return 0;
        }
    };
    BatchJobFamilies out;
    out.winner = stats.winnerFamily;
    for (const EngineRunStats& es : stats.engines) {
        if (es.family.empty()) continue;
        auto it = std::find_if(out.raced.begin(), out.raced.end(),
                               [&](const auto& p) { return p.first == es.family; });
        if (it == out.raced.end()) {
            out.raced.emplace_back(es.family, toString(es.result));
        } else if (const std::optional<SolveResult> prev =
                       solveResultFromString(it->second);
                   !prev || rank(es.result) > rank(*prev)) {
            it->second = toString(es.result);
        }
    }
    return out;
}

struct SolveOutcome {
    SolveResult result = SolveResult::Unknown;
    std::string engine;
    FailureInfo failure;
    BatchJobMetrics metrics;
    BatchJobCertificate certificate;
    BatchJobFamilies families;
    /// Serialized certificate artifact of the verdict (empty when not
    /// certifying or the winning engine could not certify) — what the
    /// result cache stores alongside the verdict.
    std::string certificateText;
};

/// Judge a serialized certificate through the independent parser/checker
/// and record the outcome — the batch-side self-check before a row claims
/// its SAT verdict is certified.
void checkSerializedCertificate(BatchJobCertificate& c, const std::string& text,
                                const Deadline& deadline)
{
    c.present = true;
    const cert::CheckResult res = cert::checkCertificateText(text, deadline);
    c.valid = res.ok();
    c.status = cert::toString(res.status);
    c.checkMs = res.checkMs;
    c.sizeNodes = static_cast<std::int64_t>(res.sizeNodes);
    if (!c.valid) OBS_COUNT("cert.selfcheck_fail", 1);
}

/// Distill one job's registry scope into the JSONL metric fields.
BatchJobMetrics collectJobMetrics(const obs::MetricScope& scope)
{
    using obs::MetricKind;
    auto counter = [&](const char* name) {
        return scope.value(obs::metric(name, MetricKind::Counter));
    };
    BatchJobMetrics m;
    m.preprocessMs = static_cast<double>(counter("phase.preprocess.us")) / 1000.0;
    m.elimMs = static_cast<double>(counter("phase.elim_exists.us") +
                                   counter("phase.elim_universal.us") +
                                   counter("phase.unit_pure.us")) /
               1000.0;
    m.qbfMs = static_cast<double>(counter("phase.qbf.us")) / 1000.0;
    m.fraigMs = static_cast<double>(counter("phase.fraig.us")) / 1000.0;
    m.peakAigNodes = scope.value(obs::metric("aig.peak_cone", MetricKind::Gauge));
    m.eliminations = counter("hqs.elim.universal") + counter("hqs.elim.existential") +
                     counter("hqs.elim.unit") + counter("hqs.elim.pure") +
                     counter("qbf.elim.universal") + counter("qbf.elim.existential");
    m.copies = counter("hqs.elim.copies");
    return m;
}

/// One guarded attempt at rung @p rung.
SolveOutcome solveAtRung(const std::string& path, const BatchOptions& opts,
                         const DegradationRung& rung)
{
    const auto scaled = static_cast<std::size_t>(
        static_cast<double>(opts.nodeLimit) * rung.nodeLimitScale);
    const std::size_t nodeLimit = opts.nodeLimit == 0 ? 0 : std::max<std::size_t>(1, scaled);

    GuardOptions gopts;
    gopts.deadline = Deadline::in(opts.jobTimeoutSeconds);
    gopts.cancel = opts.cancel;
    gopts.rssLimitBytes = opts.rssLimitBytes;

    api::SolveRequest request;
    request.engine = api::toString(opts.engine);
    request.nodeLimit = nodeLimit;
    request.certify = opts.certify;
    HqsOptions hqsBase;
    hqsBase.fraig = rung.fraig;
    if (rung.bddBackend) hqsBase.backend = HqsOptions::Backend::BddElimination;

    SolveOutcome out;
    // All OBS_* updates of this attempt — including portfolio racer threads,
    // which bind to this scope — accumulate locally, become the job's JSONL
    // metric fields, and then merge into the enclosing registry.
    obs::MetricScope scope;
    const GuardedOutcome guarded = runGuarded(gopts, [&](const Deadline& dl) {
        // Parsing runs inside the guard too: a malformed instance becomes a
        // ParseError failure record, not a dead worker.  Re-parsing per rung
        // costs little against a solve and keeps attempts independent.
        const DqbfFormula formula = DqbfFormula::fromParsed(parseInstanceFile(path));
        const api::ExecuteOutcome run = api::execute(
            request, formula, dl, hqsBase, opts.strategy ? &*opts.strategy : nullptr);
        out.engine = run.engine;
        out.failure = run.failure;
        if (const auto* race = std::get_if<PortfolioStats>(&run.stats))
            out.families = collectFamilies(*race);
        if (!run.certificate.empty()) {
            out.certificateText = run.certificate;
            out.certificate.extractMs = run.extractMilliseconds;
            checkSerializedCertificate(out.certificate, run.certificate, dl);
        }
        return run.result;
    });
    out.result = guarded.result;
    if (guarded.failure) out.failure = guarded.failure;
    out.metrics = collectJobMetrics(scope);
    return out;
}

// ------------------------------------------------- session families --

/// Filename stem up to the last '_' (directory and extension stripped):
/// "bench/ripple_3.dqdimacs" -> "ripple".  "" when the name has no usable
/// '_' — such files never join a session family.
std::string familyStem(const std::string& path)
{
    const std::string name = std::filesystem::path(path).stem().string();
    const std::size_t us = name.rfind('_');
    if (us == std::string::npos || us == 0) return {};
    return name.substr(0, us);
}

/// Identical quantifier structure — the precondition for sharing a session
/// base across a family (the base reuses the first member's prefix).
bool samePrefix(const ParsedQdimacs& a, const ParsedQdimacs& b)
{
    if (a.matrix.numVars() != b.matrix.numVars()) return false;
    if (a.blocks.size() != b.blocks.size() || a.henkin.size() != b.henkin.size())
        return false;
    for (std::size_t i = 0; i < a.blocks.size(); ++i)
        if (a.blocks[i].kind != b.blocks[i].kind || a.blocks[i].vars != b.blocks[i].vars)
            return false;
    for (std::size_t i = 0; i < a.henkin.size(); ++i)
        if (a.henkin[i].var != b.henkin[i].var || a.henkin[i].deps != b.henkin[i].deps)
            return false;
    return true;
}

/// Canonical multiset key of one clause (sorted DIMACS literals).
std::string clauseKey(const Clause& c)
{
    std::vector<int> lits;
    lits.reserve(c.size());
    for (const Lit& l : c) lits.push_back(l.toDimacs());
    std::sort(lits.begin(), lits.end());
    std::string key;
    for (const int v : lits) {
        key += std::to_string(v);
        key += ' ';
    }
    return key;
}

/// One validated session family: the base formula (clause-multiset
/// intersection under the shared prefix) and each member's delta clauses.
struct SessionFamily {
    std::string stem;
    std::vector<std::size_t> members; ///< indices into the input file list
    std::string baseText;             ///< DQDIMACS of the shared base
    std::vector<std::string> deltaClauses; ///< per member, DIMACS "l.. 0" text
};

/// Validate one stem group into a SessionFamily: every member must parse
/// and share the first member's prefix, otherwise the group falls back to
/// cold solves (nullopt).
std::optional<SessionFamily> buildFamily(const std::vector<std::string>& files,
                                         std::string stem,
                                         std::vector<std::size_t> members)
{
    std::vector<ParsedQdimacs> parsed;
    parsed.reserve(members.size());
    for (const std::size_t i : members) {
        try {
            parsed.push_back(parseInstanceFile(files[i]));
        } catch (const std::exception&) {
            return std::nullopt;
        }
        if (parsed.size() > 1 && !samePrefix(parsed.front(), parsed.back()))
            return std::nullopt;
    }
    // Base = per-key minimum occurrence count across all members.
    std::unordered_map<std::string, std::size_t> baseCount;
    for (const Clause& c : parsed.front().matrix.clauses()) ++baseCount[clauseKey(c)];
    for (std::size_t m = 1; m < parsed.size(); ++m) {
        std::unordered_map<std::string, std::size_t> count;
        for (const Clause& c : parsed[m].matrix.clauses()) ++count[clauseKey(c)];
        for (auto& [key, n] : baseCount) {
            const auto it = count.find(key);
            n = std::min(n, it == count.end() ? std::size_t{0} : it->second);
        }
    }
    SessionFamily fam;
    fam.stem = std::move(stem);
    fam.members = std::move(members);
    ParsedQdimacs base;
    base.blocks = parsed.front().blocks;
    base.henkin = parsed.front().henkin;
    base.matrix.ensureVars(parsed.front().matrix.numVars());
    std::unordered_map<std::string, std::size_t> used;
    for (const Clause& c : parsed.front().matrix.clauses()) {
        const std::string key = clauseKey(c);
        if (used[key]++ < baseCount[key]) base.matrix.addClause(c);
    }
    fam.baseText = toDqdimacsString(base);
    // Each member's delta: its clauses beyond the base multiset.
    for (const ParsedQdimacs& p : parsed) {
        std::unordered_map<std::string, std::size_t> seen;
        std::string delta;
        for (const Clause& c : p.matrix.clauses()) {
            if (seen[clauseKey(c)]++ < baseCount[clauseKey(c)]) continue;
            for (const Lit& l : c) {
                delta += std::to_string(l.toDimacs());
                delta += ' ';
            }
            delta += "0 ";
        }
        fam.deltaClauses.push_back(std::move(delta));
    }
    return fam;
}

/// Should the ladder advance past an attempt that ended like @p out?
/// Resource exhaustion and crash-style failures are retryable at a cheaper
/// rung; parse errors and cancellations are terminal.
bool rungRetryable(const SolveOutcome& out)
{
    if (isConclusive(out.result)) return false;
    if (out.result == SolveResult::Memout) return true;
    switch (out.failure.kind) {
        case FailureKind::BadAlloc:
        case FailureKind::InjectedFault:
        case FailureKind::EngineError: return true;
        default: return false;
    }
}

} // namespace

std::string toJsonlLine(const BatchJobResult& r)
{
    std::ostringstream os;
    os << "{\"instance\":";
    writeJsonString(os, r.instance);
    os << ",\"result\":";
    writeJsonString(os, toString(r.result));
    os << ",\"wall_ms\":" << r.wallMilliseconds;
    os << ",\"engine\":";
    writeJsonString(os, r.engine);
    os << ",\"attempts\":" << r.attempts;
    os << ",\"degraded\":" << (r.degraded ? "true" : "false");
    if (!r.rung.empty()) {
        os << ",\"rung\":";
        writeJsonString(os, r.rung);
    }
    if (!r.dedupOf.empty()) {
        os << ",\"dedup_of\":";
        writeJsonString(os, r.dedupOf);
    }
    if (r.cached) os << ",\"cached\":true";
    if (!r.sessionGroup.empty()) {
        os << ",\"session\":{\"group\":";
        writeJsonString(os, r.sessionGroup);
        os << ",\"components\":" << r.sessionComponents
           << ",\"reused\":" << r.sessionReused
           << ",\"cone_nodes_saved\":" << r.sessionConeNodesSaved << '}';
    }
    if (r.failure) {
        os << ",\"failure\":{\"kind\":";
        writeJsonString(os, toString(r.failure.kind));
        os << ",\"site\":";
        writeJsonString(os, r.failure.site);
        os << ",\"what\":";
        writeJsonString(os, r.failure.what);
        os << '}';
    }
    if (!r.error.empty()) {
        os << ",\"error\":";
        writeJsonString(os, r.error);
    }
    if (r.metrics.any()) {
        const BatchJobMetrics& m = r.metrics;
        os << ",\"metrics\":{\"preprocess_ms\":" << m.preprocessMs
           << ",\"elim_ms\":" << m.elimMs << ",\"qbf_ms\":" << m.qbfMs
           << ",\"fraig_ms\":" << m.fraigMs << ",\"peak_aig_nodes\":" << m.peakAigNodes
           << ",\"eliminations\":" << m.eliminations << ",\"copies\":" << m.copies
           << '}';
    }
    if (r.certificate.present) {
        const BatchJobCertificate& c = r.certificate;
        os << ",\"certificate\":{\"valid\":" << (c.valid ? "true" : "false")
           << ",\"status\":";
        writeJsonString(os, c.status);
        os << ",\"extract_ms\":" << c.extractMs << ",\"check_ms\":" << c.checkMs
           << ",\"size_nodes\":" << c.sizeNodes << '}';
    }
    if (r.families.any()) {
        os << ",\"families\":{\"winner\":";
        writeJsonString(os, r.families.winner);
        os << ",\"raced\":{";
        bool first = true;
        for (const auto& [family, result] : r.families.raced) {
            if (!first) os << ',';
            first = false;
            writeJsonString(os, family);
            os << ':';
            writeJsonString(os, result);
        }
        os << "}}";
    }
    os << "}\n";
    return std::move(os).str();
}

void writeJsonl(const BatchJobResult& r, std::ostream& os)
{
    // One formatted row, one write call: a row can be truncated by a kill
    // but never interleaved with a concurrent writer's row.
    const std::string row = toJsonlLine(r);
    os.write(row.data(), static_cast<std::streamsize>(row.size()));
}

bool readJsonl(const std::string& line, BatchJobResult& out)
{
    if (line.empty() || line.front() != '{' || line.back() != '}') return false;
    BatchJobResult r;
    if (!readJsonStringField(line, "instance", r.instance)) return false;
    std::string resultText;
    if (!readJsonStringField(line, "result", resultText)) return false;
    const std::optional<SolveResult> parsed = solveResultFromString(resultText);
    if (!parsed) return false;
    r.result = *parsed;
    readJsonStringField(line, "engine", r.engine);      // optional for resume
    readJsonStringField(line, "rung", r.rung);          // optional
    readJsonStringField(line, "dedup_of", r.dedupOf);   // optional
    r.cached = line.find("\"cached\":true") != std::string::npos;
    std::string kindText;
    if (readJsonStringField(line, "kind", kindText)) {
        for (FailureKind k : {FailureKind::ParseError, FailureKind::BadAlloc,
                              FailureKind::RssLimit, FailureKind::InjectedFault,
                              FailureKind::EngineError, FailureKind::Disagreement,
                              FailureKind::Cancelled, FailureKind::ClientGone}) {
            if (kindText == toString(k)) r.failure.kind = k;
        }
        readJsonStringField(line, "site", r.failure.site);
        readJsonStringField(line, "what", r.failure.what);
    }
    readJsonStringField(line, "error", r.error);
    double num = 0;
    if (readJsonNumberField(line, "wall_ms", num)) r.wallMilliseconds = num;
    if (readJsonNumberField(line, "preprocess_ms", num)) r.metrics.preprocessMs = num;
    if (readJsonNumberField(line, "elim_ms", num)) r.metrics.elimMs = num;
    if (readJsonNumberField(line, "qbf_ms", num)) r.metrics.qbfMs = num;
    if (readJsonNumberField(line, "fraig_ms", num)) r.metrics.fraigMs = num;
    if (readJsonNumberField(line, "peak_aig_nodes", num))
        r.metrics.peakAigNodes = static_cast<std::int64_t>(num);
    if (readJsonNumberField(line, "eliminations", num))
        r.metrics.eliminations = static_cast<std::int64_t>(num);
    if (readJsonNumberField(line, "copies", num))
        r.metrics.copies = static_cast<std::int64_t>(num);
    if (line.find("\"session\":{") != std::string::npos) {
        readJsonStringField(line, "group", r.sessionGroup);
        if (readJsonNumberField(line, "components", num))
            r.sessionComponents = static_cast<std::size_t>(num);
        if (readJsonNumberField(line, "reused", num))
            r.sessionReused = static_cast<std::size_t>(num);
        if (readJsonNumberField(line, "cone_nodes_saved", num))
            r.sessionConeNodesSaved = static_cast<std::int64_t>(num);
    }
    if (line.find("\"families\":{") != std::string::npos) {
        // Only the winner survives the round trip; `raced` is reporting
        // detail a resumed run does not need.
        readJsonStringField(line, "winner", r.families.winner);
    }
    if (line.find("\"certificate\":{") != std::string::npos) {
        r.certificate.present = true;
        r.certificate.valid = line.find("\"valid\":true") != std::string::npos;
        readJsonStringField(line, "status", r.certificate.status);
        if (readJsonNumberField(line, "extract_ms", num)) r.certificate.extractMs = num;
        if (readJsonNumberField(line, "check_ms", num)) r.certificate.checkMs = num;
        if (readJsonNumberField(line, "size_nodes", num))
            r.certificate.sizeNodes = static_cast<std::int64_t>(num);
    }
    out = std::move(r);
    return true;
}

std::vector<BatchJobResult> readJournal(std::istream& in)
{
    std::vector<BatchJobResult> entries;
    std::unordered_map<std::string, std::size_t> indexOf;
    std::string line;
    while (std::getline(in, line)) {
        BatchJobResult r;
        if (!readJsonl(line, r)) continue; // torn/garbage line: skip
        const auto [it, inserted] = indexOf.emplace(r.instance, entries.size());
        if (inserted) {
            entries.push_back(std::move(r));
        } else {
            entries[it->second] = std::move(r); // later run of the same instance wins
        }
    }
    return entries;
}

std::unordered_set<std::string> conclusiveInstances(const std::vector<BatchJobResult>& journal)
{
    std::unordered_set<std::string> done;
    for (const BatchJobResult& r : journal)
        if (isConclusive(r.result)) done.insert(r.instance);
    return done;
}

std::vector<std::string> BatchScheduler::collectInstances(const std::string& dir)
{
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        const auto ext = entry.path().extension();
        if (ext == ".dqdimacs" || ext == ".dqcir")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::vector<BatchJobResult> BatchScheduler::run(const std::vector<std::string>& files,
                                                std::ostream* jsonl)
{
    std::vector<BatchJobResult> results(files.size());
    std::size_t workers = opts_.numWorkers;
    if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
    // A portfolio job spawns its own racer threads; sharding the batch wide
    // AND racing wide oversubscribes, but that is the caller's knob to turn.

    const std::vector<DegradationRung> ladder =
        opts_.strategy ? opts_.strategy->ladder
        : opts_.ladder.empty() ? defaultDegradationLadder()
                               : opts_.ladder;

    // Canonical pre-scan, feeding both dedup (identical instances solve
    // once) and the result cache (each job's plan is keyed by the scanned
    // key and certificate formula hash).  A file that fails to parse here
    // gets no key and runs as its own job — the solve path will report the
    // ParseError with full context.
    struct ScanInfo {
        bool parsed = false;
        cache::CanonicalKey key;
        std::uint64_t certHash = 0;
    };
    // The run-wide cache policy; each job re-plans for its own input format.
    const strategy::StrategySpec* strat = opts_.strategy ? &*opts_.strategy : nullptr;
    const bool cacheLive =
        api::planCache(opts_.resultCache.get(), strat, {}, /*circuit=*/false).active();
    const bool needScan = (opts_.dedup && files.size() > 1) || cacheLive;
    std::vector<ScanInfo> scan(files.size());
    // repOf[i] == i: solve normally.  repOf[i] == j < i: copy row j.
    std::vector<std::size_t> repOf(files.size());
    std::vector<std::vector<std::size_t>> dupsOf(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) repOf[i] = i;

    // Session-group pre-pass: validate each filename-stem group into a
    // shared-base family.  Members solve through one Session below and skip
    // dedup, the cache, and the ladder; invalid groups fall back to cold.
    std::vector<char> viaSession(files.size(), 0);
    std::vector<SessionFamily> sessionFamilies;
    if (opts_.sessionGroup) {
        std::unordered_map<std::string, std::vector<std::size_t>> byStem;
        std::vector<std::string> stemOrder;
        for (std::size_t i = 0; i < files.size(); ++i) {
            if (isDqcirPath(files[i])) continue;
            const std::string stem = familyStem(files[i]);
            if (stem.empty()) continue;
            auto [it, inserted] = byStem.try_emplace(stem);
            if (inserted) stemOrder.push_back(stem);
            it->second.push_back(i);
        }
        for (const std::string& stem : stemOrder) {
            std::vector<std::size_t>& members = byStem[stem];
            if (members.size() < 2) continue;
            if (std::optional<SessionFamily> fam =
                    buildFamily(files, stem, std::move(members))) {
                for (const std::size_t i : fam->members) viaSession[i] = 1;
                sessionFamilies.push_back(std::move(*fam));
            }
        }
    }

    if (needScan) {
        std::unordered_map<cache::CanonicalKey, std::size_t> firstWithKey;
        for (std::size_t i = 0; i < files.size(); ++i) {
            if (viaSession[i]) continue;
            try {
                const ParsedQdimacs parsed = parseInstanceFile(files[i]);
                const cert::NormalizedPrefix prefix = cert::normalizePrefix(parsed);
                scan[i].key = cache::canonicalKey(parsed, prefix);
                scan[i].certHash = cert::formulaHash(parsed, prefix);
                scan[i].parsed = true;
            } catch (const std::exception&) {
                continue;
            }
            if (opts_.dedup) {
                const auto [it, inserted] =
                    firstWithKey.emplace(scan[i].key, i);
                if (!inserted) {
                    repOf[i] = it->second;
                    dupsOf[it->second].push_back(i);
                }
            }
        }
    }
    rungStats_.assign(ladder.size(), RungStats{});
    for (std::size_t i = 0; i < ladder.size(); ++i) rungStats_[i].name = ladder[i].name;

    // Session families solve sequentially, one Session per family: open on
    // the shared base, then add-group/solve/retract per member so untouched
    // connected components reuse their cached verdicts (and Skolem
    // functions) across the whole delta family.
    for (const SessionFamily& fam : sessionFamilies) {
        std::unique_ptr<Session> session;
        std::string openError;
        try {
            session = std::make_unique<Session>(fam.stem, fam.baseText, "dqdimacs");
        } catch (const std::exception& e) {
            openError = e.what();
        }
        for (std::size_t m = 0; m < fam.members.size(); ++m) {
            const std::size_t i = fam.members[m];
            BatchJobResult& r = results[i];
            r.instance = files[i];
            r.sessionGroup = fam.stem;
            r.engine = "hqs";
            r.rung = "session";
            r.attempts = 1;
            Timer t;
            if (!openError.empty()) {
                r.failure = {FailureKind::EngineError, "session", openError};
            } else if (opts_.cancel.cancelled()) {
                r.result = SolveResult::Timeout;
                r.failure = {FailureKind::Cancelled, "batch", "cancelled before start"};
            } else {
                GuardOptions gopts;
                gopts.deadline = Deadline::in(opts_.jobTimeoutSeconds);
                gopts.cancel = opts_.cancel;
                gopts.rssLimitBytes = opts_.rssLimitBytes;
                SessionSolveOutcome outcome;
                const GuardedOutcome guarded = runGuarded(gopts, [&](const Deadline& dl) {
                    if (!fam.deltaClauses[m].empty()) {
                        SessionDelta delta;
                        delta.addGroup = "inst";
                        delta.addClauses = fam.deltaClauses[m];
                        session->applyDelta(delta);
                    }
                    SessionSolveOptions sopts;
                    sopts.deadline = dl;
                    sopts.nodeLimit = opts_.nodeLimit;
                    sopts.certify = opts_.certify;
                    outcome = session->solve(sopts);
                    return outcome.result;
                });
                if (!fam.deltaClauses[m].empty() && session) {
                    // Retract even when the solve failed; the next member
                    // must start from the clean base.  A delta that never
                    // committed (fault before the checkpoint) has no group.
                    try {
                        SessionDelta retract;
                        retract.retractGroup = "inst";
                        session->applyDelta(retract);
                    } catch (const std::exception&) {
                    }
                }
                r.result = guarded.result;
                r.failure = guarded.failure;
                r.sessionComponents = outcome.components;
                r.sessionReused = outcome.reusedComponents;
                r.sessionConeNodesSaved = outcome.coneNodesSaved;
                if (opts_.certify && guarded.result == SolveResult::Sat &&
                    !outcome.certificate.empty())
                    checkSerializedCertificate(r.certificate, outcome.certificate,
                                               gopts.deadline);
            }
            if (r.failure && r.error.empty()) r.error = r.failure.what;
            r.wallMilliseconds = t.elapsedMilliseconds();
            if (jsonl) {
                writeJsonl(r, *jsonl);
                jsonl->flush();
            }
        }
    }

    std::mutex outMu; // serializes the JSONL stream and the rung counters
    {
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < files.size(); ++i) {
            if (viaSession[i]) continue; // solved through its session family
            if (repOf[i] != i) continue; // row is filled by its representative
            pool.submit([&, i] {
                BatchJobResult& r = results[i];
                r.instance = files[i];
                Timer t;
                api::CachePlan plan = api::planCache(opts_.resultCache.get(), strat, {},
                                                     isDqcirPath(files[i]));
                if (scan[i].parsed) plan.keyBy(scan[i].key, scan[i].certHash);
                if (const std::optional<api::CacheHit> hit =
                        opts_.cancel.cancelled() ? std::nullopt
                                                 : api::lookupCache(plan, opts_.certify)) {
                    const cache::CacheEntry& entry = hit->entry;
                    r.result = entry.result;
                    r.engine = entry.engine;
                    r.rung = "cache";
                    r.cached = true;
                    r.attempts = 0;
                    // A cached certificate that cannot be re-served is
                    // withheld while the verdict still serves.
                    if (hit->cert == cache::CertReuse::Served)
                        checkSerializedCertificate(r.certificate, entry.certificate,
                                                   Deadline::in(opts_.jobTimeoutSeconds));
                } else if (opts_.cancel.cancelled()) {
                    r.result = SolveResult::Timeout;
                    r.failure = {FailureKind::Cancelled, "batch", "cancelled before start"};
                } else {
                    SolveOutcome out;
                    std::size_t rungIdx = 0;
                    for (;; ++rungIdx) {
                        const DegradationRung& rung = ladder[rungIdx];
                        if (rung.backoffSeconds > 0 && rungIdx > 0) {
                            std::this_thread::sleep_for(std::chrono::duration<double>(
                                rung.backoffSeconds));
                        }
                        out = solveAtRung(files[i], opts_, rung);
                        {
                            std::lock_guard<std::mutex> lock(outMu);
                            RungStats& rs = rungStats_[rungIdx];
                            ++rs.attempts;
                            if (isConclusive(out.result)) ++rs.conclusive;
                            if (out.result == SolveResult::Memout) ++rs.memouts;
                            if (out.failure) ++rs.failures;
                        }
#if HQS_OBS_ENABLED
                        {
                            // Per-rung outcome counters (dynamic names, so
                            // the OBS_COUNT static-id cache does not apply).
                            using obs::MetricKind;
                            obs::Registry& reg = obs::currentRegistry();
                            const std::string base = "batch.rung." + rung.name;
                            reg.add(obs::metric(base + ".attempts",
                                                MetricKind::Counter), 1);
                            if (isConclusive(out.result))
                                reg.add(obs::metric(base + ".conclusive",
                                                    MetricKind::Counter), 1);
                            if (out.result == SolveResult::Memout)
                                reg.add(obs::metric(base + ".memouts",
                                                    MetricKind::Counter), 1);
                            if (out.failure)
                                reg.add(obs::metric(base + ".failures",
                                                    MetricKind::Counter), 1);
                            if (opts_.strategy) {
                                const std::string sbase =
                                    "strategy.rung." + rung.name;
                                reg.add(obs::metric(sbase + ".attempts",
                                                    MetricKind::Counter), 1);
                                if (isConclusive(out.result))
                                    reg.add(obs::metric(sbase + ".conclusive",
                                                        MetricKind::Counter), 1);
                            }
                        }
#endif
                        r.attempts = static_cast<unsigned>(rungIdx + 1);
                        if (rungIdx + 1 >= ladder.size() || !rungRetryable(out) ||
                            opts_.cancel.cancelled()) {
                            break;
                        }
                    }
                    r.result = out.result;
                    r.engine = out.engine;
                    r.failure = out.failure;
                    r.metrics = out.metrics;
                    r.certificate = out.certificate;
                    r.families = out.families;
                    r.rung = ladder[rungIdx].name;
                    r.degraded = rungIdx > 0;
                    if (opts_.cancel.cancelled() && !isConclusive(r.result) && !r.failure)
                        r.failure = {FailureKind::Cancelled, "batch", "batch cancelled"};
                    api::storeCache(plan, r.result, r.engine, t.elapsedMilliseconds(),
                                    out.certificateText);
                }
                if (r.failure && r.error.empty()) r.error = r.failure.what;
                r.wallMilliseconds = t.elapsedMilliseconds();
                // Fan the representative's row out to its duplicates.  Each
                // dup index belongs to exactly this job, so the copies race
                // nothing; only the JSONL stream needs the lock.
                for (std::size_t j : dupsOf[i]) {
                    results[j] = r;
                    results[j].instance = files[j];
                    results[j].dedupOf = files[i];
                }
                if (jsonl) {
                    std::lock_guard<std::mutex> lock(outMu);
                    writeJsonl(r, *jsonl);
                    for (std::size_t j : dupsOf[i]) writeJsonl(results[j], *jsonl);
                    jsonl->flush();
                }
            });
        }
        pool.wait();
    }
    return results;
}

} // namespace hqs
