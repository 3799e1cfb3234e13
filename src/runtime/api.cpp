#include "src/runtime/api.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace hqs::api {

const char* toString(EngineSpec::Kind kind)
{
    switch (kind) {
        case EngineSpec::Kind::Hqs: return "hqs";
        case EngineSpec::Kind::HqsBdd: return "hqs-bdd";
        case EngineSpec::Kind::Idq: return "idq";
        case EngineSpec::Kind::Expand: return "expand";
        case EngineSpec::Kind::Cegar: return "cegar";
        case EngineSpec::Kind::Portfolio: return "portfolio";
    }
    return "?";
}

std::string toString(const EngineSpec& spec)
{
    std::string text = toString(spec.kind);
    if (spec.kind == EngineSpec::Kind::Portfolio && spec.portfolioEngines != 0)
        text += ":" + std::to_string(spec.portfolioEngines);
    return text;
}

const char* engineFamily(EngineSpec::Kind kind)
{
    switch (kind) {
        case EngineSpec::Kind::Hqs:
        case EngineSpec::Kind::HqsBdd: return "elimination";
        case EngineSpec::Kind::Idq:
        case EngineSpec::Kind::Expand: return "instantiation";
        case EngineSpec::Kind::Cegar: return "cegar";
        case EngineSpec::Kind::Portfolio: return "portfolio";
    }
    return "?";
}

std::optional<EngineSpec> parseEngineSpec(const std::string& text)
{
    EngineSpec spec;
    if (text.empty() || text == "hqs") return spec;
    if (text == "hqs-bdd") {
        spec.kind = EngineSpec::Kind::HqsBdd;
        return spec;
    }
    if (text == "idq") {
        spec.kind = EngineSpec::Kind::Idq;
        return spec;
    }
    if (text == "expand") {
        spec.kind = EngineSpec::Kind::Expand;
        return spec;
    }
    if (text == "cegar") {
        spec.kind = EngineSpec::Kind::Cegar;
        return spec;
    }
    if (text == "portfolio") {
        spec.kind = EngineSpec::Kind::Portfolio;
        return spec;
    }
    if (text.rfind("portfolio:", 0) == 0) {
        std::size_t n = 0;
        if (!parseSize(text.substr(10), &n) || n == 0) return std::nullopt;
        spec.kind = EngineSpec::Kind::Portfolio;
        spec.portfolioEngines = n;
        return spec;
    }
    return std::nullopt;
}

std::vector<RequestError> SolveRequest::validate() const
{
    std::vector<RequestError> errors;
    if (!parsedEngine()) {
        errors.push_back({"engine", "unknown engine \"" + engine +
                                        "\" (hqs | hqs-bdd | idq | expand | "
                                        "cegar | portfolio[:N])"});
    }
    // The one non-finite/negative budget gate: every front end funnels its
    // timeout here, whether it arrived as --timeout seconds, a timeout-ms
    // header, or a JSONL field.
    if (!std::isfinite(timeoutSeconds)) {
        errors.push_back({"timeout", "timeout must be finite"});
    } else if (timeoutSeconds < 0) {
        errors.push_back({"timeout", "timeout must be >= 0"});
    }
    // Certification needs a Skolem-producing backend: the AIG elimination
    // trace (hqs), the CEGAR decision lists or iDQ's final candidate table.
    // expand never builds Skolem functions and hqs-bdd replays through a
    // backend that does not record.
    if (certify) {
        if (const auto spec = parsedEngine();
            spec && spec->kind != EngineSpec::Kind::Hqs &&
            spec->kind != EngineSpec::Kind::Cegar && spec->kind != EngineSpec::Kind::Idq &&
            spec->kind != EngineSpec::Kind::Portfolio) {
            errors.push_back({"certify", "certification requires a "
                                         "Skolem-producing engine (hqs, cegar, "
                                         "idq or portfolio), not \"" +
                                             engine + "\""});
        }
    }
    if (!cacheControl.empty() && cacheControl != "on" && cacheControl != "off" &&
        cacheControl != "bypass") {
        errors.push_back({"cache-control", "must be on, off, or bypass, not \"" +
                                               cacheControl + "\""});
    }
    if (!format.empty() && format != "dqdimacs" && format != "dqcir") {
        errors.push_back({"format", "must be dqdimacs or dqcir, not \"" +
                                        format + "\""});
    }
    for (char c : strategy) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
              c == '_' || c == '.')) {
            errors.push_back({"strategy",
                              "strategy names use [A-Za-z0-9._-] only"});
            break;
        }
    }
    // Session ops (protocol v2).  Stateless requests must not smuggle
    // session fields past the gate, and session solves run on the hqs
    // engine only: elimination is what the per-component reuse saves, and
    // the engine whose Skolem traces merged certificates are built from.
    if (!op.empty() && op != "open" && op != "delta" && op != "solve" &&
        op != "close") {
        errors.push_back({"op", "unknown op \"" + op +
                                    "\" (open | delta | solve | close)"});
    }
    if (op.empty()) {
        if (!session.empty())
            errors.push_back({"session", "session id requires an op"});
        if (!addGroup.empty() || !deltaClauses.empty() || !retractGroup.empty() ||
            !gate.empty() || !assume.empty()) {
            errors.push_back({"delta",
                              "delta fields require op \"delta\" or \"solve\""});
        }
    } else {
        if (op == "open" && !session.empty()) {
            errors.push_back({"session",
                              "op \"open\" allocates the id; do not pass one"});
        }
        if (op != "open" && session.empty()) {
            errors.push_back({"session", "op \"" + op + "\" requires a session id"});
        }
        if (op != "delta" && (!addGroup.empty() || !deltaClauses.empty() ||
                              !retractGroup.empty() || !gate.empty())) {
            errors.push_back({"delta", "group/gate deltas require op \"delta\""});
        }
        if (!assume.empty() && op != "delta" && op != "solve") {
            errors.push_back({"assume",
                              "assumptions require op \"delta\" or \"solve\""});
        }
        if (!deltaClauses.empty() && addGroup.empty()) {
            errors.push_back({"delta", "clauses require an add_group name"});
        }
        if (const auto spec = parsedEngine();
            spec && spec->kind != EngineSpec::Kind::Hqs) {
            errors.push_back({"engine", "session ops run on the hqs engine, not \"" +
                                            engine + "\""});
        }
    }
    return errors;
}

std::string SolveRequest::firstError() const
{
    const std::vector<RequestError> errors = validate();
    if (errors.empty()) return {};
    return errors.front().field + ": " + errors.front().message;
}

bool parseSeconds(const std::string& text, double* out)
{
    if (text.empty()) return false;
    try {
        std::size_t pos = 0;
        *out = std::stod(text, &pos);
        return pos == text.size();
    } catch (const std::exception&) {
        return false;
    }
}

bool parseMilliseconds(const std::string& text, double* outSeconds)
{
    double ms = 0;
    if (!parseSeconds(text, &ms)) return false;
    *outSeconds = ms / 1000.0;
    return true;
}

bool parseSize(const std::string& text, std::size_t* out)
{
    if (text.empty()) return false;
    try {
        std::size_t pos = 0;
        *out = static_cast<std::size_t>(std::stoul(text, &pos));
        return pos == text.size();
    } catch (const std::exception&) {
        return false;
    }
}

bool parseMegabytes(const std::string& text, std::size_t* outBytes)
{
    std::size_t mb = 0;
    if (!parseSize(text, &mb)) return false;
    if (mb > std::numeric_limits<std::size_t>::max() / (1024 * 1024)) return false;
    *outBytes = mb * 1024 * 1024;
    return true;
}

// ----- the one request-ingress table ---------------------------------------

namespace {

bool applyTimeoutMs(SolveRequest& r, const std::string& text)
{
    return parseMilliseconds(text, &r.timeoutSeconds);
}

bool applyRssLimitMb(SolveRequest& r, const std::string& text)
{
    // Accept the JSONL number syntax ("256" or "256.0") but keep the
    // narrowing guard validate() cannot see.
    double mb = 0;
    if (!parseSeconds(text, &mb)) return false;
    if (!std::isfinite(mb) || mb < 0) return false;
    if (mb > 0) r.rssLimitBytes = static_cast<std::size_t>(mb) * 1024 * 1024;
    return true;
}

bool applyEngine(SolveRequest& r, const std::string& text)
{
    r.engine = text.empty() ? "hqs" : text;
    return true;
}

bool applyCertify(SolveRequest& r, const std::string& text)
{
    if (text == "1" || text == "true") r.certify = true;
    else if (text == "0" || text == "false") r.certify = false;
    else return false;
    return true;
}

bool applyCache(SolveRequest& r, const std::string& text)
{
    r.cacheControl = text;
    return true;
}

bool applyStrategy(SolveRequest& r, const std::string& text)
{
    r.strategy = text;
    return true;
}

bool applyFormat(SolveRequest& r, const std::string& text)
{
    r.format = text;
    return true;
}

bool applyOp(SolveRequest& r, const std::string& text) { r.op = text; return true; }
bool applySession(SolveRequest& r, const std::string& text)
{
    r.session = text;
    return true;
}
bool applyAddGroup(SolveRequest& r, const std::string& text)
{
    r.addGroup = text;
    return true;
}
bool applyClauses(SolveRequest& r, const std::string& text)
{
    r.deltaClauses = text;
    return true;
}
bool applyRetractGroup(SolveRequest& r, const std::string& text)
{
    r.retractGroup = text;
    return true;
}
bool applyGate(SolveRequest& r, const std::string& text)
{
    r.gate = text;
    return true;
}
bool applyAssume(SolveRequest& r, const std::string& text)
{
    r.assume = text;
    return true;
}

} // namespace

const std::vector<RequestFieldSpec>& requestFields()
{
    // canonical (JSONL) | HTTP header | CLI stem
    //
    // The HTTP cache header is "solver-cache": a "cache-control" header
    // would shadow standard HTTP Cache-Control semantics.  Session fields
    // are JSONL-only: the stateful protocol lives on the line-oriented
    // surface.
    static const std::vector<RequestFieldSpec> kFields = {
        {"timeout_ms", "timeout-ms", "timeout-ms", &applyTimeoutMs},
        {"rss_limit_mb", "rss-limit-mb", "rss-limit-mb", &applyRssLimitMb},
        {"engine", "engine", "engine", &applyEngine},
        {"certify", "certify", "certify", &applyCertify},
        {"cache", "solver-cache", "cache", &applyCache},
        {"strategy", "strategy", "strategy", &applyStrategy},
        {"format", "format", "format", &applyFormat},
        {"op", "", "", &applyOp},
        {"session", "", "", &applySession},
        {"add_group", "", "", &applyAddGroup},
        {"clauses", "", "", &applyClauses},
        {"retract_group", "", "", &applyRetractGroup},
        {"gate", "", "", &applyGate},
        {"assume", "", "", &applyAssume},
    };
    return kFields;
}

std::string parseRequestFields(SolveRequest& out, RequestSurface surface,
                               const FieldGetter& get)
{
    for (const RequestFieldSpec& spec : requestFields()) {
        const char* name = surface == RequestSurface::Http  ? spec.http
                           : surface == RequestSurface::Cli ? spec.cli
                                                            : spec.canonical;
        if (name[0] == '\0') continue;
        const std::optional<std::string> text = get(name);
        if (!text) continue;
        if (!spec.apply(out, *text))
            return std::string("malformed ") + name;
    }
    return std::string();
}

bool applyCliRequestFlag(SolveRequest& out, const std::string& arg,
                         std::string* problem)
{
    for (const RequestFieldSpec& spec : requestFields()) {
        if (spec.cli[0] == '\0') continue;
        const std::string flag = std::string("--") + spec.cli;
        if (arg == flag && spec.apply == &applyCertify) {
            out.certify = true;
            return true;
        }
        if (arg.rfind(flag + "=", 0) == 0) {
            if (!spec.apply(out, arg.substr(flag.size() + 1)) && problem)
                *problem = std::string("malformed ") + spec.cli;
            return true;
        }
    }
    return false;
}

} // namespace hqs::api
