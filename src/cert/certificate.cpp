#include "src/cert/certificate.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "src/aig/aiger.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs::cert {
namespace {

constexpr std::uint8_t kKindNone = 0;
constexpr std::uint8_t kKindUniversal = 1;
constexpr std::uint8_t kKindExistential = 2;

/// 64-bit FNV-1a over a tagged word stream.
class Fnv1a {
public:
    void word(std::uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (w >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }
    void tag(char c) { word(static_cast<std::uint64_t>(static_cast<unsigned char>(c))); }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::string hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

NormalizedPrefix normalizePrefix(const ParsedQdimacs& parsed)
{
    NormalizedPrefix out;
    std::vector<std::uint8_t> kind(parsed.matrix.numVars(), kKindNone);
    auto kindOf = [&](Var v) -> std::uint8_t {
        return v < kind.size() ? kind[v] : kKindNone;
    };
    auto setKind = [&](Var v, std::uint8_t k) {
        if (v >= kind.size()) kind.resize(v + 1, kKindNone);
        kind[v] = k;
    };
    auto addExistential = [&](Var v, std::vector<Var> deps) {
        if (kindOf(v) != kKindNone) return; // first declaration wins
        setKind(v, kKindExistential);
        if (!std::is_sorted(deps.begin(), deps.end())) std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        out.existentials.push_back(v);
        out.deps.push_back(std::move(deps));
    };

    // QDIMACS blocks: an `e` variable depends on every universal to its left.
    for (const PrefixBlockSpec& b : parsed.blocks) {
        if (b.kind == QuantKind::Forall) {
            for (Var v : b.vars) {
                if (kindOf(v) != kKindNone) continue;
                setKind(v, kKindUniversal);
                out.universals.push_back(v);
            }
        } else {
            for (Var v : b.vars) addExistential(v, out.universals);
        }
    }
    // Henkin lines: explicit dependency sets.
    for (const DependencySpec& d : parsed.henkin) addExistential(d.var, d.deps);
    // Free matrix variables: existentials with empty dependencies.
    for (Var v = 0; v < parsed.matrix.numVars(); ++v) {
        if (kindOf(v) == kKindNone) addExistential(v, {});
    }
    return out;
}

std::uint64_t formulaHash(const ParsedQdimacs& parsed)
{
    return formulaHash(parsed, normalizePrefix(parsed));
}

std::uint64_t formulaHash(const ParsedQdimacs& parsed, const NormalizedPrefix& p)
{
    Fnv1a h;
    h.tag('U');
    h.word(p.universals.size());
    for (Var v : p.universals) h.word(v);
    h.tag('E');
    h.word(p.existentials.size());
    for (std::size_t i = 0; i < p.existentials.size(); ++i) {
        h.word(p.existentials[i]);
        h.word(p.deps[i].size());
        for (Var d : p.deps[i]) h.word(d);
    }
    h.tag('M');
    h.word(parsed.matrix.numVars());
    h.word(parsed.matrix.numClauses());
    for (const Clause& c : parsed.matrix.clauses()) {
        h.word(c.size());
        for (Lit l : c) h.word(l.code());
    }
    return h.value();
}

void writeCertificate(std::ostream& os, const Certificate& cert)
{
    os << "dqbf-cert 1\n";
    os << "hash " << hex16(cert.hash) << '\n';
    os << "verdict SAT\n";

    std::string formula = toDqdimacsString(cert.formula);
    if (!formula.empty() && formula.back() != '\n') formula.push_back('\n');
    const std::size_t lines =
        static_cast<std::size_t>(std::count(formula.begin(), formula.end(), '\n'));
    os << "formula " << lines << '\n' << formula;

    os << "skolem " << cert.functions.size() << '\n';
    writeAiger(os, *cert.aig, cert.functions);
    os << "end dqbf-cert\n";
}

std::string toCertificateString(const Certificate& cert)
{
    std::ostringstream os;
    writeCertificate(os, cert);
    return os.str();
}

const char* toString(CheckStatus s)
{
    switch (s) {
    case CheckStatus::Ok: return "ok";
    case CheckStatus::Truncated: return "truncated";
    case CheckStatus::BadFormat: return "bad-format";
    case CheckStatus::HashMismatch: return "hash-mismatch";
    case CheckStatus::MissingFunction: return "missing-function";
    case CheckStatus::DependencyViolation: return "dependency-violation";
    case CheckStatus::Refuted: return "refuted";
    case CheckStatus::SolverTimeout: return "solver-timeout";
    }
    return "unknown";
}

CheckStatus parseCertificate(std::istream& is, Certificate& out, std::string& detail)
{
    std::string line;
    auto nextLine = [&](const char* what) {
        if (!std::getline(is, line)) {
            detail = std::string("file ends before ") + what;
            return false;
        }
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
    };

    if (!nextLine("the dqbf-cert header")) return CheckStatus::Truncated;
    if (line != "dqbf-cert 1") {
        detail = "not a dqbf-cert version 1 artifact: \"" + line + "\"";
        return CheckStatus::BadFormat;
    }

    if (!nextLine("the hash line")) return CheckStatus::Truncated;
    {
        std::istringstream ls(line);
        std::string key, hex;
        if (!(ls >> key >> hex) || key != "hash" || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
            detail = "malformed hash line: \"" + line + "\"";
            return CheckStatus::BadFormat;
        }
        out.hash = std::stoull(hex, nullptr, 16);
    }

    if (!nextLine("the verdict line")) return CheckStatus::Truncated;
    if (line != "verdict SAT") {
        detail = "unsupported verdict line: \"" + line + "\"";
        return CheckStatus::BadFormat;
    }

    if (!nextLine("the formula header")) return CheckStatus::Truncated;
    std::size_t formulaLines = 0;
    {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key >> formulaLines) || key != "formula") {
            detail = "malformed formula header: \"" + line + "\"";
            return CheckStatus::BadFormat;
        }
    }
    std::string formulaText;
    for (std::size_t i = 0; i < formulaLines; ++i) {
        if (!nextLine("the end of the embedded formula")) return CheckStatus::Truncated;
        formulaText += line;
        formulaText += '\n';
    }
    try {
        out.formula = parseDqdimacsString(formulaText);
    } catch (const ParseError& e) {
        detail = std::string("embedded formula: ") + e.what();
        return CheckStatus::BadFormat;
    }

    if (!nextLine("the skolem header")) return CheckStatus::Truncated;
    std::size_t declaredFunctions = 0;
    {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key >> declaredFunctions) || key != "skolem") {
            detail = "malformed skolem header: \"" + line + "\"";
            return CheckStatus::BadFormat;
        }
    }

    out.aig = std::make_shared<Aig>();
    AigerFile af;
    try {
        af = readAiger(is, *out.aig);
    } catch (const ParseError& e) {
        if (is.eof()) {
            detail = std::string("file ends inside the aag block (") + e.what() + ")";
            return CheckStatus::Truncated;
        }
        detail = std::string("aag block: ") + e.what();
        return CheckStatus::BadFormat;
    }
    if (af.outputs.size() != declaredFunctions) {
        detail = "skolem header declares " + std::to_string(declaredFunctions) +
                 " functions but the aag block has " + std::to_string(af.outputs.size()) +
                 " outputs";
        return CheckStatus::BadFormat;
    }

    // Symbol table: AIGER input k is original variable inputMap[k].
    std::vector<Var> inputMap(af.inputs.size());
    for (std::size_t k = 0; k < af.inputs.size(); ++k) {
        std::string sym, name;
        if (!(is >> sym >> name)) {
            detail = "file ends inside the aag symbol table";
            return CheckStatus::Truncated;
        }
        unsigned long idx = 0, var = 0;
        if (std::sscanf(sym.c_str(), "i%lu", &idx) != 1 || idx != k ||
            std::sscanf(name.c_str(), "v%lu", &var) != 1) {
            detail = "malformed aag symbol entry: \"" + sym + ' ' + name + "\"";
            return CheckStatus::BadFormat;
        }
        inputMap[k] = static_cast<Var>(var);
    }

    // Remap the parsed functions from AIGER input numbering (input k is
    // external variable k) to the original variables, simultaneously so
    // overlapping ranges cannot alias.
    out.functions.clear();
    if (inputMap.empty()) {
        out.functions = af.outputs;
    } else {
        Substitution sub;
        for (std::size_t k = 0; k < inputMap.size(); ++k) {
            sub.set(static_cast<Var>(k), out.aig->variable(inputMap[k]));
        }
        for (AigEdge e : af.outputs) out.functions.push_back(out.aig->substitute(e, sub));
    }

    std::string endWord, endName;
    if (!(is >> endWord >> endName)) {
        detail = "file ends before the end marker";
        return CheckStatus::Truncated;
    }
    if (endWord != "end" || endName != "dqbf-cert") {
        detail = "bad end marker: \"" + endWord + ' ' + endName + "\"";
        return CheckStatus::BadFormat;
    }
    detail.clear();
    return CheckStatus::Ok;
}

CheckStatus parseCertificateString(const std::string& text, Certificate& out,
                                   std::string& detail)
{
    std::istringstream is(text);
    return parseCertificate(is, out, detail);
}

CheckStatus parseCertificateFile(const std::string& path, Certificate& out,
                                 std::string& detail)
{
    std::ifstream is(path);
    if (!is) {
        detail = "cannot open " + path;
        return CheckStatus::BadFormat;
    }
    return parseCertificate(is, out, detail);
}

CheckResult checkCertificateText(const std::string& text, Deadline deadline)
{
    Certificate parsed;
    CheckResult res;
    res.status = parseCertificateString(text, parsed, res.detail);
    if (res.status != CheckStatus::Ok) return res;
    return checkCertificate(parsed, deadline);
}

std::size_t countAndNodes(const Aig& aig, const std::vector<AigEdge>& outputs)
{
    std::unordered_set<std::uint32_t> seen;
    std::vector<AigEdge> stack(outputs.begin(), outputs.end());
    std::size_t ands = 0;
    while (!stack.empty()) {
        const AigEdge e = stack.back();
        stack.pop_back();
        if (!seen.insert(e.nodeIndex()).second) continue;
        if (aig.isAnd(e)) {
            ++ands;
            stack.push_back(aig.fanin0(e));
            stack.push_back(aig.fanin1(e));
        }
    }
    return ands;
}

CheckResult checkCertificate(const Certificate& cert, Deadline deadline)
{
    Timer timer;
    CheckResult res;
    auto fail = [&](CheckStatus s, std::string why) {
        res.status = s;
        res.detail = std::move(why);
        res.checkMs = timer.elapsedMilliseconds();
        OBS_OBSERVE("cert.check_ms", res.checkMs);
        return res;
    };

    const std::uint64_t expected = formulaHash(cert.formula);
    if (expected != cert.hash) {
        return fail(CheckStatus::HashMismatch,
                    "certificate hash " + hex16(cert.hash) +
                        " does not match formula hash " + hex16(expected));
    }

    const NormalizedPrefix p = normalizePrefix(cert.formula);
    if (cert.functions.size() != p.existentials.size()) {
        return fail(CheckStatus::MissingFunction,
                    "certificate carries " + std::to_string(cert.functions.size()) +
                        " functions for " + std::to_string(p.existentials.size()) +
                        " existential variables");
    }

    Aig& mgr = *cert.aig;
    res.sizeNodes = countAndNodes(mgr, cert.functions);
    OBS_GAUGE_MAX("cert.size_nodes", res.sizeNodes);

    const std::unordered_set<Var> universal(p.universals.begin(), p.universals.end());
    for (std::size_t k = 0; k < p.existentials.size(); ++k) {
        const std::vector<Var>& deps = p.deps[k];
        for (Var v : mgr.support(cert.functions[k])) {
            if (!universal.count(v) ||
                !std::binary_search(deps.begin(), deps.end(), v)) {
                return fail(CheckStatus::DependencyViolation,
                            "function for v" + std::to_string(p.existentials[k]) +
                                " depends on v" + std::to_string(v) +
                                ", outside its declared dependency set");
            }
        }
    }

    Substitution sub;
    for (std::size_t k = 0; k < p.existentials.size(); ++k) {
        sub.set(p.existentials[k], cert.functions[k]);
    }
    const AigEdge matrix = buildFromCnf(mgr, cert.formula.matrix);
    const AigEdge substituted = mgr.substitute(matrix, sub);
    for (Var v : mgr.support(substituted)) {
        if (!universal.count(v)) {
            return fail(CheckStatus::DependencyViolation,
                        "substituted matrix still depends on non-universal v" +
                            std::to_string(v));
        }
    }

    if (mgr.isConstant(substituted)) {
        if (!mgr.constantValue(substituted)) {
            return fail(CheckStatus::Refuted, "substituted matrix is constant false");
        }
    } else {
        SatSolver sat;
        AigCnfBridge bridge(mgr, sat);
        const Lit negated = bridge.litFor(~substituted);
        switch (sat.solve({negated}, deadline)) {
        case SolveResult::Unsat:
            break;
        case SolveResult::Sat:
            return fail(CheckStatus::Refuted,
                        "substituted matrix is falsifiable under some universal "
                        "assignment");
        default:
            return fail(CheckStatus::SolverTimeout, "SAT check hit the deadline");
        }
    }

    res.status = CheckStatus::Ok;
    res.checkMs = timer.elapsedMilliseconds();
    OBS_OBSERVE("cert.check_ms", res.checkMs);
    return res;
}

} // namespace hqs::cert
