#include "src/circuit/dqcir_parser.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/base/fault.hpp"
#include "src/circuit/tseitin.hpp"

namespace hqs {
namespace {

bool isNameChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A name or '-'name reference on a DQCIR line.
struct DqcirLit {
    std::string name;
    bool negated = false;
};

/// Tokenized `head(arg, arg, ...)` line; gate lines carry `target`.
struct DqcirLine {
    std::string target; ///< empty for prefix/output lines
    std::string head;   ///< keyword or gate operator
    std::vector<DqcirLit> args;
};

class LineLexer {
public:
    LineLexer(const std::string& text, unsigned lineNo)
        : text_(text), lineNo_(lineNo)
    {
    }

    [[noreturn]] void fail(const std::string& what) const
    {
        throw ParseError("dqcir line " + std::to_string(lineNo_) + ": " + what);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool atEnd()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

    bool consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string name()
    {
        skipSpace();
        std::size_t start = pos_;
        while (pos_ < text_.size() && isNameChar(text_[pos_])) ++pos_;
        if (pos_ == start) fail("expected a variable or gate name");
        return text_.substr(start, pos_ - start);
    }

    DqcirLit literal()
    {
        DqcirLit l;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
            l.negated = true;
        }
        l.name = name();
        return l;
    }

private:
    const std::string& text_;
    std::size_t pos_ = 0;
    unsigned lineNo_;
};

/// Tokenize one non-comment line into head(args) or target = head(args).
DqcirLine tokenizeLine(const std::string& text, unsigned lineNo)
{
    LineLexer lex(text, lineNo);
    DqcirLine line;
    std::string first = lex.name();
    if (lex.consume('=')) {
        line.target = std::move(first);
        line.head = lex.name();
    } else {
        line.head = std::move(first);
    }
    if (!lex.consume('(')) lex.fail("expected '(' after \"" + line.head + "\"");
    if (!lex.consume(')')) {
        do {
            line.args.push_back(lex.literal());
        } while (lex.consume(','));
        if (!lex.consume(')')) lex.fail("missing ')'");
    }
    if (!lex.atEnd()) lex.fail("trailing text after ')'");
    return line;
}

class DqcirParser {
public:
    ParsedDqcir parse(std::istream& in)
    {
        fault::checkpoint("dqcir-parse");
        std::string raw;
        unsigned lineNo = 0;
        bool sawHeader = false;
        while (std::getline(in, raw)) {
            ++lineNo;
            const std::string text = stripped(raw);
            if (text.empty()) continue;
            if (text[0] == '#') {
                if (!sawHeader && isHeader(text)) sawHeader = true;
                continue; // later '#' lines are comments
            }
            if (!sawHeader)
                throw ParseError("dqcir: missing #QCIR-G14 header line");
            handleLine(tokenizeLine(text, lineNo), lineNo);
        }
        if (!sawHeader) throw ParseError("dqcir: missing #QCIR-G14 header line");
        if (!sawOutput_) throw ParseError("dqcir: missing output(...) line");
        return std::move(result_);
    }

private:
    [[noreturn]] static void fail(unsigned lineNo, const std::string& what)
    {
        throw ParseError("dqcir line " + std::to_string(lineNo) + ": " + what);
    }

    static std::string stripped(const std::string& raw)
    {
        std::size_t b = 0, e = raw.size();
        while (b < e && std::isspace(static_cast<unsigned char>(raw[b]))) ++b;
        while (e > b && std::isspace(static_cast<unsigned char>(raw[e - 1]))) --e;
        return raw.substr(b, e - b);
    }

    static bool isHeader(const std::string& text)
    {
        return text.rfind("#QCIR", 0) == 0 || text.rfind("#qcir", 0) == 0;
    }

    Circuit::NodeId resolve(const DqcirLit& l, unsigned lineNo)
    {
        auto it = nodeOf_.find(l.name);
        if (it == nodeOf_.end())
            fail(lineNo, "undefined variable \"" + l.name + "\"");
        Circuit::NodeId n = it->second;
        if (l.negated) {
            auto cached = notOf_.find(n);
            if (cached != notOf_.end()) return cached->second;
            const Circuit::NodeId inv = result_.circuit.notGate(n);
            notOf_.emplace(n, inv);
            return inv;
        }
        return n;
    }

    void declare(const std::string& name, Circuit::NodeId node, unsigned lineNo)
    {
        if (!nodeOf_.emplace(name, node).second)
            fail(lineNo, "variable \"" + name + "\" already declared");
    }

    std::size_t declareInput(const std::string& name, bool universal,
                             std::vector<std::size_t> deps, unsigned lineNo)
    {
        DqcirInput input;
        input.name = name;
        input.node = result_.circuit.addInput(name);
        input.universal = universal;
        input.deps = std::move(deps);
        declare(name, input.node, lineNo);
        result_.inputs.push_back(std::move(input));
        return result_.inputs.size() - 1;
    }

    void handleLine(const DqcirLine& line, unsigned lineNo)
    {
        if (line.target.empty() &&
            (line.head == "forall" || line.head == "exists" ||
             line.head == "depend" || line.head == "free")) {
            if (sawOutput_ || result_.gateCount > 0)
                fail(lineNo, "quantifier line after output/gates");
            handleQuantifier(line, lineNo);
            return;
        }
        if (line.target.empty() && line.head == "output") {
            if (sawOutput_) fail(lineNo, "duplicate output(...) line");
            if (line.args.size() != 1)
                fail(lineNo, "output(...) takes exactly one literal");
            outputLit_ = line.args[0];
            sawOutput_ = true;
            return;
        }
        if (line.target.empty())
            fail(lineNo, "unknown directive \"" + line.head + "\"");
        handleGate(line, lineNo);
    }

    void handleQuantifier(const DqcirLine& line, unsigned lineNo)
    {
        for (const DqcirLit& a : line.args)
            if (a.negated) fail(lineNo, "negated variable in quantifier prefix");
        if (line.head == "forall") {
            for (const DqcirLit& a : line.args) {
                const std::size_t idx = declareInput(a.name, true, {}, lineNo);
                universalIdx_.push_back(idx);
            }
        } else if (line.head == "exists") {
            // QBF semantics: depend on every universal declared so far.
            for (const DqcirLit& a : line.args)
                declareInput(a.name, false, universalIdx_, lineNo);
        } else if (line.head == "free") {
            for (const DqcirLit& a : line.args)
                declareInput(a.name, false, {}, lineNo);
        } else { // depend(v, x1, ..., xk)
            if (line.args.empty())
                fail(lineNo, "depend(...) needs a target variable");
            std::vector<std::size_t> deps;
            deps.reserve(line.args.size() - 1);
            for (std::size_t i = 1; i < line.args.size(); ++i) {
                const std::string& dep = line.args[i].name;
                auto it = inputIdxOf_.find(dep);
                if (it == inputIdxOf_.end() || !result_.inputs[it->second].universal)
                    fail(lineNo, "depend(...) on non-universal \"" + dep + "\"");
                deps.push_back(it->second);
            }
            declareInput(line.args[0].name, false, std::move(deps), lineNo);
        }
        // Keep the by-name index in sync with the inputs just added.
        while (indexedInputs_ < result_.inputs.size()) {
            inputIdxOf_.emplace(result_.inputs[indexedInputs_].name, indexedInputs_);
            ++indexedInputs_;
        }
    }

    void handleGate(const DqcirLine& line, unsigned lineNo)
    {
        if (!sawOutput_) fail(lineNo, "gate definition before output(...)");
        std::vector<Circuit::NodeId> fanins;
        fanins.reserve(line.args.size());
        for (const DqcirLit& a : line.args) fanins.push_back(resolve(a, lineNo));

        Circuit::NodeId node;
        if (line.head == "and") {
            node = fanins.empty() ? result_.circuit.constant(true)
                                  : result_.circuit.gate(GateOp::And, std::move(fanins));
        } else if (line.head == "or") {
            node = fanins.empty() ? result_.circuit.constant(false)
                                  : result_.circuit.gate(GateOp::Or, std::move(fanins));
        } else if (line.head == "xor") {
            if (fanins.size() != 2)
                fail(lineNo, "xor(...) takes exactly two literals");
            node = result_.circuit.gate(GateOp::Xor, std::move(fanins));
        } else if (line.head == "ite") {
            if (fanins.size() != 3)
                fail(lineNo, "ite(...) takes exactly three literals");
            // ite(c, t, e) = (c and t) or (-c and e), expanded structurally.
            Circuit& c = result_.circuit;
            const Circuit::NodeId thenArm = c.gate2(GateOp::And, fanins[0], fanins[1]);
            const Circuit::NodeId notC = resolveNot(fanins[0]);
            const Circuit::NodeId elseArm = c.gate2(GateOp::And, notC, fanins[2]);
            node = c.gate2(GateOp::Or, thenArm, elseArm);
        } else {
            fail(lineNo, "unknown gate \"" + line.head + "\"");
        }
        declare(line.target, node, lineNo);
        ++result_.gateCount;
    }

    Circuit::NodeId resolveNot(Circuit::NodeId n)
    {
        auto cached = notOf_.find(n);
        if (cached != notOf_.end()) return cached->second;
        const Circuit::NodeId inv = result_.circuit.notGate(n);
        notOf_.emplace(n, inv);
        return inv;
    }

public:
    /// Resolve the recorded output literal once all gates are defined.
    void finishOutput(ParsedDqcir& parsed)
    {
        auto it = nodeOf_.find(outputLit_.name);
        if (it == nodeOf_.end())
            throw ParseError("dqcir: output references undefined variable \"" +
                             outputLit_.name + "\"");
        parsed.outputNode = it->second;
        parsed.outputNegated = outputLit_.negated;
    }

private:
    ParsedDqcir result_;
    std::unordered_map<std::string, Circuit::NodeId> nodeOf_;
    std::unordered_map<std::string, std::size_t> inputIdxOf_;
    std::unordered_map<Circuit::NodeId, Circuit::NodeId> notOf_;
    std::vector<std::size_t> universalIdx_;
    std::size_t indexedInputs_ = 0;
    DqcirLit outputLit_;
    bool sawOutput_ = false;
};

} // namespace

ParsedDqcir parseDqcir(std::istream& in)
{
    DqcirParser parser;
    ParsedDqcir parsed = parser.parse(in);
    parser.finishOutput(parsed);
    return parsed;
}

ParsedDqcir parseDqcirFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw ParseError("dqcir: cannot open file: " + path);
    return parseDqcir(in);
}

ParsedDqcir parseDqcirString(const std::string& text)
{
    std::istringstream in(text);
    return parseDqcir(in);
}

bool looksLikeDqcir(const std::string& text)
{
    std::size_t pos = 0;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos < text.size() && text[pos] == '#';
}

bool isCircuitInput(const std::string& format, const std::string& text)
{
    return format == "dqcir" || (format.empty() && looksLikeDqcir(text));
}

ParsedQdimacs lowerDqcir(const ParsedDqcir& parsed)
{
    ParsedQdimacs out;
    const Var numInputs = static_cast<Var>(parsed.inputs.size());
    out.matrix.ensureVars(numInputs);

    std::unordered_map<Circuit::NodeId, Var> fixed;
    fixed.reserve(parsed.inputs.size());
    for (Var i = 0; i < numInputs; ++i) fixed.emplace(parsed.inputs[i].node, i);

    Var next = numInputs;
    const std::vector<Var> nodeVar =
        tseitinEncode(parsed.circuit, out.matrix, fixed, [&next] { return next++; });
    out.matrix.addClause({Lit(nodeVar[parsed.outputNode], parsed.outputNegated)});

    PrefixBlockSpec universals{QuantKind::Forall, {}};
    for (Var i = 0; i < numInputs; ++i)
        if (parsed.inputs[i].universal) universals.vars.push_back(i);
    if (!universals.vars.empty()) out.blocks.push_back(std::move(universals));

    for (Var i = 0; i < numInputs; ++i) {
        const DqcirInput& input = parsed.inputs[i];
        if (input.universal) continue;
        DependencySpec spec;
        spec.var = i;
        spec.deps.reserve(input.deps.size());
        for (std::size_t dep : input.deps) spec.deps.push_back(static_cast<Var>(dep));
        std::sort(spec.deps.begin(), spec.deps.end());
        out.henkin.push_back(std::move(spec));
    }

    // Tseitin variables are functionally determined by the inputs, so an
    // innermost e-block (depends on every universal) is sound.
    if (next > numInputs) {
        PrefixBlockSpec gates{QuantKind::Exists, {}};
        gates.vars.reserve(next - numInputs);
        for (Var v = numInputs; v < next; ++v) gates.vars.push_back(v);
        out.blocks.push_back(std::move(gates));
    }
    return out;
}

} // namespace hqs
