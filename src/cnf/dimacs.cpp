#include "src/cnf/dimacs.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

#include "src/base/fault.hpp"

namespace hqs {
namespace {

/// The separators of `std::istream >> std::string` in the C locale.
constexpr bool isSpace(char c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// One-pass tokenizing cursor over the whole input.  DIMACS is
/// whitespace-separated, so line structure only matters for comments: a
/// line whose first byte is `c` is skipped to its end.  Tokens are views
/// into the text, which must outlive the cursor.
class Tokens {
public:
    explicit Tokens(std::string_view text) : p_(text.data()), end_(text.data() + text.size())
    {
        advance();
    }

    bool done() const { return done_; }
    std::string_view peek() const { return tok_; }
    std::string_view take()
    {
        const std::string_view t = tok_;
        advance();
        return t;
    }

    long takeInt()
    {
        if (done()) throw ParseError("unexpected end of input, expected integer");
        const std::string_view t = take();
        // An optional '-' and at most 18 digits: std::stol reads exactly this
        // value.  Everything else ('+', longer digit runs, stray bytes) goes
        // through std::stol itself, so its value or error text is unchanged.
        const std::size_t sign = t[0] == '-' ? 1 : 0;
        if (t.size() > sign && t.size() - sign <= 18) {
            long v = 0;
            std::size_t i = sign;
            for (; i < t.size(); ++i) {
                const unsigned digit = static_cast<unsigned char>(t[i]) - unsigned{'0'};
                if (digit > 9) break;
                v = v * 10 + static_cast<long>(digit);
            }
            if (i == t.size()) return sign ? -v : v;
        }
        return stolToken(std::string(t));
    }

private:
    static long stolToken(const std::string& t)
    {
        try {
            std::size_t used = 0;
            long v = std::stol(t, &used);
            if (used != t.size()) throw ParseError("bad integer token '" + t + "'");
            return v;
        } catch (const std::logic_error&) {
            throw ParseError("bad integer token '" + t + "'");
        }
    }

    void advance()
    {
        while (p_ != end_) {
            const char c = *p_;
            if (atLineStart_ && c == 'c') { // comment: skip to the newline
                const void* nl = std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
                p_ = nl ? static_cast<const char*>(nl) : end_;
            } else if (isSpace(c)) {
                atLineStart_ = c == '\n';
                ++p_;
            } else {
                const char* start = p_;
                while (++p_ != end_ && !isSpace(*p_)) {
                }
                tok_ = std::string_view(start, static_cast<std::size_t>(p_ - start));
                atLineStart_ = false;
                return;
            }
        }
        done_ = true;
        tok_ = {};
    }

    const char* p_;
    const char* end_;
    bool atLineStart_ = true;
    bool done_ = false;
    std::string_view tok_;
};

/// A variable in 1..numVars, compared before it narrows to Var.
Var takeVar(Tokens& t, long numVars)
{
    long v = t.takeInt();
    if (v <= 0 || v > numVars) {
        throw ParseError("variable " + std::to_string(v) + " out of range 1.." +
                         std::to_string(numVars));
    }
    return static_cast<Var>(v - 1);
}

/// Parse @p text in place; the `parse` checkpoint has already run.
ParsedQdimacs parseText(std::string_view text)
{
    Tokens t(text);
    if (t.done() || t.take() != "p") throw ParseError("missing 'p cnf' header");
    if (t.done() || t.take() != "cnf") throw ParseError("header is not 'p cnf'");
    const long nv = t.takeInt();
    const long nc = t.takeInt();
    if (nv < 0 || nc < 0) throw ParseError("negative counts in header");
    // The range checks below compare each parsed long with nv before it
    // narrows to Var, and a literal narrows to int (Lit::fromDimacs).
    if (nv > std::numeric_limits<int>::max())
        throw ParseError("variable count in header out of range");

    ParsedQdimacs out;
    out.matrix.ensureVars(static_cast<Var>(nv));

    bool inPrefix = true;
    while (!t.done() && inPrefix) {
        const std::string_view tok = t.peek();
        if (tok == "a" || tok == "e") {
            PrefixBlockSpec block;
            block.kind = (t.take() == "a") ? QuantKind::Forall : QuantKind::Exists;
            for (;;) {
                long v = t.takeInt();
                if (v == 0) break;
                if (v < 0) throw ParseError("negative variable in quantifier block");
                if (v > nv) throw ParseError("prefix variable out of range");
                block.vars.push_back(static_cast<Var>(v - 1));
            }
            out.blocks.push_back(std::move(block));
        } else if (tok == "d") {
            t.take();
            DependencySpec dep;
            dep.var = takeVar(t, nv);
            for (;;) {
                long v = t.takeInt();
                if (v == 0) break;
                if (v < 0) throw ParseError("negative variable in dependency line");
                if (v > nv) throw ParseError("dependency variable out of range");
                dep.deps.push_back(static_cast<Var>(v - 1));
            }
            out.henkin.push_back(std::move(dep));
        } else {
            inPrefix = false;
        }
    }

    // Clauses: integers terminated by 0.  Literals collect in one scratch
    // buffer; each clause is then allocated once at its exact size.
    std::vector<Lit> lits;
    while (!t.done()) {
        long v = t.takeInt();
        if (v == 0) {
            out.matrix.addClause(Clause(std::vector<Lit>(lits.begin(), lits.end())));
            lits.clear();
        } else {
            if (v < -nv || v > nv) throw ParseError("clause literal out of range");
            lits.push_back(Lit::fromDimacs(static_cast<int>(v)));
        }
    }
    if (!lits.empty()) throw ParseError("last clause not terminated by 0");
    // The header's clause count is not enforced: many generators get it
    // wrong, and strictness here would reject real files.
    return out;
}

/// The rest of @p in.  A seekable source (a file) says how much is left,
/// so the text is allocated once at its final size.
std::string readAll(std::istream& in)
{
    std::string text;
    std::streambuf* buf = in.rdbuf();
    const std::streamoff here = buf ? std::streamoff(buf->pubseekoff(0, std::ios::cur, std::ios::in)) : -1;
    if (here >= 0) {
        const std::streamoff end(buf->pubseekoff(0, std::ios::end, std::ios::in));
        buf->pubseekpos(here, std::ios::in);
        if (end > here) text.reserve(static_cast<std::size_t>(end - here));
    }
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(in.gcount()));
    return text;
}

/// Append @p v in decimal.
template <typename Int>
void appendInt(std::string& out, Int v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

} // namespace

ParsedQdimacs parseDqdimacs(std::istream& in)
{
    fault::checkpoint("parse");
    return parseText(readAll(in));
}

ParsedQdimacs parseDqdimacsFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw ParseError("cannot open file '" + path + "'");
    return parseDqdimacs(in);
}

ParsedQdimacs parseDqdimacsString(const std::string& text)
{
    fault::checkpoint("parse");
    return parseText(text);
}

void writeDqdimacs(std::ostream& os, const ParsedQdimacs& f)
{
    os << toDqdimacsString(f);
}

std::string toDqdimacsString(const ParsedQdimacs& f)
{
    std::string out = "p cnf ";
    appendInt(out, f.matrix.numVars());
    out += ' ';
    appendInt(out, f.matrix.numClauses());
    out += '\n';
    const auto appendVars = [&out](const std::vector<Var>& vars) {
        for (Var v : vars) {
            out += ' ';
            appendInt(out, static_cast<Var>(v + 1));
        }
        out += " 0\n";
    };
    for (const PrefixBlockSpec& b : f.blocks) {
        out += b.kind == QuantKind::Forall ? 'a' : 'e';
        appendVars(b.vars);
    }
    for (const DependencySpec& d : f.henkin) {
        out += "d ";
        appendInt(out, static_cast<Var>(d.var + 1));
        appendVars(d.deps);
    }
    for (const Clause& c : f.matrix) {
        for (Lit l : c) {
            appendInt(out, l.toDimacs());
            out += ' ';
        }
        out += "0\n";
    }
    return out;
}

} // namespace hqs
