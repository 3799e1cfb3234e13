// Reader/writer for DIMACS CNF and its quantified extensions QDIMACS and
// DQDIMACS.
//
// DQDIMACS extends QDIMACS with `d` lines: `d y x1 x2 ... 0` declares an
// existential variable y whose dependency set is exactly {x1, x2, ...}
// (a Henkin quantifier).  Plain `a`/`e` blocks keep their QDIMACS meaning:
// a variable in an `e` block depends on every universal declared to its left.
//
// Variables in the textual format are 1-based; everything in-memory is
// 0-based (see Lit::fromDimacs).
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cnf/cnf.hpp"

namespace hqs {

class ParseError : public std::runtime_error {
public:
    explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

enum class QuantKind { Exists, Forall };

/// One `a ... 0` or `e ... 0` prefix line.
struct PrefixBlockSpec {
    QuantKind kind;
    std::vector<Var> vars;

    bool operator==(const PrefixBlockSpec&) const = default;
};

/// One `d y x1 ... xk 0` line: existential @ref var with explicit deps.
struct DependencySpec {
    Var var;
    std::vector<Var> deps;

    bool operator==(const DependencySpec&) const = default;
};

/// Parse result for (D)QDIMACS.  For plain DIMACS both prefix vectors are
/// empty; for QDIMACS `henkin` is empty.
struct ParsedQdimacs {
    Cnf matrix;
    std::vector<PrefixBlockSpec> blocks;
    std::vector<DependencySpec> henkin;
};

/// Parse DIMACS / QDIMACS / DQDIMACS.  Throws ParseError on malformed
/// input.  One reader serves all three entry points: it scans the text in
/// place in a single pass, the string overload over the caller's string,
/// the stream and file overloads over the rest of the stream read into one
/// string first.  Tokens are whitespace-separated (the C-locale set of
/// `istream >> string`), a line whose first byte is `c` is a comment, and
/// integers read exactly as std::stol reads them, error texts included.
ParsedQdimacs parseDqdimacs(std::istream& in);
ParsedQdimacs parseDqdimacsFile(const std::string& path);
ParsedQdimacs parseDqdimacsString(const std::string& text);

/// Render in DQDIMACS syntax (plain DIMACS when there is no prefix);
/// writeDqdimacs writes toDqdimacsString's text to @p os.
void writeDqdimacs(std::ostream& os, const ParsedQdimacs& f);
std::string toDqdimacsString(const ParsedQdimacs& f);

} // namespace hqs
