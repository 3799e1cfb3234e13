// Reader for DQCIR, the circuit-form DQBF input format: QCIR-G14 (the
// QBF Gallery circuit format) extended with `depend(...)` lines declaring
// Henkin dependency sets, mirroring the format pedantic-style CEGAR
// solvers consume.
//
//   #QCIR-G14
//   forall(x1, x2)
//   depend(y1, x1)          # existential y1 with D_y1 = {x1}
//   exists(y2)              # QBF semantics: depends on x1, x2
//   free(w)                 # existential with an empty dependency set
//   output(g2)
//   g1 = and(x1, -y1)
//   g2 = or(g1, -x2)
//
// Gates are and/or (n-ary, 0-ary constants), xor (binary), and ite
// (ternary, expanded structurally).  Operands are previously declared
// names, optionally negated with '-'; the gate list is therefore already
// in topological order.  Lines starting with '#' after the header are
// comments.
//
// The parser throws the same typed ParseError the DQDIMACS reader uses,
// one distinct message per corrupt-input branch (see tests/data/corrupt/
// dqcir_*.dqcir), and lowers through the existing Circuit/Tseitin path —
// no text round-trip: lowerDqcir() pins the quantified inputs to the
// leading CNF variables and Tseitin-encodes the gate cone directly, so the
// emitted clause patterns are exactly the ones the preprocessor's gate
// detection recognizes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/circuit/circuit.hpp"
#include "src/cnf/dimacs.hpp"

namespace hqs {

/// One quantified circuit input, in declaration order.  For existentials
/// `deps` holds the indices (into ParsedDqcir::inputs) of the universal
/// inputs the variable depends on; `exists()` variables get every
/// universal declared to their left, `free()` variables none.
struct DqcirInput {
    std::string name;
    Circuit::NodeId node = 0;
    bool universal = false;
    std::vector<std::size_t> deps;
};

/// Parse result: the gate DAG plus the quantified prefix over its inputs.
struct ParsedDqcir {
    Circuit circuit;
    std::vector<DqcirInput> inputs;
    Circuit::NodeId outputNode = 0;
    bool outputNegated = false;
    std::size_t gateCount = 0;
};

/// Parse DQCIR text.  Throws ParseError on malformed input; every error
/// branch has its own stable message prefix for the corrupt-corpus tests.
ParsedDqcir parseDqcir(std::istream& in);
ParsedDqcir parseDqcirFile(const std::string& path);
ParsedDqcir parseDqcirString(const std::string& text);

/// Content sniffing: true when @p text looks like a QCIR/DQCIR file
/// (first non-blank line is a '#QCIR' header) rather than (D)QDIMACS.
/// Cheap and read-only; the parser still validates properly.
bool looksLikeDqcir(const std::string& text);

/// True when a request with declared @p format ("dqcir", "dqdimacs", or ""
/// to sniff) carries circuit input: "dqcir" always, "" when @p text looks
/// like DQCIR.
bool isCircuitInput(const std::string& format, const std::string& text);

/// Lower a parsed circuit into CNF form: quantified inputs become the
/// leading CNF variables (declaration order), the gate cone is
/// Tseitin-encoded on top, Tseitin variables join a trailing `e` block
/// (they depend on every universal — sound, since each is functionally
/// determined by the inputs), and the output literal is asserted as a
/// unit clause.  The result feeds DqbfFormula::fromParsed unchanged.
ParsedQdimacs lowerDqcir(const ParsedDqcir& parsed);

} // namespace hqs
