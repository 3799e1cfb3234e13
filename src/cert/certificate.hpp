// Self-contained Skolem certificates for DQBF SAT verdicts.
//
// A certificate embeds everything needed to re-judge a SAT answer without
// trusting the solver: the original prefix and matrix (DQDIMACS text), a
// hash binding the certificate to that formula, and one Skolem function per
// existential variable as an ASCII-AIGER (`aag`) block.  The checker in
// this library validates a certificate with a single SAT call: substitute
// the Skolem functions into the matrix, check each function's support is
// inside its declared dependency set structurally, and assert the negation
// of the substituted matrix is unsatisfiable.
//
// Trust model: this library (and the `dqbf_check` binary built on it) links
// only the AIG kernel, the DIMACS/AIGER readers, the CNF bridge, and the
// SAT backend — none of the DQBF/QBF solver code.  A bug in the solver can
// therefore produce a rejected certificate, but never a wrongly accepted
// one (short of an independent bug in the much smaller checker core).
//
// Artifact layout (line-oriented ASCII, see DESIGN.md §8):
//
//   dqbf-cert 1
//   hash <16 lowercase hex digits>
//   verdict SAT
//   formula <number of DQDIMACS lines>
//   <embedded DQDIMACS text>
//   skolem <number of functions>
//   <aag block as written by writeAiger, including the i<k> v<var> symbol
//    table mapping AIGER inputs back to original variables>
//   end dqbf-cert
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/aig/aig.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/dimacs.hpp"

namespace hqs::cert {

/// The prefix of a parsed (D)QDIMACS file, normalized to the solver's
/// semantics: `a` blocks declare universals in order; an `e`-block variable
/// depends on every universal to its left; `d` lines give explicit
/// dependency sets; matrix variables left unquantified become existentials
/// with empty dependencies.  Existential order is declaration order — the
/// certificate's function order.
struct NormalizedPrefix {
    std::vector<Var> universals;
    std::vector<Var> existentials;
    std::vector<std::vector<Var>> deps; ///< per existential, sorted ascending
};

NormalizedPrefix normalizePrefix(const ParsedQdimacs& parsed);

/// Order-independent 64-bit FNV-1a hash of the normalized prefix and the
/// matrix, binding a certificate to one formula.
std::uint64_t formulaHash(const ParsedQdimacs& parsed);
/// The same, over @p prefix = normalizePrefix(parsed) computed once by a
/// caller that also needs it for cache::canonicalKey.
std::uint64_t formulaHash(const ParsedQdimacs& parsed, const NormalizedPrefix& prefix);

/// An in-memory certificate.  `functions` are edges into `aig` over the
/// formula's variable numbering, one per normalized existential, in order.
struct Certificate {
    std::uint64_t hash = 0;
    ParsedQdimacs formula;
    std::shared_ptr<Aig> aig;
    std::vector<AigEdge> functions;
};

void writeCertificate(std::ostream& os, const Certificate& cert);
std::string toCertificateString(const Certificate& cert);

/// Outcome of parsing or checking a certificate, most severe first.
enum class CheckStatus {
    Ok,
    Truncated,           ///< file ends before the artifact is complete
    BadFormat,           ///< malformed header, formula, or aag section
    HashMismatch,        ///< embedded hash does not match the embedded formula
    MissingFunction,     ///< fewer functions than existentials
    DependencyViolation, ///< a function's support leaves its dependency set
    Refuted,             ///< substituted matrix is falsifiable
    SolverTimeout,       ///< the single SAT call hit the deadline
};

const char* toString(CheckStatus s);

/// Parse a certificate artifact.  Returns Ok and fills @p out, or
/// Truncated/BadFormat with a one-line explanation in @p detail.
CheckStatus parseCertificate(std::istream& is, Certificate& out, std::string& detail);
CheckStatus parseCertificateString(const std::string& text, Certificate& out,
                                   std::string& detail);
CheckStatus parseCertificateFile(const std::string& path, Certificate& out,
                                 std::string& detail);

struct CheckResult {
    CheckStatus status = CheckStatus::Ok;
    std::string detail;         ///< human-readable reason when not Ok
    double checkMs = 0;         ///< wall time of checkCertificate
    std::size_t sizeNodes = 0;  ///< AND nodes across all function cones

    bool ok() const { return status == CheckStatus::Ok; }
};

/// Validate @p cert end to end: hash binding, function coverage, structural
/// support ⊆ dependency-set checks, and one SAT call asserting the negation
/// of the substituted matrix is unsatisfiable.
CheckResult checkCertificate(const Certificate& cert,
                             Deadline deadline = Deadline::unlimited());

/// Parse then check a serialized artifact: the one "is this text a valid
/// certificate" call every front end makes.  A parse failure comes back
/// as the result's status and detail.
CheckResult checkCertificateText(const std::string& text,
                                 Deadline deadline = Deadline::unlimited());

/// AND nodes in the union of the cones of @p outputs (certificate size).
std::size_t countAndNodes(const Aig& aig, const std::vector<AigEdge>& outputs);

} // namespace hqs::cert
