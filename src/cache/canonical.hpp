// Canonical form and content hash for parsed DQDIMACS formulas.
//
// The result cache must recognize a formula it has solved before even when
// the bytes differ: PEC workloads re-submit the same instance with clauses
// reordered, literals shuffled inside clauses, variables renumbered, or
// dependency sets listed in a different order.  canonicalize() maps all of
// those presentations to one normal form:
//
//   * prefix semantics are resolved first (cert::normalizePrefix): `e`-block
//     variables get their implicit dependency set, `d` lines keep their
//     explicit one, unquantified matrix variables become existentials with
//     empty dependencies — so `e y` after `a x` and `d y x` collide;
//   * variables are renamed densely.  The renaming is chosen by color
//     refinement on the variable/clause incidence structure (quantifier
//     kind, dependency-set size, signed occurrence profile, refined through
//     the clauses for a few rounds), so it is invariant under variable
//     renumbering; ties between refinement-equivalent variables fall back
//     to first-occurrence order.  Automorphic ties render identical text
//     either way; a non-automorphic tie can at worst cause a false cache
//     MISS, never a false hit;
//   * literals are sorted within clauses, clauses are sorted and exact
//     duplicates dropped, dependency sets are sorted — all under the dense
//     renaming.
//
// The canonical key is a 128-bit hash (two independent 64-bit FNV-1a
// streams) of the rendered canonical text.  Equal keys are treated as equal
// formulas by the cache; the canonical text itself is available for the
// paranoid and for tests.
#pragma once

#include <cstdint>
#include <string>

#include "src/cnf/dimacs.hpp"

namespace hqs::cert {
struct NormalizedPrefix;
}

namespace hqs::cache {

/// 128-bit content hash of a canonical form.
struct CanonicalKey {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const CanonicalKey&) const = default;
    bool empty() const { return hi == 0 && lo == 0; }
};

/// 32 lowercase hex digits (hi then lo) — the persistent store's file stem.
std::string toHex(const CanonicalKey& key);

/// Inverse of toHex; false unless @p text is exactly 32 hex digits.
bool keyFromHex(const std::string& text, CanonicalKey* out);

struct CanonicalForm {
    CanonicalKey key;
    std::string text;        ///< rendered canonical DQDIMACS-like text
    std::size_t numVars = 0; ///< variables in the canonical form
    std::size_t numClauses = 0;
};

/// Canonicalize @p parsed and hash the rendered form.
CanonicalForm canonicalize(const ParsedQdimacs& parsed);
/// The same, over @p prefix = cert::normalizePrefix(parsed) computed once by
/// a caller that also needs it for cert::formulaHash.
CanonicalForm canonicalize(const ParsedQdimacs& parsed, const cert::NormalizedPrefix& prefix);

/// canonicalize(parsed).key without keeping the text.
CanonicalKey canonicalKey(const ParsedQdimacs& parsed);
CanonicalKey canonicalKey(const ParsedQdimacs& parsed, const cert::NormalizedPrefix& prefix);

} // namespace hqs::cache

template <>
struct std::hash<hqs::cache::CanonicalKey> {
    std::size_t operator()(const hqs::cache::CanonicalKey& k) const noexcept
    {
        return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
    }
};
