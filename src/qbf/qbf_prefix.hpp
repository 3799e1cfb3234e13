// Quantifier prefixes for QBF: an alternating sequence of quantifier blocks
// over disjoint variable sets (Definition 3 of the paper).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/base/literal.hpp"
#include "src/cnf/dimacs.hpp"

namespace hqs {

/// One quantifier block: a maximal run of equally quantified variables.
struct QbfBlock {
    QuantKind kind;
    std::vector<Var> vars;

    bool operator==(const QbfBlock&) const = default;
};

/// A linear quantifier prefix.  Adjacent same-kind blocks are merged on
/// insertion; empty blocks are dropped.  A Var -> block index makes
/// contains and kindOf O(1) and removeVar O(block size).
class QbfPrefix {
public:
    QbfPrefix() = default;

    /// Append a block at the innermost position.
    void addBlock(QuantKind kind, std::vector<Var> vars);
    /// Append a single variable at the innermost position.
    void addVar(QuantKind kind, Var v) { addBlock(kind, {v}); }

    const std::vector<QbfBlock>& blocks() const { return blocks_; }
    std::size_t numBlocks() const { return blocks_.size(); }
    bool empty() const { return blocks_.empty(); }

    /// Total number of quantified variables.
    std::size_t numVars() const;

    /// Quantifier of @p v; kNoVar-safe: returns false when not quantified.
    bool contains(Var v) const;
    /// Precondition: contains(v).
    QuantKind kindOf(Var v) const;

    /// Number of quantifier alternations (blocks - 1, 0 for empty).
    std::size_t numAlternations() const { return blocks_.empty() ? 0 : blocks_.size() - 1; }

    /// Remove a variable from the prefix (e.g., after elimination); merges
    /// neighbouring blocks if one becomes empty.
    void removeVar(Var v);

    /// Same blocks in the same order (the index follows from them).
    bool operator==(const QbfPrefix& o) const { return blocks_ == o.blocks_; }

private:
    /// Rebuild the index after blocks moved (the outermost copy wins).
    void reindex();

    std::vector<QbfBlock> blocks_;
    /// Var -> 1 + index of the outermost block holding it (0: none).
    std::vector<std::uint32_t> blockOf_;
    /// Some variable was added twice (malformed input): removing one copy
    /// re-points the index at the next.
    bool repeats_ = false;
};

/// A QBF decision problem: prefix + CNF matrix.  Free matrix variables are
/// implicitly existential and outermost (QDIMACS convention).
struct QbfProblem {
    QbfPrefix prefix;
    Cnf matrix;
};

/// Build a QbfProblem from parsed (Q)DIMACS.  Throws ParseError when the
/// input has Henkin (`d`) lines — that would be a DQBF.
QbfProblem qbfFromParsed(const ParsedQdimacs& parsed);

std::ostream& operator<<(std::ostream& os, const QbfPrefix& p);

} // namespace hqs
