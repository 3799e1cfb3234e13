// Instantiation-based DQBF solver — our comparator standing in for iDQ [16].
//
// iDQ decides DQBF by instantiating the matrix into ground SAT problems in
// the style of Inst-Gen [17].  We implement the same algorithmic family as
// counterexample-guided expansion:
//
//   A := {}                         // set of universal assignments
//   loop:
//     F_A := clauses instantiated under every sigma in A, each existential
//            y renamed to the copy y_{sigma|D_y}
//     if F_A is UNSAT           -> the DQBF is UNSAT (F_A is implied)
//     else take the model as a partial Skolem table (unseen entries: 0)
//       and SAT-search a universal assignment falsifying the matrix under it
//     if none exists            -> SAT (the table, kept as AIG functions,
//                                  is the Skolem certificate)
//     else add the counterexample to A (strictly new, so <= 2^n iterations)
//
// Like iDQ it decides some instances with very few (even one) SAT calls and
// degrades when many instantiations are needed — the qualitative behaviour
// Table I and Fig. 4 compare HQS against.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/skolem_recorder.hpp"

namespace hqs {

struct IdqOptions {
    Deadline deadline = Deadline::unlimited();
    /// Proxy for the paper's 8 GB memout: abort when the ground instance
    /// exceeds this many instantiated clauses (0 = unlimited).
    std::size_t groundClauseLimit = 0;
};

struct IdqStats {
    std::size_t iterations = 0;          ///< CEGAR refinement rounds
    std::size_t instantiations = 0;      ///< universal assignments in A
    std::size_t groundClauses = 0;       ///< clauses in the ground instance
    std::size_t existentialCopies = 0;   ///< distinct y_tau copies created
};

class IdqSolver {
public:
    explicit IdqSolver(IdqOptions opts = {}) : opts_(opts) {}

    SolveResult solve(const DqbfFormula& f);

    const IdqStats& stats() const { return stats_; }

    /// After solve() returned Sat: the final candidate table as AIG
    /// functions (validated by the last counterexample check), one per
    /// existential, for cert::extractCertificate.
    const std::optional<AigSkolemCertificate>& skolemCertificate() const { return skolem_; }

private:
    IdqOptions opts_;
    IdqStats stats_;
    std::optional<AigSkolemCertificate> skolem_;
};

} // namespace hqs
