// CDCL SAT solver in the MiniSat tradition.
//
// Features: two-watched-literal propagation with blockers, first-UIP conflict
// analysis with recursive clause minimization, VSIDS variable activities with
// phase saving, Luby restarts, activity-based learnt-clause database
// reduction, and incremental solving under assumptions.
//
// This is the workhorse beneath the partial MaxSAT solver (variable-selection
// MaxSAT of HQS), FRAIG SAT-sweeping, and the instantiation-based DQBF
// baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/literal.hpp"
#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/cnf.hpp"

namespace hqs {

/// Counters exposed for benchmarking and the experiment harness.
struct SatStats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnts_deleted = 0;
};

class SatSolver {
public:
    SatSolver();
    ~SatSolver();
    SatSolver(const SatSolver&) = delete;
    SatSolver& operator=(const SatSolver&) = delete;

    /// Allocate a fresh variable and return it.
    Var newVar();
    /// Make sure variables 0..n-1 exist.
    void ensureVars(Var n);
    Var numVars() const;

    /// Add a clause.  Returns false iff the solver is now in a top-level
    /// conflict (the clause set is unsatisfiable regardless of assumptions).
    bool addClause(std::vector<Lit> lits);
    bool addClause(std::initializer_list<Lit> lits) { return addClause(std::vector<Lit>(lits)); }
    bool addClause(const Clause& c) { return addClause(c.lits()); }
    /// Add every clause of @p f (growing the variable range as needed).
    bool addCnf(const Cnf& f);

    /// Decide satisfiability under the given assumptions.
    /// Returns Sat, Unsat, Timeout (when @p deadline expires), or Unknown
    /// once this call has met @p conflictLimit conflicts (0 = no limit).
    SolveResult solve(const std::vector<Lit>& assumptions = {},
                      Deadline deadline = Deadline::unlimited(),
                      std::uint64_t conflictLimit = 0);

    /// Model access; valid after solve() returned Sat.
    lbool modelValue(Var v) const;
    lbool modelValue(Lit l) const;
    /// Model as a dense bool vector (Undef mapped to false).
    std::vector<bool> modelBools() const;

    /// True if addClause already derived top-level unsatisfiability.
    bool inConflict() const;

    /// Value of a literal in the current top-level (decision level 0)
    /// assignment; Undef when unassigned at level 0.
    lbool topLevelValue(Lit l) const;

    const SatStats& stats() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Reference oracle: decide @p f by enumerating all assignments.  Intended
/// for tests on small formulas only (numVars <= ~22).
bool bruteForceSat(const Cnf& f);

} // namespace hqs
