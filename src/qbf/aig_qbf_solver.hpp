// AIG-based QBF solver by quantifier elimination — our stand-in for
// AIGSOLVE [26], the backend HQS hands the linearized problem to.
//
// The solver repeatedly eliminates variables of the innermost block
// (∃v.phi = phi[0/v] | phi[1/v], ∀v.phi = phi[0/v] & phi[1/v]), interleaved
// with the Theorem-5/6 unit & pure eliminations, FRAIG sweeping and garbage
// collection of the DQBF loop: both loops run on ElimKernel.  The matrix
// lives in a caller-provided Aig manager, so HQS can "feed the remaining AIG
// directly into this solver" exactly as the paper describes.
//
// The elimination order within a block is picked by a measured trial
// (DESIGN §14).  Two measures name a candidate each step:
//   * A: the variable with the fewest occurrences (AND nodes reading it);
//   * B: the variable with the smallest dependent cone (AND nodes whose
//     support contains it, Aig::dependentCounts), ties by occurrences.
// Ties then fall to block order.  At the first step of a block where A and
// B differ, the solver builds A's elimination in full and B's with a cap
// on its cofactor pass: B's untouched nodes (cone − dep(B)) stay shared,
// so once B has allocated more than cone(A) − (cone − dep(B)) new nodes it
// is not expected to come out smaller, and the pass stops.  The smaller
// result is committed and its measure orders the rest of the block.  A
// losing B was built last and is released at once (Aig::releaseSince); a
// losing A may share nodes with B and is garbage for the next collection.
// Only the committed elimination reaches the
// Skolem recorder (one Exists record per eliminated existential) and the
// qbf.elim.* counters; qbf.order.trials and qbf.order.capped count the
// trials and the capped B builds.
#pragma once

#include <cstddef>

#include "src/aig/aig.hpp"
#include "src/base/result.hpp"
#include "src/qbf/elim_kernel.hpp"
#include "src/qbf/qbf_prefix.hpp"

namespace hqs {

/// The backend's options are the kernel's limits plus the Skolem recorder.
struct AigQbfOptions : ElimLimits {
    /// When set, existential eliminations are logged for Skolem
    /// reconstruction (see src/dqbf/skolem_recorder.hpp).
    SkolemRecorder* recorder = nullptr;
};

struct AigQbfStats : ElimStats {
    std::size_t existentialEliminations = 0;
    std::size_t universalEliminations = 0;
    std::size_t orderTrials = 0; ///< blocks whose order a trial decided
    std::size_t orderCapped = 0; ///< trials whose candidate B hit its cap
};

class AigQbfSolver {
public:
    explicit AigQbfSolver(AigQbfOptions opts = {}) : opts_(opts) {}

    /// Decide the closed QBF `prefix : matrix`.  Free matrix variables (in
    /// the support but not the prefix) are treated as outermost
    /// existentials.
    SolveResult solve(Aig& aig, AigEdge matrix, QbfPrefix prefix);

    const AigQbfStats& stats() const { return stats_; }

private:
    AigQbfOptions opts_;
    AigQbfStats stats_;
};

} // namespace hqs
