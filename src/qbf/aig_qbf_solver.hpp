// AIG-based QBF solver by quantifier elimination — our stand-in for
// AIGSOLVE [26], the backend HQS hands the linearized problem to.
//
// The solver repeatedly eliminates variables of the innermost block
// (∃v.phi = phi[0/v] | phi[1/v], ∀v.phi = phi[0/v] & phi[1/v]), interleaved
// with the Theorem-5/6 unit & pure eliminations, FRAIG sweeping and garbage
// collection of the DQBF loop: both loops run on ElimKernel.  The matrix
// lives in a caller-provided Aig manager, so HQS can "feed the remaining AIG
// directly into this solver" exactly as the paper describes.
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
