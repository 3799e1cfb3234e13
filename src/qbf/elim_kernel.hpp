// The elimination kernel shared by the HQS main loop (Fig. 3) and the AIG
// QBF backend it hands the linearized AIG to.  It owns the matrix edge in
// the caller's Aig manager (a GC root), the optional Skolem recorder, the
// limits and the FRAIG trigger; the caller's prefix (DQBF or linear QBF)
// reaches it through PrefixOps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "src/aig/aig.hpp"
#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/qbf/qbf_prefix.hpp"

namespace hqs {

class SkolemRecorder;

struct ElimLimits {
    /// Detect & eliminate unit/pure variables between eliminations.
    bool unitPure = true;
    /// FRAIG SAT sweeping as a node-budget step (DESIGN §14): sweep a cone
    /// past nodeLimit/8 that has doubled since the last sweep, and once
    /// more before judging a cone over nodeLimit.  Without a budget there
    /// is no memout to avert and no sweep runs.
    bool fraig = true;
    /// Live-AIG-node budget (0 = unlimited), the proxy for the paper's 8 GB
    /// memory limit.  Checked against the matrix cone and — after a garbage
    /// collection — the node pool, so stranded allocations never trip it.
    std::size_t nodeLimit = 0;
    Deadline deadline = Deadline::unlimited();
};

/// The counters the kernel keeps; both solvers' statistics extend it.
struct ElimStats {
    std::size_t unitEliminations = 0;
    std::size_t pureEliminations = 0;
    std::size_t droppedUnsupported = 0; ///< prefix vars absent from the matrix
    double unitPureMilliseconds = 0.0;
    std::size_t fraigRuns = 0;
    std::size_t peakConeSize = 0;
    std::size_t scans = 0; ///< matrix walks by ElimKernel::scan (cache misses)
};

/// The caller's prefix as the kernel sees it: "how is v quantified now"
/// (nullopt once v has left the prefix) and "remove v".
struct PrefixOps {
    std::function<std::optional<QuantKind>(Var)> kindOf;
    std::function<void(Var)> remove;
};

/// PrefixOps over a linear QBF prefix; @p prefix must outlive the result.
PrefixOps prefixOps(QbfPrefix& prefix);

class ElimKernel {
public:
    /// @p recorder (optional) and @p stats must outlive the kernel.
    ElimKernel(Aig& aig, AigEdge matrix, const ElimLimits& limits, SkolemRecorder* recorder,
               ElimStats& stats)
        : aig_(aig), matrix_(matrix), limits_(limits), recorder_(recorder), stats_(stats)
    {
    }

    AigEdge& matrix() { return matrix_; }
    bool isConstant() const { return aig_.isConstant(matrix_); }
    /// Precondition: isConstant().
    SolveResult constantResult() const
    {
        return aig_.constantValue(matrix_) ? SolveResult::Sat : SolveResult::Unsat;
    }

    /// The Theorem-6 walk of the current matrix (unit/pure lists, cone size,
    /// occurrence counts, cone list), cached until the matrix edge or the
    /// manager's GC generation changes; the kernel's own GC re-keys it and
    /// remaps its cone list (DESIGN §14).  Refilled in place, so the lists
    /// keep their capacity from scan to scan.
    /// The result describes the matrix until the matrix changes.
    const UnitPureInfo& scan();

    /// Fold the matrix cone into peakConeSize and the `aig.peak_cone` gauge;
    /// returns the cone size.
    std::size_t trackPeak();
    /// Between eliminations: peak, deadline, FRAIG, node budget, GC.
    /// Unknown to continue, else the final resource-limit result.
    SolveResult housekeeping();
    /// Each cofactor leaves O(cone) garbage; collect when it dominates.
    void collectIfBloated();

    /// Theorem 5 on Theorem-6 detections to a fixpoint, each detection
    /// applied whole through one substitution.  Unsat on a universal unit,
    /// Unknown otherwise.
    SolveResult unitPurePass(const PrefixOps& prefix);
    /// ∃v.phi = phi[0/v] | phi[1/v], recording phi[1/v] for Skolem
    /// reconstruction.  Unknown when done, and the caller removes @p v from
    /// its prefix; the deadline result, matrix unchanged, when the deadline
    /// expires inside a cofactor rebuild.
    SolveResult eliminateExists(Var v);
    /// ∀v.phi = phi[0/v] & phi[1/v]; results as for eliminateExists.
    /// With @p renameHigh the second conjunct is phi[1/v][renameHigh]:
    /// Theorem 1's phi[0/x] & phi[1/x][y'/y], still one pass.
    SolveResult eliminateForall(Var v, const Substitution* renameHigh = nullptr);
    /// Remove @p v, absent from the matrix, from the prefix; an existential
    /// is pinned to false in the Skolem trace.
    void dropUnsupported(Var v, const PrefixOps& prefix);

private:
    /// phi[0/v] and phi[1/v][renameHigh] under the deadline (nullopt once
    /// it expires), one pass over scan().cone.
    std::optional<std::pair<AigEdge, AigEdge>> cofactors(Var v,
                                                         const Substitution* renameHigh = nullptr);
    /// Mark-compact, keeping the matrix and the recorder's cofactors.
    void collectGarbage();
    /// FRAIG-reduce the matrix; returns the swept cone's size.
    std::size_t sweep(bool overBudget);
    /// Does scan_ describe the current matrix?
    bool scanCurrent() const
    {
        return scanEdge_ == matrix_ && scanGcRun_ == aig_.kernelStats().gcRuns;
    }

    Aig& aig_;
    AigEdge matrix_;
    ElimLimits limits_;
    SkolemRecorder* recorder_;
    ElimStats& stats_;
    std::size_t lastFraigSize_ = 0; ///< cone size after the last sweep
    UnitPureInfo scan_;
    AigEdge scanEdge_;            ///< matrix scan_ describes (invalid: none)
    std::uint64_t scanGcRun_ = 0; ///< kernelStats().gcRuns when scanned
};

} // namespace hqs
