// The elimination kernel shared by the HQS main loop (Fig. 3) and the AIG
// QBF backend it hands the linearized AIG to.  It owns the matrix edge in
// the caller's Aig manager (a GC root), the optional Skolem recorder, the
// limits, the FRAIG trigger and the collection rule; the caller's prefix
// (DQBF or linear QBF) reaches it through PrefixOps.  It times its scans,
// cofactor-pair builds and collections and publishes them once, when it is
// destroyed, as the exclusive phase.elim.{scan,build,gc}.us counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

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

/// One elimination built by ElimKernel::build and not applied yet.
struct BuiltElimination {
    Var var = kNoVar;
    QuantKind kind = QuantKind::Exists;
    /// The matrix after the elimination; invalid when the build stopped at
    /// its cap.
    AigEdge matrix;
    /// phi[1/var] (renamed for Theorem 1), an existential's Skolem record.
    AigEdge high;

    bool built() const { return matrix.isValid(); }
};

class ElimKernel {
public:
    /// @p recorder (optional) and @p stats must outlive the kernel.
    ElimKernel(Aig& aig, AigEdge matrix, const ElimLimits& limits, SkolemRecorder* recorder,
               ElimStats& stats)
        : aig_(aig), matrix_(matrix), limits_(limits), recorder_(recorder), stats_(stats)
    {
    }
    ElimKernel(const ElimKernel&) = delete;
    ElimKernel& operator=(const ElimKernel&) = delete;
    /// Publishes the phase.elim.{scan,build,gc}.us counters.
    ~ElimKernel();

    /// The garbage a pool may hold beyond one live cone before
    /// collectIfBloated collects.
    static constexpr std::size_t kCollectSlack = 512;

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
    /// Each cofactor leaves O(cone) garbage; collect once the garbage
    /// outgrows the live cone, i.e. when the pool holds more than
    /// 2 * cone + retained + kCollectSlack nodes, where cone counts the
    /// matrix cone's nodes (scan().cone) and retained the nodes the last
    /// collection kept outside it (the constant, the recorder's cofactors).
    /// Every kernel pass then costs the cone, not the pool.
    void collectIfBloated();

    /// Theorem 5 on Theorem-6 detections to a fixpoint, each detection
    /// applied whole through one substitution.  Unsat on a universal unit,
    /// Unknown otherwise.
    SolveResult unitPurePass(const PrefixOps& prefix);
    /// Build ∃v.phi = phi[0/v] | phi[1/v] (@p kind Exists) or
    /// ∀v.phi = phi[0/v] & phi[1/v] (Forall) into @p out without applying
    /// it: the matrix and the Skolem trace stay as they are.  With
    /// @p renameHigh the second cofactor is phi[1/v][renameHigh]: Theorem
    /// 1's phi[0/x] & phi[1/x][y'/y], still one pass.  With @p cap the
    /// cofactor pass stops once it has allocated more than @p cap nodes
    /// (Aig::cofactorPair) and @p out comes back unbuilt.  Unknown when
    /// built or capped; the deadline result when the deadline expires
    /// inside the rebuild.  A losing build is garbage for the next
    /// collection, unless the caller releases it (Aig::releaseSince).
    SolveResult build(Var v, QuantKind kind, BuiltElimination& out,
                      std::size_t cap = Aig::kNoCap, const Substitution* renameHigh = nullptr);
    /// Apply @p e, built from the current matrix: the matrix becomes
    /// e.matrix, and an existential gets its one Exists record (phi[1/v])
    /// for Skolem reconstruction.  The caller removes e.var from its prefix.
    void commit(const BuiltElimination& e);
    /// build + commit of ∃v: Unknown when done; the deadline result, matrix
    /// unchanged, when the deadline expires inside the rebuild.
    SolveResult eliminateExists(Var v);
    /// build + commit of ∀v (with @p renameHigh as for build); results as
    /// for eliminateExists.
    SolveResult eliminateForall(Var v, const Substitution* renameHigh = nullptr);
    /// Remove @p v, absent from the matrix, from the prefix; an existential
    /// is pinned to false in the Skolem trace.
    void dropUnsupported(Var v, const PrefixOps& prefix);

private:
    /// build + commit without a cap.
    SolveResult eliminate(Var v, QuantKind kind, const Substitution* renameHigh);
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
    /// Nodes the last collection kept outside the matrix cone.
    std::size_t retained_ = 1;
    /// Wall time in scans, cofactor-pair builds and collections (ns).
    std::uint64_t scanNs_ = 0;
    std::uint64_t buildNs_ = 0;
    std::uint64_t gcNs_ = 0;
    UnitPureInfo scan_;
    AigEdge scanEdge_;            ///< matrix scan_ describes (invalid: none)
    std::uint64_t scanGcRun_ = 0; ///< kernelStats().gcRuns when scanned
};

} // namespace hqs
