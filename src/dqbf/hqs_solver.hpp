// HQS — the paper's elimination-based DQBF solver (Fig. 3).
//
// Pipeline: CNF preprocessing (units, universal reduction, equivalences,
// gate detection) -> AIG construction with gate composition -> partial
// MaxSAT selection of a minimum universal elimination set (Eq. 1/2) ->
// main loop interleaving Theorem-5/6 unit & pure elimination, Theorem-2
// existential elimination, and Theorem-1 universal elimination of the
// selected variables (cheapest first) -> once the dependency graph is
// acyclic (Theorem 3/4), linearize the prefix and hand the AIG to the
// QBF backend.
#pragma once

#include <string>

#include <optional>

#include "src/aig/aig.hpp"
#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/preprocess.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/qbf/aig_qbf_solver.hpp"

namespace hqs {

struct HqsOptions {
    /// CNF preprocessing before the AIG is built.
    bool preprocess = true;
    /// Tseitin gate detection (sub-switch of preprocessing).
    bool gateDetection = true;
    /// Theorem-6 unit/pure detection in the main loop.
    bool unitPure = true;
    /// SAT probe after preprocessing: check the existential abstraction
    /// (all variables existential) with the CDCL solver; if it is UNSAT the
    /// DQBF is UNSAT.  This is the improvement Section IV proposes for the
    /// instances iDQ refutes with a single SAT call.
    bool satProbe = true;
    /// Wall-clock budget for the SAT probe.
    double satProbeSeconds = 0.1;

    /// How the set of universals to eliminate is chosen.
    enum class Selection {
        MaxSat, ///< minimum set via partial MaxSAT (Eq. 1/2) — the paper's HQS
        Greedy, ///< greedy hitting-set heuristic (ablation)
        All,    ///< eliminate every universal, as in the paper's predecessor [10]
    };
    Selection selection = Selection::MaxSat;

    /// FRAIG sweeping during the main loop and the backend.  A sweep is a
    /// node-budget step (ElimLimits::fraig), so it only runs under a
    /// nodeLimit.
    bool fraig = true;
    /// Live-AIG-node budget standing in for the paper's 8 GB memout
    /// (0 = none).  Compared against *live* nodes: when the pool crosses
    /// the limit the solver garbage-collects first and only reports Memout
    /// if the reachable graph itself is over budget — a shrinking AIG with
    /// a large allocation history never trips it.
    std::size_t nodeLimit = 0;
    Deadline deadline = Deadline::unlimited();

    /// Backend for the linearized QBF.  BddElimination converts the AIG
    /// matrix into a ROBDD and quantifies there — the canonical-structure
    /// ablation partner of the default AIG backend.
    enum class Backend { AigElimination, BddElimination };
    Backend backend = Backend::AigElimination;

    /// Record the elimination trace and, on Sat, reconstruct Skolem
    /// functions for every original existential (retrievable via
    /// skolemCertificate()).  Runs the AIG backend whatever `backend` says
    /// and keeps cofactor snapshots alive, so it costs memory.
    bool computeSkolem = false;
};

/// peakConeSize and unitPureMilliseconds include the QBF backend (qbfStats).
struct HqsStats : ElimStats {
    PreprocessStats preprocess;

    std::size_t incomparablePairs = 0;  ///< binary cycles before selection
    std::size_t selectedUniversals = 0; ///< size of the elimination set
    double maxsatMilliseconds = 0.0;

    std::size_t universalsEliminated = 0;   ///< Theorem-1 eliminations
    std::size_t existentialsEliminated = 0; ///< Theorem-2 eliminations
    std::size_t copiesIntroduced = 0;       ///< fresh y' copies from Theorem 1
    double totalMilliseconds = 0.0;

    /// Snapshot of the AIG manager's kernel counters at the end of solve
    /// (strash probes/resizes, GC runs, peak live nodes).
    AigKernelStats aigKernel;

    bool usedQbfBackend = false;
    AigQbfStats qbfStats;
    /// Which stage concluded: "preprocess", "elimination", or "qbf-backend".
    std::string decidedBy;
};

/// PrefixOps over a DQBF prefix; @p f must outlive the result.
PrefixOps prefixOps(DqbfFormula& f);

class HqsSolver {
public:
    explicit HqsSolver(HqsOptions opts = {}) : opts_(opts) {}

    /// Decide the DQBF.  The formula is taken by value: solving mutates it.
    SolveResult solve(DqbfFormula f);

    const HqsStats& stats() const { return stats_; }

    /// Skolem certificate for the last Sat answer; populated only when
    /// options.computeSkolem was set.
    const std::optional<AigSkolemCertificate>& skolemCertificate() const
    {
        return skolemCertificate_;
    }

private:
    HqsOptions opts_;
    HqsStats stats_;
    std::optional<AigSkolemCertificate> skolemCertificate_;
};

} // namespace hqs
