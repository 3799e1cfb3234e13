#include "src/qbf/aig_qbf_solver.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {

namespace {

/// The measure that orders the rest of the innermost block (see the header).
enum class Measure { Undecided, Occurrences, DependentCone };

/// The i < n with the smallest key(i); ties go to the earliest, i.e. to
/// block order.
template <class Key>
std::size_t argmin(std::size_t n, Key&& key)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (key(i) < key(best)) best = i;
    }
    return best;
}

} // namespace

SolveResult AigQbfSolver::solve(Aig& aig, AigEdge root, QbfPrefix prefix)
{
    OBS_SPAN(qbfSpan, "qbf.aig_eliminate");
    stats_ = AigQbfStats{};
    // A fresh kernel per solve: the FRAIG high-water mark starts at zero.
    ElimKernel kernel(aig, root, opts_, opts_.recorder, stats_);
    AigEdge& matrix = kernel.matrix();
    const PrefixOps ops = prefixOps(prefix);

    Measure measure = Measure::Undecided;
    std::size_t blocksSeen = prefix.numBlocks();
    std::vector<Var> candidates;
    std::vector<Var> unsupported;
    std::vector<std::uint32_t> dependents;

    kernel.trackPeak();
    if (SolveResult r = kernel.unitPurePass(ops); r != SolveResult::Unknown) return r;

    while (!prefix.empty() && !kernel.isConstant()) {
        if (SolveResult r = kernel.housekeeping(); r != SolveResult::Unknown) return r;
        // A new innermost block decides its measure afresh.
        if (prefix.numBlocks() != blocksSeen) {
            blocksSeen = prefix.numBlocks();
            measure = Measure::Undecided;
        }

        // Drop block variables that no longer occur; the rest are the
        // candidates, in block order.
        const UnitPureInfo& scan = kernel.scan();
        const QuantKind kind = prefix.blocks().back().kind;
        candidates.clear();
        unsupported.clear();
        for (Var v : prefix.blocks().back().vars)
            (scan.occurrencesOf(v) == 0 ? unsupported : candidates).push_back(v);
        for (Var v : unsupported) kernel.dropUnsupported(v, ops);
        if (candidates.empty()) continue; // whole block vanished

        // Candidate A: fewest occurrences.  Candidate B: smallest dependent
        // cone, ties by occurrences.
        const auto occurrences = [&](std::size_t i) { return scan.occurrencesOf(candidates[i]); };
        const std::size_t a = argmin(candidates.size(), occurrences);
        std::size_t b = a;
        if (measure != Measure::Occurrences) {
            aig.dependentCounts(scan.cone, candidates, dependents);
            b = argmin(candidates.size(),
                       [&](std::size_t i) { return std::pair(dependents[i], occurrences(i)); });
        }

        BuiltElimination kept;
        if (measure == Measure::Undecided && a != b) {
            // The trial: A in full, then B capped where it can no longer
            // come out smaller; the smaller result orders the rest of the
            // block.
            if (SolveResult r = kernel.build(candidates[a], kind, kept);
                r != SolveResult::Unknown)
                return r;
            const std::size_t coneA = aig.coneSize(kept.matrix);
            const std::size_t untouched = scan.coneSize - dependents[b];
            const std::size_t mark = aig.numNodes();
            BuiltElimination trial;
            if (SolveResult r = kernel.build(candidates[b], kind, trial,
                                             coneA > untouched ? coneA - untouched : 0);
                r != SolveResult::Unknown)
                return r;
            ++stats_.orderTrials;
            OBS_COUNT("qbf.order.trials", 1);
            if (!trial.built()) {
                ++stats_.orderCapped;
                OBS_COUNT("qbf.order.capped", 1);
            }
            const bool bWins = trial.built() && aig.coneSize(trial.matrix) < coneA;
            measure = bWins ? Measure::DependentCone : Measure::Occurrences;
            // B was built last, so everything from the mark on is B's
            // alone; a winning B may share A's nodes, which stay garbage.
            if (bWins) kept = trial;
            else aig.releaseSince(mark);
        } else {
            const Var pick = candidates[measure == Measure::DependentCone ? b : a];
            if (SolveResult r = kernel.build(pick, kind, kept); r != SolveResult::Unknown) return r;
        }
        kernel.commit(kept);

        if (kind == QuantKind::Exists) {
            ++stats_.existentialEliminations;
            OBS_COUNT("qbf.elim.existential", 1);
        } else {
            ++stats_.universalEliminations;
            OBS_COUNT("qbf.elim.universal", 1);
        }
        prefix.removeVar(kept.var);
        kernel.trackPeak();

        if (SolveResult r = kernel.unitPurePass(ops); r != SolveResult::Unknown) return r;
    }

    if (kernel.isConstant()) return kernel.constantResult();
    // Prefix exhausted, non-constant matrix: remaining support variables are
    // free, i.e. outermost existentials — a non-constant function is
    // satisfiable.  For Skolem tracking, pin them to values from a model.
    if (opts_.recorder) {
        SatSolver sat;
        AigCnfBridge bridge(aig, sat);
        const Lit out = bridge.litFor(matrix);
        if (sat.solve({out}, opts_.deadline) != SolveResult::Sat) {
            return deadlineExceededResult(opts_.deadline); // deadline hit mid-certification
        }
        for (Var v : aig.support(matrix)) {
            const lbool val = sat.modelValue(bridge.satVarForInput(v));
            opts_.recorder->record(SkolemRecorder::Constant{v, val.isTrue()});
        }
    }
    return SolveResult::Sat;
}

} // namespace hqs
