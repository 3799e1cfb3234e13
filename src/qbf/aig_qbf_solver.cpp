#include "src/qbf/aig_qbf_solver.hpp"

#include <limits>
#include <vector>

#include "src/aig/cnf_bridge.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {

SolveResult AigQbfSolver::solve(Aig& aig, AigEdge root, QbfPrefix prefix)
{
    OBS_SPAN(qbfSpan, "qbf.aig_eliminate");
    stats_ = AigQbfStats{};
    // A fresh kernel per solve: the FRAIG high-water mark starts at zero.
    ElimKernel kernel(aig, root, opts_, opts_.recorder, stats_);
    AigEdge& matrix = kernel.matrix();
    const PrefixOps ops = prefixOps(prefix);

    kernel.trackPeak();
    if (SolveResult r = kernel.unitPurePass(ops); r != SolveResult::Unknown) return r;

    while (!prefix.empty() && !kernel.isConstant()) {
        if (SolveResult r = kernel.housekeeping(); r != SolveResult::Unknown) return r;

        const QbfBlock& block = prefix.blocks().back();
        const UnitPureInfo& scan = kernel.scan();

        // Drop block variables that no longer occur; pick the cheapest
        // occurring one.
        Var pick = kNoVar;
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        std::vector<Var> unsupported;
        for (Var v : block.vars) {
            const std::uint32_t count = scan.occurrencesOf(v);
            if (count == 0) {
                unsupported.push_back(v);
            } else if (count < best) {
                best = count;
                pick = v;
            }
        }
        for (Var v : unsupported) kernel.dropUnsupported(v, ops);
        if (pick == kNoVar) continue; // whole block vanished

        if (prefix.kindOf(pick) == QuantKind::Exists) {
            if (SolveResult r = kernel.eliminateExists(pick); r != SolveResult::Unknown) return r;
            ++stats_.existentialEliminations;
            OBS_COUNT("qbf.elim.existential", 1);
        } else {
            if (SolveResult r = kernel.eliminateForall(pick); r != SolveResult::Unknown) return r;
            ++stats_.universalEliminations;
            OBS_COUNT("qbf.elim.universal", 1);
        }
        prefix.removeVar(pick);
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
