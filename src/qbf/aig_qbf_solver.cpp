#include "src/qbf/aig_qbf_solver.hpp"

#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/aig/cnf_bridge.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

/// Occurrence count (number of AND-node fanin references) of every variable
/// in the cone of @p root.  Variables with no entry do not occur.
std::unordered_map<Var, std::size_t> occurrenceCounts(const Aig& aig, AigEdge root)
{
    std::unordered_map<Var, std::size_t> counts;
    if (aig.isConstant(root)) return counts;
    if (aig.isInput(root)) {
        counts[aig.inputVariable(root)] = 1;
        return counts;
    }
    std::unordered_set<std::uint32_t> visited;
    std::vector<AigEdge> stack{root};
    while (!stack.empty()) {
        const AigEdge e = stack.back();
        stack.pop_back();
        if (!visited.insert(e.nodeIndex()).second) continue;
        if (!aig.isAnd(e)) continue;
        for (const AigEdge f : {aig.fanin0(e), aig.fanin1(e)}) {
            if (aig.isConstant(f)) continue;
            if (aig.isInput(f)) {
                ++counts[aig.inputVariable(f)];
            } else {
                stack.push_back(f);
            }
        }
    }
    return counts;
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

    kernel.trackPeak();
    if (SolveResult r = kernel.unitPurePass(ops); r != SolveResult::Unknown) return r;

    while (!prefix.empty() && !kernel.isConstant()) {
        if (SolveResult r = kernel.housekeeping(); r != SolveResult::Unknown) return r;

        const QbfBlock& block = prefix.blocks().back();
        const auto counts = occurrenceCounts(aig, matrix);

        // Drop block variables that no longer occur; pick the cheapest
        // occurring one.
        Var pick = kNoVar;
        std::size_t best = std::numeric_limits<std::size_t>::max();
        std::vector<Var> unsupported;
        for (Var v : block.vars) {
            auto it = counts.find(v);
            if (it == counts.end()) {
                unsupported.push_back(v);
            } else if (it->second < best) {
                best = it->second;
                pick = v;
            }
        }
        for (Var v : unsupported) kernel.dropUnsupported(v, ops);
        if (pick == kNoVar) continue; // whole block vanished

        if (prefix.kindOf(pick) == QuantKind::Exists) {
            kernel.eliminateExists(pick);
            ++stats_.existentialEliminations;
            OBS_COUNT("qbf.elim.existential", 1);
        } else {
            matrix = aig.forallVar(matrix, pick);
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
