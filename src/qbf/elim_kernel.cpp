#include "src/qbf/elim_kernel.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/aig/fraig.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

PrefixOps prefixOps(QbfPrefix& prefix)
{
    return {[&prefix](Var v) {
                return prefix.contains(v) ? std::optional(prefix.kindOf(v)) : std::nullopt;
            },
            [&prefix](Var v) { prefix.removeVar(v); }};
}

std::size_t ElimKernel::trackPeak()
{
    const std::size_t cone = aig_.coneSize(matrix_);
    stats_.peakConeSize = std::max(stats_.peakConeSize, cone);
    OBS_GAUGE_MAX("aig.peak_cone", cone);
    return cone;
}

void ElimKernel::collectGarbage()
{
    std::vector<AigEdge*> roots{&matrix_};
    if (recorder_) recorder_->appendGcRoots(roots);
    aig_.garbageCollect(std::move(roots));
}

void ElimKernel::collectIfBloated()
{
    if (aig_.numNodes() > 4 * aig_.coneSize(matrix_) + 20000) collectGarbage();
}

SolveResult ElimKernel::housekeeping()
{
    const std::size_t cone = trackPeak();
    if (limits_.deadline.expired()) return deadlineExceededResult(limits_.deadline);
    // A live cone over budget is a memout; a pool over budget may be mostly
    // garbage, so collect before judging.
    if (limits_.nodeLimit != 0 && cone > limits_.nodeLimit) return SolveResult::Memout;
    if (limits_.nodeLimit != 0 && aig_.numNodes() > limits_.nodeLimit) {
        collectGarbage();
        if (aig_.numNodes() > limits_.nodeLimit) return SolveResult::Memout;
    }
    if (limits_.fraig && cone > limits_.fraigThresholdNodes && cone > 2 * lastFraigSize_) {
        FraigOptions fopts;
        fopts.deadline = limits_.deadline;
        matrix_ = fraigReduce(aig_, matrix_, fopts);
        lastFraigSize_ = aig_.coneSize(matrix_);
        ++stats_.fraigRuns;
        // The sweep strands the entire pre-sweep cone as garbage.
        if (aig_.numNodes() > 2 * lastFraigSize_ + 1000) collectGarbage();
    }
    collectIfBloated();
    return SolveResult::Unknown;
}

SolveResult ElimKernel::unitPurePass(const PrefixOps& prefix)
{
    if (!limits_.unitPure) return SolveResult::Unknown;
    Timer t;
    bool changed = true;
    while (changed && !isConstant() && !limits_.deadline.expired()) {
        changed = false;
        collectIfBloated();
        const UnitPureInfo info = aig_.detectUnitPure(matrix_);
        // One elimination per detection: units before pures (a universal
        // unit decides the formula), positive before negative.
        const std::pair<const std::vector<Var>*, bool> lists[] = {
            {&info.posUnit, true}, {&info.negUnit, false}, {&info.posPure, true},
            {&info.negPure, false}};
        for (std::size_t i = 0; i < 4 && !changed; ++i) {
            const bool unit = i < 2;
            const bool positive = lists[i].second;
            for (Var v : *lists[i].first) {
                const std::optional<QuantKind> kind = prefix.kindOf(v);
                if (!kind) continue;
                if (unit && kind == QuantKind::Forall) {
                    stats_.unitPureMilliseconds += t.elapsedMilliseconds();
                    return SolveResult::Unsat;
                }
                // An existential keeps the helpful cofactor; the adversary
                // picks the harmful one for a universal pure.
                const bool existential = kind == QuantKind::Exists;
                if (existential && recorder_) {
                    recorder_->record(SkolemRecorder::Constant{v, positive});
                }
                matrix_ = aig_.cofactor(matrix_, v, existential == positive);
                prefix.remove(v);
                ++(unit ? stats_.unitEliminations : stats_.pureEliminations);
                if (unit) OBS_COUNT("hqs.elim.unit", 1);
                else OBS_COUNT("hqs.elim.pure", 1);
                changed = true;
                break;
            }
        }
    }
    stats_.unitPureMilliseconds += t.elapsedMilliseconds();
    return SolveResult::Unknown;
}

void ElimKernel::eliminateExists(Var v)
{
    const AigEdge cof0 = aig_.cofactor(matrix_, v, false);
    const AigEdge cof1 = aig_.cofactor(matrix_, v, true);
    if (recorder_) recorder_->record(SkolemRecorder::Exists{v, cof1});
    matrix_ = aig_.mkOr(cof0, cof1);
}

void ElimKernel::dropUnsupported(Var v, const PrefixOps& prefix)
{
    if (recorder_ && prefix.kindOf(v) == QuantKind::Exists) {
        recorder_->record(SkolemRecorder::Constant{v, false});
    }
    prefix.remove(v);
    ++stats_.droppedUnsupported;
}

} // namespace hqs
