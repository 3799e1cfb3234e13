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

ElimKernel::~ElimKernel()
{
    // Exclusive kernel phases: a scan that a build or a collection needs
    // runs before its timer starts.
    OBS_COUNT("phase.elim.scan.us", static_cast<std::int64_t>(scanNs_ / 1000));
    OBS_COUNT("phase.elim.build.us", static_cast<std::int64_t>(buildNs_ / 1000));
    OBS_COUNT("phase.elim.gc.us", static_cast<std::int64_t>(gcNs_ / 1000));
}

const UnitPureInfo& ElimKernel::scan()
{
    if (!scanCurrent()) {
        const std::uint64_t start = obs::detail::nowNs();
        aig_.detectUnitPure(matrix_, scan_);
        scanNs_ += obs::detail::nowNs() - start;
        scanEdge_ = matrix_;
        scanGcRun_ = aig_.kernelStats().gcRuns;
        ++stats_.scans;
    }
    return scan_;
}

std::size_t ElimKernel::trackPeak()
{
    const std::size_t cone = scan().coneSize;
    stats_.peakConeSize = std::max(stats_.peakConeSize, cone);
    OBS_GAUGE_MAX("aig.peak_cone", cone);
    return cone;
}

void ElimKernel::collectGarbage()
{
    // Compaction renumbers the matrix cone without changing its shape or
    // node order, so a scan of it carries over under the new key, its cone
    // list remapped in place.
    const bool rekey = scanCurrent();
    std::vector<AigEdge*> roots{&matrix_};
    if (recorder_) recorder_->appendGcRoots(roots);
    const std::uint64_t start = obs::detail::nowNs();
    aig_.garbageCollect(std::move(roots), rekey ? &scan_.cone : nullptr);
    gcNs_ += obs::detail::nowNs() - start;
    if (rekey) {
        scanEdge_ = matrix_;
        scanGcRun_ = aig_.kernelStats().gcRuns;
    }
    retained_ = aig_.numNodes() - scan().cone.size();
}

void ElimKernel::collectIfBloated()
{
    const std::size_t cone = scan().cone.size();
    if (aig_.numNodes() > 2 * cone + retained_ + kCollectSlack) collectGarbage();
}

std::size_t ElimKernel::sweep(bool overBudget)
{
    FraigOptions fopts;
    fopts.deadline = limits_.deadline;
    fopts.trigger = overBudget ? "over-budget" : "near-budget";
    matrix_ = fraigReduce(aig_, matrix_, fopts);
    lastFraigSize_ = scan().coneSize;
    ++stats_.fraigRuns;
    if (overBudget) {
        OBS_COUNT("fraig.over_budget", 1);
        if (lastFraigSize_ <= limits_.nodeLimit) OBS_COUNT("fraig.rescued", 1);
    }
    // The sweep strands the entire pre-sweep cone as garbage.
    collectIfBloated();
    return lastFraigSize_;
}

SolveResult ElimKernel::housekeeping()
{
    std::size_t cone = trackPeak();
    if (limits_.deadline.expired()) return deadlineExceededResult(limits_.deadline);
    if (limits_.nodeLimit != 0) {
        // FRAIG is a budget step (DESIGN §14): sweep a cone past nodeLimit/8
        // that has doubled since the last sweep, or one over budget that has
        // grown since, so a cone is judged over budget only once swept.
        const bool over = cone > limits_.nodeLimit;
        if (limits_.fraig && cone > limits_.nodeLimit / 8 &&
            (cone > 2 * lastFraigSize_ || (over && cone > lastFraigSize_))) {
            cone = sweep(over);
        }
        // A live cone over budget is a memout; a pool over budget may be
        // mostly garbage, so collect before judging.
        if (cone > limits_.nodeLimit) return SolveResult::Memout;
        if (aig_.numNodes() > limits_.nodeLimit) {
            collectGarbage();
            if (aig_.numNodes() > limits_.nodeLimit) return SolveResult::Memout;
        }
    }
    collectIfBloated();
    return SolveResult::Unknown;
}

SolveResult ElimKernel::unitPurePass(const PrefixOps& prefix)
{
    if (!limits_.unitPure) return SolveResult::Unknown;
    Timer t;
    while (!isConstant() && !limits_.deadline.expired()) {
        collectIfBloated();
        const UnitPureInfo& info = scan();
        // A universal unit decides the formula: phi implies a literal the
        // adversary can falsify.
        for (const std::vector<Var>* units : {&info.posUnit, &info.negUnit}) {
            for (Var v : *units) {
                if (prefix.kindOf(v) == QuantKind::Forall) {
                    stats_.unitPureMilliseconds += t.elapsedMilliseconds();
                    return SolveResult::Unsat;
                }
            }
        }
        // Fix every unit and pure of this detection at once (DESIGN §14):
        // units before pures, so a variable listed as both counts as a unit.
        const std::pair<const std::vector<Var>*, bool> lists[] = {
            {&info.posUnit, true}, {&info.negUnit, false}, {&info.posPure, true},
            {&info.negPure, false}};
        Substitution& fixed = aig_.scratchSubstitution();
        for (std::size_t i = 0; i < 4; ++i) {
            const bool unit = i < 2;
            const bool positive = lists[i].second;
            for (Var v : *lists[i].first) {
                const std::optional<QuantKind> kind = prefix.kindOf(v);
                if (!kind) continue; // free, or fixed by an earlier list
                // An existential keeps the helpful value; the adversary
                // picks the harmful one for a universal pure.
                const bool existential = kind == QuantKind::Exists;
                if (existential && recorder_) {
                    recorder_->record(SkolemRecorder::Constant{v, positive});
                }
                fixed.set(v, existential == positive ? aig_.constTrue() : aig_.constFalse());
                prefix.remove(v);
                ++(unit ? stats_.unitEliminations : stats_.pureEliminations);
                if (unit) OBS_COUNT("hqs.elim.unit", 1);
                else OBS_COUNT("hqs.elim.pure", 1);
            }
        }
        if (fixed.empty()) break;
        matrix_ = aig_.substitute(matrix_, fixed);
    }
    stats_.unitPureMilliseconds += t.elapsedMilliseconds();
    return SolveResult::Unknown;
}

SolveResult ElimKernel::build(Var v, QuantKind kind, BuiltElimination& out, std::size_t cap,
                              const Substitution* renameHigh)
{
    out = BuiltElimination{v, kind, AigEdge(), AigEdge()};
    // Both cofactors in one pass over the cone list the scan recorded.  One
    // pass over a large cone can take longer than the whole budget, so it
    // polls the deadline itself.
    const std::vector<std::uint32_t>& cone = scan().cone;
    const std::uint64_t start = obs::detail::nowNs();
    const std::size_t before = aig_.numNodes();
    const auto [lo, hi] = aig_.cofactorPair(matrix_, v, cone, limits_.deadline, renameHigh, cap);
    if (lo.isValid()) {
        out.matrix = kind == QuantKind::Exists ? aig_.mkOr(lo, hi) : aig_.mkAnd(lo, hi);
        out.high = hi;
    }
    buildNs_ += obs::detail::nowNs() - start;
    // Only a capped stop leaves more than cap new nodes behind.
    if (!lo.isValid() && aig_.numNodes() - before <= cap) {
        return deadlineExceededResult(limits_.deadline);
    }
    return SolveResult::Unknown;
}

void ElimKernel::commit(const BuiltElimination& e)
{
    if (recorder_ && e.kind == QuantKind::Exists) {
        recorder_->record(SkolemRecorder::Exists{e.var, e.high});
    }
    matrix_ = e.matrix;
}

SolveResult ElimKernel::eliminate(Var v, QuantKind kind, const Substitution* renameHigh)
{
    BuiltElimination e;
    if (SolveResult r = build(v, kind, e, Aig::kNoCap, renameHigh); r != SolveResult::Unknown) {
        return r;
    }
    commit(e);
    return SolveResult::Unknown;
}

SolveResult ElimKernel::eliminateExists(Var v)
{
    return eliminate(v, QuantKind::Exists, nullptr);
}

SolveResult ElimKernel::eliminateForall(Var v, const Substitution* renameHigh)
{
    return eliminate(v, QuantKind::Forall, renameHigh);
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
