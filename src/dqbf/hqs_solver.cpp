#include "src/dqbf/hqs_solver.hpp"

#include <algorithm>
#include <unordered_map>

#include "src/aig/cnf_bridge.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"
#include "src/dqbf/dependency_graph.hpp"
#include "src/qbf/bdd_qbf_solver.hpp"

namespace hqs {
namespace {

/// Compose detected gate definitions into the matrix AIG, in an order where
/// no composed output can be re-introduced by a later composition (if gate
/// g's definition mentions gate output h, g is composed before h).
AigEdge composeGates(Aig& aig, AigEdge matrix, const std::vector<GateDef>& gates,
                     DqbfFormula& f, SkolemRecorder* rec)
{
    std::unordered_map<Var, const GateDef*> defOf;
    for (const GateDef& g : gates) defOf.emplace(g.target.var(), &g);

    // Topological order over "g uses h" edges via DFS.
    std::vector<const GateDef*> order;
    std::unordered_map<Var, int> state; // 0 = new, 1 = visiting, 2 = done
    // Iterative DFS emitting g after all gates that use g... we need the
    // reverse: compose g before any gate output h appearing in g's inputs.
    // DFS from each gate, post-order over the "uses" relation, then reverse.
    std::vector<Var> stack;
    for (const GateDef& g : gates) {
        if (state[g.target.var()] != 0) continue;
        stack.push_back(g.target.var());
        while (!stack.empty()) {
            const Var v = stack.back();
            if (state[v] == 0) {
                state[v] = 1;
                for (Lit in : defOf.at(v)->inputs) {
                    const Var u = in.var();
                    if (defOf.contains(u) && state[u] == 0) stack.push_back(u);
                }
            } else {
                if (state[v] == 1) {
                    state[v] = 2;
                    order.push_back(defOf.at(v));
                }
                stack.pop_back();
            }
        }
    }
    // Post-order lists used gates before users; composing users first
    // requires the reverse.
    std::reverse(order.begin(), order.end());

    for (const GateDef* g : order) {
        // Record in composition order: a gate using another gate's output is
        // recorded first, so reverse (reconstruction) order resolves the
        // used gate's Skolem before the user needs it.
        if (rec) rec->record(SkolemRecorder::AliasGate{*g});
        AigEdge def;
        if (g->kind == GateKind::Or) {
            def = aig.constFalse();
            for (Lit in : g->inputs) def = aig.mkOr(def, aig.variable(in.var()) ^ in.negative());
        } else {
            def = aig.mkXor(aig.variable(g->inputs[0].var()) ^ g->inputs[0].negative(),
                            aig.variable(g->inputs[1].var()) ^ g->inputs[1].negative());
        }
        // target == def, so the output variable equals def ^ target-sign.
        matrix = aig.compose(matrix, g->target.var(), def ^ g->target.negative());
        if (f.isExistential(g->target.var())) f.removeExistential(g->target.var());
    }
    return matrix;
}

} // namespace

PrefixOps prefixOps(DqbfFormula& f)
{
    return {[&f](Var v) -> std::optional<QuantKind> {
                if (f.isExistential(v)) return QuantKind::Exists;
                if (f.isUniversal(v)) return QuantKind::Forall;
                return std::nullopt;
            },
            [&f](Var v) { f.isExistential(v) ? f.removeExistential(v) : f.removeUniversal(v); }};
}

SolveResult HqsSolver::solve(DqbfFormula f)
{
    stats_ = HqsStats{};
    skolemCertificate_.reset();
    Timer total;
    OBS_SPAN(solveSpan, "hqs.solve");

    // Skolem tracking state: the elimination trace, the original prefix for
    // reconstruction, and a shared manager kept alive inside the
    // certificate.
    std::optional<SkolemRecorder> recorder;
    std::optional<DqbfFormula> original;
    if (opts_.computeSkolem) {
        recorder.emplace();
        original = f;
    }
    SkolemRecorder* rec = recorder ? &*recorder : nullptr;
    auto aigPtr = std::make_shared<Aig>();
    Aig& aig = *aigPtr;

    auto finish = [&](SolveResult r, const char* stage) {
        stats_.totalMilliseconds = total.elapsedMilliseconds();
        stats_.decidedBy = stage;
        stats_.aigKernel = aig.kernelStats();
        aig.publishKernelStats();
        if (r == SolveResult::Sat && rec) {
            skolemCertificate_ = reconstructSkolem(*original, aigPtr, *recorder);
        }
        return r;
    };

    // ----- preprocessing ---------------------------------------------------
    std::vector<GateDef> gates;
    if (opts_.preprocess) {
        OBS_PHASE(prepSpan, "hqs.preprocess", "phase.preprocess.us");
        PreprocessOptions popts;
        popts.gateDetection = opts_.gateDetection;
        PreprocessResult pres = preprocess(f, popts, rec);
        stats_.preprocess = pres.stats;
        gates = std::move(pres.gates);
        prepSpan.arg("gates", static_cast<std::int64_t>(gates.size()));
        if (pres.decided != SolveResult::Unknown) return finish(pres.decided, "preprocess");
    }

    // ----- SAT probe (Section IV: catch single-SAT-call refutations) --------
    if (opts_.satProbe) {
        // The existential abstraction over-approximates the DQBF: if even
        // "all variables existential" has no model, the DQBF is UNSAT.
        // (Gate definitions removed by preprocessing are equisatisfiable
        // extensions, so probing the remaining matrix plus definitions is
        // unnecessary — the remaining matrix alone is an abstraction.)
        OBS_PHASE(probeSpan, "hqs.sat_probe", "phase.sat_probe.us");
        SatSolver probe;
        probe.addCnf(f.matrix());
        const SolveResult pr = probe.solve({}, Deadline::in(opts_.satProbeSeconds));
        if (pr == SolveResult::Unsat) return finish(SolveResult::Unsat, "sat-probe");
    }

    // ----- AIG construction -------------------------------------------------
    AigEdge built;
    {
        OBS_PHASE(buildSpan, "hqs.build_aig", "phase.build_aig.us");
        built = buildFromCnf(aig, f.matrix());
        built = composeGates(aig, built, gates, f, rec);
        buildSpan.arg("nodes", static_cast<std::int64_t>(aig.numNodes()));
    }
    // The same limits govern the main loop's kernel and the AIG backend's.
    const ElimLimits limits{opts_.unitPure, opts_.fraig, opts_.nodeLimit, opts_.deadline};
    ElimKernel kernel(aig, built, limits, rec, stats_);
    AigEdge& matrix = kernel.matrix();
    const PrefixOps ops = prefixOps(f);
    if (kernel.isConstant()) return finish(kernel.constantResult(), "elimination");

    // ----- selection of universals to eliminate ------------------------------
    stats_.incomparablePairs = incomparablePairs(f).size();
    auto selectOrdered = [&]() -> std::optional<std::vector<Var>> {
        OBS_PHASE(selSpan, "hqs.select", "phase.select.us");
        Timer t;
        std::vector<Var> set;
        switch (opts_.selection) {
            case HqsOptions::Selection::MaxSat: {
                auto r = selectEliminationSetMaxSat(f, opts_.deadline);
                if (!r) return std::nullopt;
                set = std::move(*r);
                break;
            }
            case HqsOptions::Selection::Greedy:
                set = selectEliminationSetGreedy(f);
                break;
            case HqsOptions::Selection::All:
                set = f.universals();
                break;
        }
        stats_.maxsatMilliseconds += t.elapsedMilliseconds();
        return orderEliminationSet(f, std::move(set));
    };
    auto selected = selectOrdered();
    if (!selected) return finish(deadlineExceededResult(opts_.deadline), "selection");
    stats_.selectedUniversals = selected->size();
    std::size_t nextPick = 0;

    // ----- main loop (Fig. 3) -------------------------------------------------
    for (;;) {
        if (SolveResult r = kernel.housekeeping(); r != SolveResult::Unknown)
            return finish(r, "elimination");
        if (opts_.unitPure) {
            OBS_PHASE(upSpan, "hqs.unit_pure", "phase.unit_pure.us");
            if (SolveResult r = kernel.unitPurePass(ops); r != SolveResult::Unknown)
                return finish(r, "elimination");
        }
        if (kernel.isConstant()) return finish(kernel.constantResult(), "elimination");

        // Theorem 2: eliminate existentials depending on all universals.
        {
            OBS_PHASE(exSpan, "hqs.elim_exists", "phase.elim_exists.us");
            bool eliminated = true;
            while (eliminated && !kernel.isConstant() && !opts_.deadline.expired()) {
                eliminated = false;
                kernel.collectIfBloated();
                for (Var y : std::vector<Var>(f.existentials())) {
                    // Re-check the budget per candidate: a single cofactor
                    // pair on a huge cone can dwarf the loop-head check.
                    if (opts_.deadline.expired()) break;
                    if (!f.dependsOnAllUniversals(y)) continue;
                    if (kernel.scan().occurrencesOf(y) == 0) {
                        kernel.dropUnsupported(y, ops);
                        continue;
                    }
                    if (SolveResult r = kernel.eliminateExists(y); r != SolveResult::Unknown)
                        return finish(r, "elimination");
                    f.removeExistential(y);
                    ++stats_.existentialsEliminated;
                    OBS_COUNT("hqs.elim.existential", 1);
                    eliminated = true;
                    // Hundreds of full-dependency auxiliaries can be
                    // eliminated in one sweep; collect the cofactor garbage
                    // as we go or memory multiplies by the sweep length.
                    kernel.collectIfBloated();
                    if (kernel.isConstant() || opts_.deadline.expired()) break;
                }
            }
        }
        if (kernel.isConstant()) return finish(kernel.constantResult(), "elimination");
        // Remove prefix variables that no longer occur in the matrix.
        const UnitPureInfo& scan = kernel.scan();
        for (const std::vector<Var>* vars : {&f.existentials(), &f.universals()}) {
            for (Var v : std::vector<Var>(*vars)) {
                if (scan.occurrencesOf(v) == 0) kernel.dropUnsupported(v, ops);
            }
        }

        // Done when the dependency graph is acyclic (Theorem 3/4) — except
        // in All mode, which reproduces [10] by eliminating every universal.
        const bool done = (opts_.selection == HqsOptions::Selection::All)
                              ? f.universals().empty()
                              : hasEquivalentQbfPrefix(f);
        if (done) break;

        // Pick the next universal from the ordered elimination list.
        Var pick = kNoVar;
        while (nextPick < selected->size()) {
            const Var candidate = (*selected)[nextPick++];
            if (f.isUniversal(candidate) && aig.hasVariable(candidate)) {
                pick = candidate;
                break;
            }
        }
        if (pick == kNoVar) {
            // List exhausted but the graph is still cyclic (earlier unit or
            // pure eliminations can strand the precomputed list): reselect.
            selected = selectOrdered();
            if (!selected) return finish(deadlineExceededResult(opts_.deadline), "selection");
            nextPick = 0;
            continue;
        }

        // Theorem 1: psi == forall-rest: phi[0/x] & phi[1/x][y'/y for y in E_x],
        // both conjuncts from one polled pass over the scanned cone.
        if (opts_.deadline.expired()) return finish(deadlineExceededResult(opts_.deadline), "elimination");
        {
            OBS_PHASE(unSpan, "hqs.elim_universal", "phase.elim_universal.us");
            const std::size_t nodesBefore = aig.numNodes();
            const UnitPureInfo& scan = kernel.scan();
            Substitution& renaming = aig.scratchSubstitution();
            SkolemRecorder::UniversalSplit split{pick, {}};
            for (Var y : std::vector<Var>(f.dependersOf(pick))) {
                if (scan.occurrencesOf(y) == 0) continue; // a copy would not occur
                std::vector<Var> deps = f.dependencies(y);
                std::erase(deps, pick);
                const Var fresh = f.addExistential(std::move(deps));
                renaming.set(y, aig.variable(fresh));
                split.copies.emplace_back(y, fresh);
                ++stats_.copiesIntroduced;
            }
            if (SolveResult r = kernel.eliminateForall(pick, &renaming); r != SolveResult::Unknown)
                return finish(r, "elimination");
            const std::int64_t copies = static_cast<std::int64_t>(split.copies.size());
            if (rec && !split.copies.empty()) rec->record(std::move(split));
            f.removeUniversal(pick);
            ++stats_.universalsEliminated;
            OBS_COUNT("hqs.elim.universal", 1);
            OBS_COUNT("hqs.elim.copies", copies);
            const std::int64_t delta =
                static_cast<std::int64_t>(aig.numNodes()) -
                static_cast<std::int64_t>(nodesBefore);
            OBS_OBSERVE("hqs.elim.node_delta", delta);
            unSpan.arg("copies", copies);
            unSpan.arg("node_delta", delta);
            // The Theorem-1 rebuild strands both cofactor sources.
            kernel.collectIfBloated();
        }
    }

    if (kernel.isConstant()) return finish(kernel.constantResult(), "elimination");

    // ----- QBF backend on the linearized prefix -------------------------------
    OBS_PHASE(qbfSpan, "hqs.qbf_backend", "phase.qbf.us");
    OBS_COUNT("qbf.backend_calls", 1);
    stats_.usedQbfBackend = true;
    const QbfPrefix prefix = linearizePrefix(f);
    if (opts_.backend == HqsOptions::Backend::BddElimination && !opts_.computeSkolem) {
        BddQbfSolver backend(BddQbfOptions{limits.nodeLimit, limits.deadline});
        Bdd bdd;
        bdd.setResourceLimits(limits.nodeLimit, limits.deadline);
        SolveResult r;
        try {
            const BddRef bddMatrix = bddFromAig(bdd, aig, matrix);
            r = backend.solve(bdd, bddMatrix, prefix);
        } catch (const BddLimitExceeded& e) {
            r = e.byNodeLimit() ? SolveResult::Memout : deadlineExceededResult(opts_.deadline);
        }
        stats_.peakConeSize = std::max(stats_.peakConeSize, backend.stats().peakConeSize);
        return finish(r, "qbf-backend");
    }
    AigQbfSolver backend(AigQbfOptions{limits, rec});
    const SolveResult r = backend.solve(aig, matrix, prefix);
    stats_.qbfStats = backend.stats();
    stats_.peakConeSize = std::max(stats_.peakConeSize, backend.stats().peakConeSize);
    stats_.unitPureMilliseconds += backend.stats().unitPureMilliseconds;
    return finish(r, "qbf-backend");
}

} // namespace hqs
