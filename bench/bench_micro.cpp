// Microbenchmarks (google-benchmark) for the substrates: AIG construction,
// cofactoring, the elimination rebuild and its dependent-cone counts (on
// cones whose size is the argument), the dense strash hit path,
// Substitution-based composition, mark-and-compact garbage collection (from
// a fresh manager and in the kernel's steady state), the Theorem-6 unit/pure
// traversal (also over a pool of garbage) and the kernel's batched unit/pure
// pass, FRAIG sweeping, the CDCL SAT solver, the partial MaxSAT selection, the end-to-end PEC encoding, the request front half
// (DQDIMACS parse, canonical key, formula hash), CNF preprocessing of three
// pec_sweep instances, and the disarmed cost of
// the fault/observability hooks.
//
//   bench_micro [--json=FILE] [google-benchmark flags]
//
// With --json=FILE the run additionally writes a machine-readable report
// (schema hqs-bench-micro/v2) whose `overhead_ns` block distills the
// per-operation cost of the always-compiled instrumentation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/aig/aig.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/aig/fraig.hpp"
#include "src/base/fault.hpp"
#include "src/base/rng.hpp"
#include "src/cache/canonical.hpp"
#include "src/cert/certificate.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dependency_graph.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/dqbf/preprocess.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/report.hpp"
#include "src/pec/pec_encoder.hpp"
#include "src/qbf/elim_kernel.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

/// Deterministic random cone over `vars` variables with `gates` AND/OR/XOR
/// nodes.
AigEdge randomCone(Aig& aig, unsigned vars, unsigned gates, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AigEdge> pool;
    for (Var v = 0; v < vars; ++v) pool.push_back(aig.variable(v));
    for (unsigned i = 0; i < gates; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        switch (rng.below(3)) {
            case 0: pool.push_back(aig.mkAnd(a, b)); break;
            case 1: pool.push_back(aig.mkOr(a, b)); break;
            default: pool.push_back(aig.mkXor(a, b)); break;
        }
    }
    return pool.back();
}

void BM_AigConstruction(benchmark::State& state)
{
    const auto gates = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Aig aig;
        benchmark::DoNotOptimize(randomCone(aig, 32, gates, 42));
    }
    state.SetItemsProcessed(state.iterations() * gates);
}
BENCHMARK(BM_AigConstruction)->Arg(1000)->Arg(10000)->Arg(100000);

/// Deterministic cone over `vars` variables whose root reaches all `gates`
/// AND/OR/XOR nodes: each gate reads the previous one and a random earlier
/// node, so a cofactor rebuilds a cone of the full size.
AigEdge chainCone(Aig& aig, unsigned vars, unsigned gates, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AigEdge> pool;
    for (Var v = 0; v < vars; ++v) pool.push_back(aig.variable(v));
    for (unsigned i = 0; i < gates; ++i) {
        const AigEdge a = pool.back() ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        switch (rng.below(3)) {
            case 0: pool.push_back(aig.mkAnd(a, b)); break;
            case 1: pool.push_back(aig.mkOr(a, b)); break;
            default: pool.push_back(aig.mkXor(a, b)); break;
        }
    }
    return pool.back();
}

// Re-cofactors one root in one manager: from the second iteration on every
// mkAnd hits the strash, so this times only the hit path.
void BM_AigCofactor(benchmark::State& state)
{
    Aig aig;
    const AigEdge root = chainCone(aig, 32, static_cast<unsigned>(state.range(0)), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(aig.cofactor(root, 5, true));
    }
    state.counters["cone"] = static_cast<double>(aig.coneSize(root));
}
BENCHMARK(BM_AigCofactor)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AigCofactorPair(benchmark::State& state)
{
    // The elimination rebuild: both cofactors of a freshly built cone in one
    // pass over the cone list its Theorem-6 scan recorded, so every
    // iteration allocates the cofactors' nodes as an elimination does.
    std::size_t cone = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Aig aig;
        const AigEdge root = chainCone(aig, 32, static_cast<unsigned>(state.range(0)), 37);
        const UnitPureInfo scan = aig.detectUnitPure(root);
        cone = scan.coneSize;
        state.ResumeTiming();
        benchmark::DoNotOptimize(aig.cofactorPair(root, 5, scan.cone, Deadline::unlimited()));
    }
    state.counters["cone"] = static_cast<double>(cone);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cone));
}
BENCHMARK(BM_AigCofactorPair)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DependentCounts(benchmark::State& state)
{
    // The backend's order trial prices its candidates with dependent-cone
    // counts: 64 candidates in one ascending pass over the scan's cone list.
    Aig aig;
    const AigEdge root = chainCone(aig, 64, static_cast<unsigned>(state.range(0)), 41);
    const UnitPureInfo scan = aig.detectUnitPure(root);
    std::vector<Var> candidates;
    for (Var v = 0; v < 64; ++v) candidates.push_back(v);
    std::vector<std::uint32_t> counts;
    for (auto _ : state) {
        aig.dependentCounts(scan.cone, candidates, counts);
        benchmark::DoNotOptimize(counts.data());
    }
    state.counters["cone"] = static_cast<double>(scan.coneSize);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(scan.coneSize));
}
BENCHMARK(BM_DependentCounts)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StrashHitLookup(benchmark::State& state)
{
    // Pure hit path of the dense strash: every mkAnd below resolves to an
    // existing node, so the loop measures hash + probe + return with no
    // allocation.  The table size scales with the arg.
    Aig aig;
    Rng rng(19);
    std::vector<AigEdge> pool;
    for (Var v = 0; v < 32; ++v) pool.push_back(aig.variable(v));
    std::vector<std::pair<AigEdge, AigEdge>> pairs;
    const auto gates = static_cast<unsigned>(state.range(0));
    for (unsigned i = 0; i < gates; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(aig.mkAnd(a, b));
        pairs.emplace_back(a, b);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& p = pairs[i];
        i = (i + 1 == pairs.size()) ? 0 : i + 1;
        benchmark::DoNotOptimize(aig.mkAnd(p.first, p.second));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrashHitLookup)->Arg(1000)->Arg(100000);

void BM_AigSubstitute(benchmark::State& state)
{
    // Simultaneous 8-variable substitution through the dense Substitution
    // builder and the manager-owned traversal cache.  After the first
    // iteration the image nodes exist, so this measures the steady-state
    // rebuild a Theorem-1 renaming pays.
    Aig aig;
    const AigEdge root = chainCone(aig, 32, static_cast<unsigned>(state.range(0)), 23);
    for (auto _ : state) {
        Substitution& sub = aig.scratchSubstitution();
        for (Var v = 0; v < 8; ++v)
            sub.set(v, aig.variable(v + 8) ^ ((v & 1) != 0));
        benchmark::DoNotOptimize(aig.substitute(root, sub));
    }
    state.counters["cone"] = static_cast<double>(aig.coneSize(root));
}
BENCHMARK(BM_AigSubstitute)->Arg(1000)->Arg(10000);

void BM_GcMarkCompact(benchmark::State& state)
{
    // Mark-and-compact with half the pool garbage: rebuild the node vector,
    // rewire the kept root, rehash the strash.
    const auto gates = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Aig aig;
        AigEdge keep = randomCone(aig, 32, gates, 29);
        randomCone(aig, 32, gates, 31); // stranded on purpose
        state.ResumeTiming();
        aig.garbageCollect({&keep});
        benchmark::DoNotOptimize(keep);
    }
    state.SetItemsProcessed(state.iterations() * gates);
}
BENCHMARK(BM_GcMarkCompact)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GarbageCollect(benchmark::State& state)
{
    // The elimination kernel's collection in its steady state: one manager
    // whose pool holds a live cone and the garbage of one cofactor pair of
    // it, about what the kernel collects at, so the collection reuses its
    // buffers from the previous iteration.
    Aig aig;
    AigEdge root = chainCone(aig, 32, static_cast<unsigned>(state.range(0)), 43);
    aig.garbageCollect({&root});
    UnitPureInfo scan;
    std::size_t pool = 0;
    for (auto _ : state) {
        state.PauseTiming();
        aig.detectUnitPure(root, scan);
        benchmark::DoNotOptimize(aig.cofactorPair(root, 5, scan.cone, Deadline::unlimited()));
        pool = aig.numNodes();
        state.ResumeTiming();
        aig.garbageCollect({&root});
    }
    state.counters["cone"] = static_cast<double>(scan.coneSize);
    state.counters["pool"] = static_cast<double>(pool);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pool));
}
BENCHMARK(BM_GarbageCollect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_UnitPureDetection(benchmark::State& state)
{
    // The paper reports the Theorem-6 traversal at O(|phi| + |V|) and < 4%
    // of runtime; this measures the raw traversal.
    Aig aig;
    const AigEdge root = chainCone(aig, 64, static_cast<unsigned>(state.range(0)), 13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(aig.detectUnitPure(root));
    }
    state.counters["cone"] = static_cast<double>(aig.coneSize(root));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnitPureDetection)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_UnitPureDetectionOverGarbage(benchmark::State& state)
{
    // The same traversal of a fixed cone of about 1 000 ANDs with arg dead
    // nodes allocated after each cone gate, i.e. below the root: the scan
    // skips garbage, so the time should not grow with the arg.
    const auto dead = static_cast<unsigned>(state.range(0));
    Aig aig;
    Rng rng(47);
    Rng junkRng(53); // the cone is the same whatever the arg
    std::vector<AigEdge> pool;
    for (Var v = 0; v < 32; ++v) pool.push_back(aig.variable(v));
    std::vector<AigEdge> junk;
    for (Var v = 32; v < 64; ++v) junk.push_back(aig.variable(v));
    for (unsigned i = 0; i < 600; ++i) {
        const AigEdge a = pool.back() ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.below(3) == 0 ? aig.mkXor(a, b) : aig.mkAnd(a, b));
        for (unsigned d = 0; d < dead; ++d) {
            const AigEdge x = junk[junkRng.below(junk.size())] ^ junkRng.flip();
            const AigEdge y = junk[junkRng.below(junk.size())] ^ junkRng.flip();
            junk.push_back(aig.mkAnd(x, y));
        }
    }
    const AigEdge root = pool.back();
    UnitPureInfo info;
    for (auto _ : state) {
        aig.detectUnitPure(root, info);
        benchmark::DoNotOptimize(info.cone.data());
    }
    state.counters["cone"] = static_cast<double>(info.coneSize);
    state.counters["pool"] = static_cast<double>(aig.numNodes());
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(info.coneSize));
}
BENCHMARK(BM_UnitPureDetectionOverGarbage)->Arg(0)->Arg(10)->Arg(50);

void BM_UnitPureBatch(benchmark::State& state)
{
    // (a xor b) & AND_i (p_i | (a xor c_i)) with N pure p_i through
    // ElimKernel::unitPurePass: one detection fixes all N, a second finds
    // nothing left.
    const auto n = static_cast<Var>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Aig aig;
        QbfPrefix prefix;
        std::vector<Var> vars;
        for (Var v = 0; v < 2 + 2 * n; ++v) vars.push_back(v);
        prefix.addBlock(QuantKind::Exists, std::move(vars));
        const AigEdge a = aig.variable(0);
        AigEdge root = aig.mkXor(a, aig.variable(1));
        for (Var i = 0; i < n; ++i) {
            root = aig.mkAnd(root, aig.mkOr(aig.variable(2 + i),
                                            aig.mkXor(a, aig.variable(2 + n + i))));
        }
        ElimStats stats;
        state.ResumeTiming();
        ElimKernel kernel(aig, root, ElimLimits{}, nullptr, stats);
        benchmark::DoNotOptimize(kernel.unitPurePass(prefixOps(prefix)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnitPureBatch)->Arg(64)->Arg(512);

void BM_FraigReduceOverCap(benchmark::State& state)
{
    // An OR of arg conjunctions of 12 literals over 40 variables: each
    // looks constant false to 256 simulation patterns, so the sweep spends
    // its 1000-query cap refuting the lowest ones and only rebuilds the
    // rest, as the near-budget sweeps of large pec_sweep cones do.
    FraigStats stats;
    for (auto _ : state) {
        state.PauseTiming();
        Aig aig;
        Rng rng(43);
        AigEdge root = aig.constFalse();
        for (std::int64_t t = 0; t < state.range(0); ++t) {
            AigEdge term = aig.constTrue();
            for (int k = 0; k < 12; ++k)
                term = aig.mkAnd(term, aig.variable(static_cast<Var>(rng.below(40))) ^ rng.flip());
            root = aig.mkOr(root, term);
        }
        stats = {};
        state.ResumeTiming();
        benchmark::DoNotOptimize(fraigReduce(aig, root, {}, &stats));
    }
    state.counters["queries"] = static_cast<double>(stats.candidates);
}
BENCHMARK(BM_FraigReduceOverCap)->Arg(2000);

void BM_SatRandom3Sat(benchmark::State& state)
{
    const auto n = static_cast<Var>(state.range(0));
    Rng rng(1234);
    Cnf f;
    f.ensureVars(n);
    for (Var c = 0; c < n * 4; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        f.addClause(std::move(cl));
    }
    for (auto _ : state) {
        SatSolver s;
        s.addCnf(f);
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

void BM_MaxSatSelection(benchmark::State& state)
{
    // The paper: MaxSAT selection took < 0.06 s on every instance.
    Rng rng(5);
    DqbfFormula f;
    const auto nu = static_cast<unsigned>(state.range(0));
    std::vector<Var> xs;
    for (unsigned i = 0; i < nu; ++i) xs.push_back(f.addUniversal());
    for (unsigned i = 0; i < nu; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.flip()) deps.push_back(x);
        }
        f.addExistential(std::move(deps));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(selectEliminationSetMaxSat(f));
    }
}
BENCHMARK(BM_MaxSatSelection)->Arg(8)->Arg(16)->Arg(32);

void BM_PecEncode(benchmark::State& state)
{
    const PecInstance inst =
        makeInstance(Family::Adder, static_cast<unsigned>(state.range(0)), false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(encodePec(inst));
    }
}
BENCHMARK(BM_PecEncode)->Arg(8)->Arg(16)->Arg(32);

/// DQDIMACS text of a small (pec_xor w4, ~0.7 KB; range 0) or a large
/// (c432 w4, ~12 KB; range 1) PEC instance: what a service request carries.
std::string pecRequestText(benchmark::State& state)
{
    const bool large = state.range(0) != 0;
    state.SetLabel(large ? "c432_w4_sat" : "pec_xor_w4_sat");
    const PecInstance inst = makeInstance(large ? Family::C432 : Family::PecXor, 4, true);
    return toDqdimacsString(encodePec(inst).formula.toParsed());
}

void BM_ParseDqdimacs(benchmark::State& state)
{
    const std::string text = pecRequestText(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(parseDqdimacsString(text));
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseDqdimacs)->Arg(0)->Arg(1);

void BM_CanonicalKey(benchmark::State& state)
{
    const ParsedQdimacs parsed = parseDqdimacsString(pecRequestText(state));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache::canonicalKey(parsed));
    }
}
BENCHMARK(BM_CanonicalKey)->Arg(0)->Arg(1);

void BM_FormulaHash(benchmark::State& state)
{
    const ParsedQdimacs parsed = parseDqdimacsString(pecRequestText(state));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cert::formulaHash(parsed));
    }
}
BENCHMARK(BM_FormulaHash)->Arg(0)->Arg(1);

/// CNF preprocessing of one pec_sweep instance: the DQDIMACS text is
/// parsed once; each iteration copies the formula and preprocesses the copy.
void BM_Preprocess(benchmark::State& state, Family family, unsigned width, bool realizable)
{
    const std::string text =
        toDqdimacsString(encodePec(makeInstance(family, width, realizable)).formula.toParsed());
    const DqbfFormula parsed = DqbfFormula::fromParsed(parseDqdimacsString(text));
    for (auto _ : state) {
        DqbfFormula f = parsed;
        benchmark::DoNotOptimize(preprocess(f));
    }
}
BENCHMARK_CAPTURE(BM_Preprocess, bitcell_w12_sat, Family::Bitcell, 12u, true);
BENCHMARK_CAPTURE(BM_Preprocess, comp_w10_sat, Family::Comp, 10u, true);
BENCHMARK_CAPTURE(BM_Preprocess, c432_w5_unsat, Family::C432, 5u, false);

void BM_FaultCheckpointDisarmed(benchmark::State& state)
{
    // The aig-alloc checkpoint sits on the AND-node allocation hot path; its
    // disarmed cost (one relaxed atomic load) must stay in the noise.
    fault::disarm();
    for (auto _ : state) {
        fault::checkpoint("aig-alloc");
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultCheckpointDisarmed);

void BM_AigConstructionWithDisarmedCheckpoint(benchmark::State& state)
{
    // End-to-end view of the same question: node construction throughput
    // with the checkpoint compiled in but nothing armed (compare against
    // BM_AigConstruction at the same arg).
    fault::disarm();
    const auto gates = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Aig aig;
        benchmark::DoNotOptimize(randomCone(aig, 32, gates, 42));
    }
    state.SetItemsProcessed(state.iterations() * gates);
}
BENCHMARK(BM_AigConstructionWithDisarmedCheckpoint)->Arg(10000);

void BM_ObsSpanDisarmed(benchmark::State& state)
{
    // OBS_SPAN with tracing off: the constructor must reduce to one relaxed
    // atomic load, the same budget as the disarmed fault checkpoint.
    for (auto _ : state) {
        OBS_SPAN(span, "bench.disarmed");
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisarmed);

void BM_ObsCounterAdd(benchmark::State& state)
{
    // OBS_COUNT on the hot path (e.g. aig.ands): one relaxed fetch_add.
    for (auto _ : state) {
        OBS_COUNT("bench.counter", 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state)
{
    // OBS_OBSERVE: three relaxed atomics (count, sum, bucket) plus a CAS max.
    std::int64_t v = 0;
    for (auto _ : state) {
        OBS_OBSERVE("bench.histogram", v);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanEnabled(benchmark::State& state)
{
    // Armed cost for comparison: clock reads plus a per-thread chunk append.
    // Fixed iteration count bounds the trace buffer growth.
#if HQS_OBS_ENABLED
    hqs::obs::enableTracing(true);
#endif
    for (auto _ : state) {
        OBS_SPAN(span, "bench.enabled");
        benchmark::DoNotOptimize(&span);
    }
#if HQS_OBS_ENABLED
    hqs::obs::enableTracing(false);
    hqs::obs::clearTrace();
#endif
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled)->Iterations(1 << 16);

void BM_HqsEndToEnd(benchmark::State& state)
{
    const PecInstance inst =
        makeInstance(Family::Adder, static_cast<unsigned>(state.range(0)), false);
    for (auto _ : state) {
        PecEncoding enc = encodePec(inst);
        HqsSolver solver;
        benchmark::DoNotOptimize(solver.solve(std::move(enc.formula)));
    }
}
BENCHMARK(BM_HqsEndToEnd)->Arg(4)->Arg(8);

/// Console reporter that additionally captures every per-iteration run for
/// the --json report.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
    std::vector<obs::BenchMicroRow> rows;

    void ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
            obs::BenchMicroRow row;
            row.name = run.benchmark_name();
            row.iterations = static_cast<std::int64_t>(run.iterations);
            if (run.iterations > 0) {
                row.realNs = run.real_accumulated_time * 1e9 /
                             static_cast<double>(run.iterations);
                row.cpuNs = run.cpu_accumulated_time * 1e9 /
                            static_cast<double>(run.iterations);
            }
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end()) row.itemsPerSecond = it->second;
            rows.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

/// Mean per-iteration CPU time of @p name across the captured rows, or 0
/// when the benchmark did not run (e.g. filtered out).
double meanCpuNs(const std::vector<obs::BenchMicroRow>& rows, const std::string& name)
{
    double sum = 0;
    int n = 0;
    for (const obs::BenchMicroRow& row : rows) {
        if (row.name == name) {
            sum += row.cpuNs;
            ++n;
        }
    }
    return n > 0 ? sum / n : 0.0;
}

} // namespace
} // namespace hqs

int main(int argc, char** argv)
{
    // --json=FILE is ours; everything else passes through to the benchmark
    // library (--benchmark_filter, --benchmark_min_time, ...).
    std::string jsonPath;
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            jsonPath = arg.substr(7);
        } else {
            args.push_back(argv[i]);
        }
    }
    int benchArgc = static_cast<int>(args.size());
    benchmark::Initialize(&benchArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(benchArgc, args.data())) return 1;

    hqs::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!jsonPath.empty()) {
        hqs::obs::BenchMicroReport report;
        report.benchmarks = reporter.rows;
        report.overheadNs = {
            {"span_disarmed_ns", hqs::meanCpuNs(reporter.rows, "BM_ObsSpanDisarmed")},
            {"span_enabled_ns",
             hqs::meanCpuNs(reporter.rows, "BM_ObsSpanEnabled/iterations:65536")},
            {"counter_add_ns", hqs::meanCpuNs(reporter.rows, "BM_ObsCounterAdd")},
            {"histogram_observe_ns",
             hqs::meanCpuNs(reporter.rows, "BM_ObsHistogramObserve")},
            {"checkpoint_disarmed_ns",
             hqs::meanCpuNs(reporter.rows, "BM_FaultCheckpointDisarmed")},
        };
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        hqs::obs::writeBenchMicroJson(out, report);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
