// The QBF backend's elimination order: Aig::dependentCounts against a
// brute-force support count, the capped cofactor pair, ElimKernel's
// build-then-commit step, and AigQbfSolver's order trial — verdicts against
// the QBF oracle, the committed candidate, one Skolem Exists record per
// kept elimination and certificates through the independent checker.
// Compiled into the aig/, tsan/ and asan/ binaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/aig/aig.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/circuit/families.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/elim_kernel.hpp"
#include "src/qbf/qbf_oracle.hpp"

namespace hqs {
namespace {

/// A cone over variables [0, vars) whose root reads every gate: each gate
/// takes the previous one and a random earlier node.
AigEdge chainCone(Aig& aig, Rng& rng, Var vars, std::size_t gates)
{
    std::vector<AigEdge> pool;
    for (Var v = 0; v < vars; ++v) pool.push_back(aig.variable(v));
    for (std::size_t i = 0; i < gates; ++i) {
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

std::size_t existsRecords(const SkolemRecorder& recorder)
{
    return static_cast<std::size_t>(
        std::count_if(recorder.records().begin(), recorder.records().end(),
                      [](const SkolemRecorder::Record& r) {
                          return std::holds_alternative<SkolemRecorder::Exists>(r);
                      }));
}

// ------------------------------------------------------- dependentCounts --

TEST(QbfOrder, DependentCountsMatchABruteForceSupportCount)
{
    for (std::uint64_t seed = 0; seed < 48; ++seed) {
        Rng rng(seed * 7919 + 3);
        Aig aig;
        // Every fourth cone has 100 variables: its candidate block spans two
        // 64-bit passes.
        const Var vars = seed % 4 == 0 ? 100 : 4 + static_cast<Var>(rng.below(20));
        const AigEdge root =
            chainCone(aig, rng, vars, 20 + rng.below(400)) ^ rng.flip();
        const UnitPureInfo scan = aig.detectUnitPure(root);

        // Candidates in a shuffled order, plus one variable the manager has
        // never seen.
        std::vector<Var> candidates;
        for (Var v = 0; v < vars; ++v) candidates.push_back(v);
        for (std::size_t i = candidates.size(); i > 1; --i)
            std::swap(candidates[i - 1], candidates[rng.below(i)]);
        candidates.push_back(vars + 7);

        std::vector<std::uint32_t> counts;
        aig.dependentCounts(scan.cone, candidates, counts);
        ASSERT_EQ(counts.size(), candidates.size());

        std::vector<std::uint32_t> reference(vars + 8, 0);
        std::size_t ands = 0;
        for (std::uint32_t idx : scan.cone) {
            const AigEdge node(idx, false);
            if (!aig.isAnd(node)) continue;
            ++ands;
            for (Var v : aig.support(node)) ++reference[v];
        }
        ASSERT_EQ(ands, scan.coneSize) << "seed " << seed;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            EXPECT_EQ(counts[i], reference[candidates[i]])
                << "seed " << seed << ", var " << candidates[i];
        }
    }
}

// ------------------------------------------------------ capped cofactors --

TEST(QbfOrder, CappedCofactorPairStopsAtCapPlusOneNodes)
{
    Rng rng(17);
    Aig aig;
    const AigEdge root = chainCone(aig, rng, 16, 3000);
    const UnitPureInfo scan = aig.detectUnitPure(root);
    const auto full = aig.cofactorPair(root, 3, scan.cone, Deadline::unlimited());
    ASSERT_TRUE(full.first.isValid());

    // Fresh manager, same construction: the capped pass meets new nodes.
    for (std::size_t cap : {0u, 1u, 10u, 500u}) {
        Rng again(17);
        Aig fresh;
        const AigEdge f = chainCone(fresh, again, 16, 3000);
        const UnitPureInfo s = fresh.detectUnitPure(f);
        const std::size_t before = fresh.numNodes();
        const auto [lo, hi] = fresh.cofactorPair(f, 3, s.cone, Deadline::unlimited(), nullptr, cap);
        EXPECT_FALSE(lo.isValid()) << cap;
        EXPECT_FALSE(hi.isValid()) << cap;
        EXPECT_GT(fresh.numNodes() - before, cap);
        EXPECT_LE(fresh.numNodes() - before, cap + 1);
    }
    // A cap the pass never reaches changes nothing.
    const std::size_t before = aig.numNodes();
    const auto same = aig.cofactorPair(root, 3, scan.cone, Deadline::unlimited(), nullptr, 0);
    EXPECT_EQ(same, full); // every node exists already: nothing allocated
    EXPECT_EQ(aig.numNodes(), before);
}

TEST(QbfOrder, CappedBuildLeavesTheMatrixAndTraceAndIsNoDeadlineExpiry)
{
    Rng rng(23);
    Aig aig;
    const AigEdge root = chainCone(aig, rng, 16, 3000);
    SkolemRecorder recorder;
    ElimStats stats;
    ElimKernel kernel(aig, root, ElimLimits{}, &recorder, stats);

    BuiltElimination capped;
    EXPECT_EQ(kernel.build(3, QuantKind::Exists, capped, 5), SolveResult::Unknown);
    EXPECT_FALSE(capped.built());
    EXPECT_EQ(kernel.matrix(), root);
    EXPECT_TRUE(recorder.records().empty());

    // An uncapped build leaves the matrix too, until it is committed.
    BuiltElimination built;
    EXPECT_EQ(kernel.build(3, QuantKind::Exists, built), SolveResult::Unknown);
    ASSERT_TRUE(built.built());
    EXPECT_EQ(kernel.matrix(), root);
    EXPECT_TRUE(recorder.records().empty());
    kernel.commit(built);
    EXPECT_EQ(kernel.matrix(), built.matrix);
    EXPECT_EQ(existsRecords(recorder), 1u);

    // Under an expired deadline: a cap that stops the pass before its first
    // deadline poll is still a capped stop; without a cap it is a timeout.
    Aig slow;
    Rng again(23);
    const AigEdge f = chainCone(slow, again, 16, 12000);
    ElimLimits expired;
    expired.deadline = Deadline::in(1e-6);
    while (!expired.deadline.expired()) {
    }
    ElimKernel late(slow, f, expired, nullptr, stats);
    BuiltElimination out;
    EXPECT_EQ(late.build(3, QuantKind::Forall, out, 5), SolveResult::Unknown);
    EXPECT_FALSE(out.built());
    EXPECT_EQ(late.build(3, QuantKind::Forall, out), SolveResult::Timeout);
    EXPECT_FALSE(out.built());
    EXPECT_EQ(late.matrix(), f);
}

// ------------------------------------------------------- the order trial --

/// A random QBF over 7..12 variables: 2..4 alternating blocks, 3-CNF
/// matrix.
QbfProblem randomBlockQbf(Rng& rng)
{
    QbfProblem q;
    const Var n = 7 + static_cast<Var>(rng.below(6));
    q.matrix.ensureVars(n);
    const std::size_t clauses = n * 2 + rng.below(2 * n);
    for (std::size_t c = 0; c < clauses; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    const std::size_t blocks = 2 + rng.below(3);
    QuantKind kind = rng.flip() ? QuantKind::Forall : QuantKind::Exists;
    Var v = 0;
    for (std::size_t b = 0; b < blocks && v < n; ++b) {
        const Var size = b + 1 == blocks ? n - v : 1 + static_cast<Var>(rng.below(n - v));
        std::vector<Var> vars;
        for (Var i = 0; i < size; ++i) vars.push_back(v++);
        q.prefix.addBlock(kind, std::move(vars));
        kind = kind == QuantKind::Forall ? QuantKind::Exists : QuantKind::Forall;
    }
    return q;
}

ParsedQdimacs toParsed(const QbfProblem& q)
{
    ParsedQdimacs p;
    p.matrix = q.matrix;
    for (const QbfBlock& b : q.prefix.blocks()) p.blocks.push_back({b.kind, b.vars});
    return p;
}

TEST(QbfOrder, BackendVerdictsMatchTheOracleAndEveryCertificateChecks)
{
    std::size_t trials = 0;
    std::size_t capped = 0;
    std::size_t certifiedAfterTrial = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(seed * 4111 + 5);
        const QbfProblem q = randomBlockQbf(rng);
        const bool expected = bruteForceQbf(q);
        for (const bool unitPure : {true, false}) {
            auto aig = std::make_shared<Aig>();
            const AigEdge matrix = buildFromCnf(*aig, q.matrix);
            SkolemRecorder recorder;
            AigQbfOptions opts;
            opts.unitPure = unitPure;
            opts.recorder = &recorder;
            AigQbfSolver solver(opts);
            const SolveResult r = solver.solve(*aig, matrix, q.prefix);
            ASSERT_EQ(r, expected ? SolveResult::Sat : SolveResult::Unsat) << "seed " << seed;
            const AigQbfStats& st = solver.stats();
            trials += st.orderTrials;
            capped += st.orderCapped;
            // The trial's loser leaves no trace.
            EXPECT_EQ(existsRecords(recorder), st.existentialEliminations) << "seed " << seed;
            if (!expected) continue;
            const DqbfFormula f = DqbfFormula::fromParsed(toParsed(q));
            const AigSkolemCertificate skolem = reconstructSkolem(f, aig, recorder);
            const cert::CheckResult check = cert::checkCertificateText(
                cert::toCertificateString(cert::extractCertificate(f, skolem)));
            EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << cert::toString(check.status)
                                    << " (" << check.detail << ")";
            if (st.orderTrials > 0) ++certifiedAfterTrial;
        }
    }
    EXPECT_GT(trials, 100u);
    EXPECT_GT(capped, 0u);
    EXPECT_GT(certifiedAfterTrial, 30u);
}

TEST(QbfOrder, TrialCommitsTheSmallerOfTheTwoCandidates)
{
    std::size_t bWon = 0;
    std::size_t aWon = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed * 2087 + 1);
        // One existential block: the first elimination is the trial.
        QbfProblem q;
        const Var n = 8 + static_cast<Var>(rng.below(6));
        q.matrix.ensureVars(n);
        for (std::size_t c = 0; c < 3 * n; ++c) {
            Clause cl;
            for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
            q.matrix.addClause(std::move(cl));
        }
        std::vector<Var> vars;
        for (Var v = 0; v < n; ++v) vars.push_back(v);
        q.prefix.addBlock(QuantKind::Exists, vars);

        // The reference: both candidates of the first step, priced and
        // built the way the trial does it, in a manager of the same history.
        Aig ref;
        ElimStats refStats;
        ElimKernel kernel(ref, buildFromCnf(ref, q.matrix), ElimLimits{}, nullptr, refStats);
        if (kernel.isConstant()) continue;
        const UnitPureInfo& scan = kernel.scan();
        std::vector<Var> candidates;
        for (Var v : vars)
            if (scan.occurrencesOf(v) > 0) candidates.push_back(v);
        std::vector<std::uint32_t> deps;
        ref.dependentCounts(scan.cone, candidates, deps);
        std::size_t a = 0;
        std::size_t b = 0;
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const auto occ = [&](std::size_t j) { return scan.occurrencesOf(candidates[j]); };
            if (occ(i) < occ(a)) a = i;
            if (deps[i] < deps[b] || (deps[i] == deps[b] && occ(i) < occ(b))) b = i;
        }
        if (a == b) continue;
        BuiltElimination ea;
        BuiltElimination eb;
        ASSERT_EQ(kernel.build(candidates[a], QuantKind::Exists, ea), SolveResult::Unknown);
        const std::size_t coneA = ref.coneSize(ea.matrix);
        const std::size_t untouched = scan.coneSize - deps[b];
        ASSERT_EQ(kernel.build(candidates[b], QuantKind::Exists, eb,
                               coneA > untouched ? coneA - untouched : 0),
                  SolveResult::Unknown);
        const bool bWins = eb.built() && ref.coneSize(eb.matrix) < coneA;
        (bWins ? bWon : aWon) += 1;

        Aig aig;
        const AigEdge matrix = buildFromCnf(aig, q.matrix);
        SkolemRecorder recorder;
        AigQbfOptions opts;
        opts.unitPure = false;
        opts.recorder = &recorder;
        AigQbfSolver solver(opts);
        (void)solver.solve(aig, matrix, q.prefix);
        ASSERT_GE(solver.stats().orderTrials, 1u) << "seed " << seed;
        // Block variables the matrix lacks are dropped (Constant records)
        // before the first elimination.
        const auto first = std::find_if(
            recorder.records().begin(), recorder.records().end(),
            [](const auto& r) { return std::holds_alternative<SkolemRecorder::Exists>(r); });
        ASSERT_NE(first, recorder.records().end()) << "seed " << seed;
        EXPECT_EQ(std::get<SkolemRecorder::Exists>(*first).var, candidates[bWins ? b : a])
            << "seed " << seed;
    }
    EXPECT_GT(bWon, 10u);
    EXPECT_GT(aWon, 10u);
}

/// forall inputs exists Tseitin auxiliaries: two copies of a @p width-bit
/// adder whose outputs must agree; with @p bug the first output pair must
/// differ instead.  Sat iff no bug.
QbfProblem adderMiter(unsigned width, bool bug)
{
    const PecInstance ref = makeInstance(Family::Adder, width, true);
    QbfProblem q;
    std::unordered_map<Circuit::NodeId, Var> fixed;
    std::vector<Var> inputs;
    for (Circuit::NodeId in : ref.spec.inputs()) {
        inputs.push_back(q.matrix.newVar());
        fixed.emplace(in, inputs.back());
    }
    auto fresh = [&q]() { return q.matrix.newVar(); };
    const std::vector<Var> va = tseitinEncode(ref.spec, q.matrix, fixed, fresh);
    const std::vector<Var> vb = tseitinEncode(ref.spec, q.matrix, fixed, fresh);
    for (std::size_t j = 0; j < ref.spec.outputs().size(); ++j) {
        const Circuit::NodeId out = ref.spec.outputs()[j];
        const Lit b = Lit(vb[out], bug && j == 0);
        q.matrix.addClause({Lit::neg(va[out]), b});
        q.matrix.addClause({Lit::pos(va[out]), ~b});
    }
    q.prefix.addBlock(QuantKind::Forall, inputs);
    std::vector<Var> aux;
    for (Var v = 0; v < q.matrix.numVars(); ++v) {
        if (std::find(inputs.begin(), inputs.end(), v) == inputs.end()) aux.push_back(v);
    }
    q.prefix.addBlock(QuantKind::Exists, aux);
    return q;
}

TEST(QbfOrder, FourBitAdderMitersAreDecided)
{
    // A large inner ∃ block of Tseitin auxiliaries: eliminated in variable
    // order these cones blow up; the trial finds a cheaper order.  The
    // deadline is generous so that a loaded or instrumented run stays
    // decided.
    for (const bool bug : {false, true}) {
        const QbfProblem q = adderMiter(4, bug);
        Aig aig;
        const AigEdge matrix = buildFromCnf(aig, q.matrix);
        AigQbfOptions opts;
        opts.deadline = Deadline::in(120);
        AigQbfSolver solver(opts);
        EXPECT_EQ(solver.solve(aig, matrix, q.prefix), bug ? SolveResult::Unsat : SolveResult::Sat);
        EXPECT_GE(solver.stats().orderTrials, 1u);
    }
}

} // namespace
} // namespace hqs
