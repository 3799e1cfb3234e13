// QBF backend comparison: the paper plugs an AIG-elimination solver
// (AIGSOLVE) into HQS and motivates AIGs over BDDs.  This bench races the
// repository's two QBF engines — AIG elimination and BDD elimination — on
// two workloads:
//
//   * random k-CNF QBFs with alternating prefixes (phase-transition mix);
//   * 2-QBF equivalence-checking instances (forall inputs, exists Tseitin
//     auxiliaries: miter of an adder against a buggy copy).
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/bdd_qbf_solver.hpp"

using namespace hqs;
using namespace hqs::bench;

namespace {

struct EngineResult {
    SolveResult result;
    double ms;
};

struct Row {
    std::string name;
    EngineResult aigElim, bddElim;
    bool agree = true;
};

EngineResult timeIt(const std::function<SolveResult()>& run)
{
    Timer t;
    const SolveResult r = run();
    return {r, t.elapsedMilliseconds()};
}

Row runAll(const std::string& name, const QbfProblem& q, double timeoutSeconds)
{
    Row row;
    row.name = name;
    row.aigElim = timeIt([&] {
        Aig aig;
        const AigEdge matrix = buildFromCnf(aig, q.matrix);
        AigQbfOptions opts;
        opts.deadline = Deadline::in(timeoutSeconds);
        AigQbfSolver s(opts);
        return s.solve(aig, matrix, q.prefix);
    });
    row.bddElim = timeIt([&] {
        BddQbfOptions opts;
        opts.deadline = Deadline::in(timeoutSeconds);
        BddQbfSolver s(opts);
        return s.solve(q.matrix, q.prefix);
    });
    row.agree = !isConclusive(row.aigElim.result) || !isConclusive(row.bddElim.result) ||
                row.aigElim.result == row.bddElim.result;
    return row;
}

QbfProblem randomQbf(Rng& rng, Var n, int clauses)
{
    QbfProblem q;
    q.matrix.ensureVars(n);
    for (int c = 0; c < clauses; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v) {
        q.prefix.addVar(rng.flip() ? QuantKind::Forall : QuantKind::Exists, v);
    }
    return q;
}

/// 2-QBF equivalence check: forall inputs exists aux: Tseitin(spec) &
/// Tseitin(dut) & (out_spec XOR out_dut is FALSE) encoded as clauses; UNSAT
/// of the miter output means equivalent, posed here as the QBF
/// "forall X exists T: defs & ~miter" (Sat iff equivalent).
QbfProblem equivalenceQbf(unsigned width, bool injectBug)
{
    const PecInstance ref = makeInstance(Family::Adder, width, true);
    QbfProblem q;
    std::unordered_map<Circuit::NodeId, Var> fixedA, fixedB;
    std::vector<Var> inputs;
    for (std::size_t i = 0; i < ref.spec.inputs().size(); ++i) {
        const Var v = q.matrix.newVar();
        inputs.push_back(v);
        fixedA.emplace(ref.spec.inputs()[i], v);
        fixedB.emplace(ref.spec.inputs()[i], v);
    }
    auto fresh = [&]() { return q.matrix.newVar(); };
    const auto va = tseitinEncode(ref.spec, q.matrix, fixedA, fresh);
    const auto vb = tseitinEncode(ref.spec, q.matrix, fixedB, fresh);

    // Equality constraints on outputs (XNOR as two implications), with an
    // optional bug: invert one output pairing.
    for (std::size_t j = 0; j < ref.spec.outputs().size(); ++j) {
        Lit a = Lit::pos(va[ref.spec.outputs()[j]]);
        Lit b = Lit::pos(vb[ref.spec.outputs()[j]]);
        if (injectBug && j == 0) b = ~b;
        q.matrix.addClause({~a, b});
        q.matrix.addClause({a, ~b});
    }

    q.prefix.addBlock(QuantKind::Forall, inputs);
    std::vector<Var> aux;
    for (Var v = 0; v < q.matrix.numVars(); ++v) {
        bool isInput = false;
        for (Var in : inputs) {
            if (in == v) {
                isInput = true;
                break;
            }
        }
        if (!isInput) aux.push_back(v);
    }
    q.prefix.addBlock(QuantKind::Exists, aux);
    return q;
}

void printRow(const Row& row)
{
    auto cell = [](const EngineResult& e) {
        static char buf[48];
        std::snprintf(buf, sizeof(buf), "%-7s %9.2f", toString(e.result).c_str(), e.ms);
        return std::string(buf);
    };
    std::printf("%-24s | %s | %s | %s\n", row.name.c_str(), cell(row.aigElim).c_str(),
                cell(row.bddElim).c_str(), row.agree ? "ok" : "DISAGREE");
    std::fflush(stdout);
}

} // namespace

int main()
{
    const SuiteParams params = suiteParamsFromEnv();
    std::printf("QBF backend comparison — per-engine timeout %.1f s\n\n", params.timeoutSeconds);
    std::printf("%-24s | %-17s | %-17s |\n", "instance", "AIG-elim [26]", "BDD-elim [23]");
    std::printf("%.*s\n", 70,
                "----------------------------------------------------------------------");

    int disagreements = 0;
    Rng rng(12345);
    for (Var n : {12u, 16u, 20u}) {
        for (int i = 0; i < 3; ++i) {
            // Alternate between under- and over-constrained densities so the
            // suite has both SAT and UNSAT random instances.
            const int clauses = static_cast<int>(n) * (i == 0 ? 2 : 4);
            const QbfProblem q = randomQbf(rng, n, clauses);
            const Row row = runAll("random3qbf_n" + std::to_string(n) + "_" + std::to_string(i),
                                   q, params.timeoutSeconds);
            printRow(row);
            if (!row.agree) ++disagreements;
        }
    }
    for (unsigned w : {4u, 6u, 8u}) {
        for (bool bug : {false, true}) {
            const QbfProblem q = equivalenceQbf(w, bug);
            const Row row = runAll(
                "adder_eq_w" + std::to_string(w) + (bug ? "_bug" : "_ok"), q,
                params.timeoutSeconds);
            printRow(row);
            if (!row.agree) ++disagreements;
        }
    }
    std::printf("\nengine disagreements: %d (must be 0)\n", disagreements);
    return disagreements == 0 ? 0 : 1;
}
