// Elimination order under variable renumbering: the same PEC formula under
// eight seeded renumberings must get the same verdict from HQS, whatever
// order the renumbering leads the QBF backend to.  The test also prints
// the spread of each instance's work (aig.strash.probes, min and max over
// the renumberings), the figure an order that is independent of the
// numbering would bring close to one.  Compiled into the aig/, tsan/ and
// asan/ binaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuit/families.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/obs/obs.hpp"
#include "src/pec/pec_encoder.hpp"

namespace hqs {
namespace {

/// @p f with its variables permuted by a seeded shuffle.
DqbfFormula renumbered(const DqbfFormula& f, std::uint64_t seed)
{
    const ParsedQdimacs in = f.toParsed();
    Var n = in.matrix.numVars();
    for (const PrefixBlockSpec& b : in.blocks)
        for (Var v : b.vars) n = std::max(n, v + 1);
    for (const DependencySpec& d : in.henkin) n = std::max(n, d.var + 1);
    std::vector<Var> perm(n);
    for (Var v = 0; v < n; ++v) perm[v] = v;
    Rng rng(seed);
    for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);

    ParsedQdimacs out;
    out.matrix = Cnf(n);
    for (const Clause& c : in.matrix) {
        Clause mapped;
        for (std::size_t i = 0; i < c.size(); ++i)
            mapped.push(Lit(perm[c[i].var()], c[i].negative()));
        out.matrix.addClause(std::move(mapped));
    }
    for (const PrefixBlockSpec& b : in.blocks) {
        PrefixBlockSpec nb{b.kind, {}};
        for (Var v : b.vars) nb.vars.push_back(perm[v]);
        out.blocks.push_back(std::move(nb));
    }
    for (const DependencySpec& d : in.henkin) {
        DependencySpec nd{perm[d.var], {}};
        for (Var v : d.deps) nd.deps.push_back(perm[v]);
        out.henkin.push_back(std::move(nd));
    }
    return DqbfFormula::fromParsed(out);
}

struct Solved {
    SolveResult result;
    std::int64_t strashProbes;
};

Solved solveCounted(const DqbfFormula& f)
{
    obs::MetricScope scope;
    HqsSolver solver;
    const SolveResult r = solver.solve(f);
    std::int64_t probes = 0;
    for (const obs::MetricValue& m : scope.snapshot())
        if (m.name == "aig.strash.probes") probes = m.value;
    return {r, probes};
}

TEST(QbfOrder, RenumberedPecInstancesKeepTheirVerdicts)
{
    struct Case {
        Family family;
        unsigned width;
        bool realizable;
    };
    const Case cases[] = {{Family::Comp, 3, true},      {Family::Adder, 6, true},
                          {Family::Comp, 6, false},     {Family::Lookahead, 5, true},
                          {Family::C432, 4, false},     {Family::Z4, 7, false}};
    for (const Case& c : cases) {
        const std::string name = toString(c.family) + "_w" + std::to_string(c.width) +
                                 (c.realizable ? "_sat" : "_unsat");
        const DqbfFormula f = encodePec(makeInstance(c.family, c.width, c.realizable)).formula;
        const SolveResult expected = c.realizable ? SolveResult::Sat : SolveResult::Unsat;
        const Solved base = solveCounted(f);
        ASSERT_EQ(base.result, expected) << name;
        std::int64_t lo = base.strashProbes;
        std::int64_t hi = base.strashProbes;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const Solved s = solveCounted(renumbered(f, seed * 977));
            EXPECT_EQ(s.result, expected) << name << ", renumbering " << seed;
            lo = std::min(lo, s.strashProbes);
            hi = std::max(hi, s.strashProbes);
        }
        std::cout << "[ probes   ] " << name << " min " << lo << " max " << hi << "\n";
    }
}

} // namespace
} // namespace hqs
