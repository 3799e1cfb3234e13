// Differential and invariant tests for the rebuilt AIG kernel: the dense
// open-addressing strash, the generation-stamped traversal cache, the one
// cone rebuild behind cofactor/compose/substitute, mark-compact garbage
// collection, cross-manager importCone, and the live-node budget semantics
// built on top of them, and the elimination kernel the HQS main loop and
// the AIG QBF backend share (its cached matrix scan and batched unit/pure
// pass).
// Substitute/cofactor results are checked two ways: point-wise against
// semantic evaluation over every assignment, and via SAT equivalence
// through the CNF bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "src/aig/aig.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/elim_kernel.hpp"
#include "src/sat/sat_solver.hpp"
#include "tests/certify.hpp"

namespace hqs {
namespace {

constexpr Var kVars = 6; // 64 assignments: exhaustive checks stay cheap

/// Random cone over variables 0..kVars-1 built from @p ops and/xor steps.
AigEdge randomCone(Aig& aig, Rng& rng, std::size_t ops)
{
    std::vector<AigEdge> pool;
    for (Var v = 0; v < kVars; ++v) pool.push_back(aig.variable(v));
    pool.push_back(aig.constTrue());
    for (std::size_t i = 0; i < ops; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkXor(a, b));
    }
    return pool.back() ^ rng.flip();
}

std::vector<bool> assignmentFromBits(unsigned bits)
{
    std::vector<bool> a(kVars);
    for (Var v = 0; v < kVars; ++v) a[v] = (bits >> v) & 1u;
    return a;
}

std::uint64_t truthTable(const Aig& aig, AigEdge root)
{
    std::uint64_t tt = 0;
    for (unsigned bits = 0; bits < (1u << kVars); ++bits) {
        if (aig.evaluate(root, assignmentFromBits(bits))) tt |= 1ull << bits;
    }
    return tt;
}

bool satEquivalent(Aig& aig, AigEdge a, AigEdge b)
{
    const AigEdge diff = aig.mkXor(a, b);
    if (aig.isConstant(diff)) return !aig.constantValue(diff);
    SatSolver sat;
    AigCnfBridge bridge(aig, sat);
    return sat.solve({bridge.litFor(diff)}) == SolveResult::Unsat;
}

// ---------------------------------------------------------------- strash --

TEST(AigKernel, StrashDeduplicatesAndCountsProbes)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge e = aig.mkAnd(x, y);
    const std::size_t n = aig.numNodes();
    // Same fanins (in either order) must return the identical node.
    EXPECT_EQ(aig.mkAnd(x, y), e);
    EXPECT_EQ(aig.mkAnd(y, x), e);
    EXPECT_EQ(aig.numNodes(), n);
    EXPECT_GT(aig.kernelStats().strashProbes, 0u);
}

TEST(AigKernel, StrashGrowsUnderLoad)
{
    Aig aig;
    Rng rng(7);
    randomCone(aig, rng, 20000);
    const AigKernelStats& st = aig.kernelStats();
    EXPECT_GE(st.strashResizes, 1u); // initial table is 1024 slots
    EXPECT_EQ(st.peakAllocatedNodes, aig.numNodes());
}

// ----------------------------------------------- substitute / cofactor ---

TEST(AigKernel, SubstituteMatchesSemanticEvaluation)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Aig aig;
        Rng rng(seed);
        const AigEdge f = randomCone(aig, rng, 60);

        Substitution sub;
        std::vector<AigEdge> images(kVars);
        for (Var v = 0; v < kVars; ++v) {
            images[v] = aig.variable(v);
            if (rng.flip()) {
                images[v] = randomCone(aig, rng, 10);
                sub.set(v, images[v]);
            }
        }
        const AigEdge g = aig.substitute(f, sub);

        for (unsigned bits = 0; bits < (1u << kVars); ++bits) {
            const std::vector<bool> a = assignmentFromBits(bits);
            std::vector<bool> mapped(kVars);
            for (Var v = 0; v < kVars; ++v) mapped[v] = aig.evaluate(images[v], a);
            EXPECT_EQ(aig.evaluate(g, a), aig.evaluate(f, mapped))
                << "seed " << seed << " bits " << bits;
        }
    }
}

TEST(AigKernel, CofactorMatchesSemanticEvaluation)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Aig aig;
        Rng rng(seed * 31);
        const AigEdge f = randomCone(aig, rng, 60);
        const Var v = static_cast<Var>(rng.below(kVars));
        const bool value = rng.flip();
        const AigEdge cof = aig.cofactor(f, v, value);

        for (unsigned bits = 0; bits < (1u << kVars); ++bits) {
            std::vector<bool> a = assignmentFromBits(bits);
            a[v] = value;
            EXPECT_EQ(aig.evaluate(cof, assignmentFromBits(bits)), aig.evaluate(f, a))
                << "seed " << seed << " bits " << bits;
        }
    }
}

TEST(AigKernel, DoubleSwapIsSatEquivalentToOriginal)
{
    // Swapping two variables twice must give back the original function;
    // checked through the CNF bridge rather than point-wise evaluation.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Aig aig;
        Rng rng(seed * 97);
        const AigEdge f = randomCone(aig, rng, 80);
        Substitution swap;
        swap.set(0, aig.variable(1));
        swap.set(1, aig.variable(0));
        const AigEdge once = aig.substitute(f, swap);
        swap.clear();
        swap.set(0, aig.variable(1));
        swap.set(1, aig.variable(0));
        const AigEdge twice = aig.substitute(once, swap);
        EXPECT_TRUE(satEquivalent(aig, f, twice)) << "seed " << seed;
    }
}

TEST(AigKernel, RepeatedCofactorReturnsTheSameEdge)
{
    Aig aig;
    Rng rng(11);
    const AigEdge f = randomCone(aig, rng, 200);
    const AigEdge first = aig.cofactor(f, 0, true);
    const std::size_t nodesAfterFirst = aig.numNodes();
    const AigEdge second = aig.cofactor(f, 0, true);
    EXPECT_EQ(first, second);
    // Structural hashing finds every rebuilt node: the repeat allocates none.
    EXPECT_EQ(aig.numNodes(), nodesAfterFirst);
}

TEST(AigKernel, SingleVariablePathsMatchTheGenericRebuild)
{
    // cofactor, compose and a one-entry substitute must give the identical
    // edge as a two-entry substitute whose second entry maps a variable to
    // itself (which forces the generic multi-variable lookup).
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Aig aig;
        Rng rng(seed * 131);
        const AigEdge f = randomCone(aig, rng, 150);
        const AigEdge g = randomCone(aig, rng, 20);
        const Var v = static_cast<Var>(rng.below(kVars));
        const Var w = static_cast<Var>((v + 1 + rng.below(kVars - 1)) % kVars);
        auto generic = [&](AigEdge image) {
            Substitution sub;
            sub.set(v, image);
            sub.set(w, aig.variable(w));
            return aig.substitute(f, sub);
        };
        for (const bool value : {false, true}) {
            const AigEdge expected = generic(value ? aig.constTrue() : aig.constFalse());
            EXPECT_EQ(aig.cofactor(f, v, value), expected) << "seed " << seed;
        }
        const AigEdge expected = generic(g);
        EXPECT_EQ(aig.compose(f, v, g), expected) << "seed " << seed;
        Substitution one;
        one.set(v, g);
        EXPECT_EQ(aig.substitute(f, one), expected) << "seed " << seed;
    }
}

/// g over variables 0..7 and h over 8..13 share no AND node; returns
/// g & h, with g and h through the out-parameters.
AigEdge twoSubcones(Aig& aig, AigEdge* g, AigEdge* h)
{
    Rng rng(41);
    std::vector<AigEdge> pool;
    auto grow = [&](Var first, Var count, std::size_t ops) {
        pool.clear();
        for (Var v = first; v < first + count; ++v) pool.push_back(aig.variable(v));
        for (std::size_t i = 0; i < ops; ++i) {
            const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
            const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
            pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkXor(a, b));
        }
        AigEdge out = aig.constFalse();
        for (std::size_t i = pool.size() - 10; i < pool.size(); ++i) out = aig.mkXor(out, pool[i]);
        return out;
    };
    *g = grow(0, 8, 3000);
    *h = grow(8, 6, 100);
    return aig.mkAnd(*g, *h);
}

TEST(AigKernel, CofactorPaysNoProbesOutsideTheVariablesSubcone)
{
    // Two identical managers: one cofactors the whole cone, the other only
    // the subcone that reads the variable and then builds the top node by
    // hand.  The whole-cone rebuild walks g too, but every g node comes back
    // unchanged, so both pay the same strash probes.
    constexpr Var kV = 13;
    Aig whole;
    Aig part;
    AigEdge g, h, wg, wh;
    const AigEdge f = twoSubcones(part, &g, &h);
    const AigEdge wf = twoSubcones(whole, &wg, &wh);
    ASSERT_EQ(f, wf);
    const std::vector<Var> gSupport = part.support(g);
    ASSERT_FALSE(std::binary_search(gSupport.begin(), gSupport.end(), kV));
    const std::vector<Var> hSupport = part.support(h);
    ASSERT_TRUE(std::binary_search(hSupport.begin(), hSupport.end(), kV));
    ASSERT_GT(part.coneSize(g), 500u);
    ASSERT_TRUE(part.isAnd(f) && !f.complemented());

    const std::uint64_t p0 = part.kernelStats().strashProbes;
    const AigEdge h1 = part.cofactor(h, kV, true);
    ASSERT_NE(h1, h);
    auto image = [&](AigEdge e) { return e.nodeIndex() == h.nodeIndex() ? h1 ^ (e != h) : e; };
    const AigEdge top = part.mkAnd(image(part.fanin0(f)), image(part.fanin1(f)));
    const std::uint64_t partProbes = part.kernelStats().strashProbes - p0;

    const std::uint64_t w0 = whole.kernelStats().strashProbes;
    const AigEdge cof = whole.cofactor(wf, kV, true);
    const std::uint64_t wholeProbes = whole.kernelStats().strashProbes - w0;
    EXPECT_EQ(cof, top);
    EXPECT_EQ(wholeProbes, partProbes);
    EXPECT_EQ(whole.numNodes(), part.numNodes());
    // A variable outside the cone's support leaves it as it is, probe-free.
    const std::uint64_t before = whole.kernelStats().strashProbes;
    EXPECT_EQ(whole.cofactor(wg, kV, false), wg);
    EXPECT_EQ(whole.kernelStats().strashProbes, before);
}

// ---------------------------------------------------------- cofactorPair --
//
// The elimination rebuild: one ascending pass over the scan's cone list that
// builds both cofactors.  Within one manager it must return the DFS
// rebuild's edges exactly, so re-deriving either cofactor afterwards finds
// every node in the strash.

/// cofactorPair(root, v) against cofactor(root, v, false/true), edge for
/// edge, with the DFS re-derivation allocating nothing.
void expectPairMatchesDfs(Aig& aig, AigEdge root, Var v, const std::string& what)
{
    const UnitPureInfo scan = aig.detectUnitPure(root);
    const auto [lo, hi] = aig.cofactorPair(root, v, scan.cone, Deadline::unlimited());
    ASSERT_TRUE(lo.isValid() && hi.isValid()) << what;
    const std::uint64_t ands = aig.kernelStats().ands;
    EXPECT_EQ(lo, aig.cofactor(root, v, false)) << what;
    EXPECT_EQ(hi, aig.cofactor(root, v, true)) << what;
    EXPECT_EQ(aig.kernelStats().ands, ands) << what;
}

TEST(AigKernel, ScanListsTheConeInDescendingIndexOrder)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Aig aig;
        Rng rng(seed * 61);
        const AigEdge f = randomCone(aig, rng, 120);
        if (aig.isConstant(f)) continue;
        const UnitPureInfo scan = aig.detectUnitPure(f);
        ASSERT_FALSE(scan.cone.empty());
        EXPECT_EQ(scan.cone.front(), f.nodeIndex());
        EXPECT_TRUE(std::is_sorted(scan.cone.rbegin(), scan.cone.rend()));
        EXPECT_EQ(std::adjacent_find(scan.cone.begin(), scan.cone.end()), scan.cone.end());
        std::size_t ands = 0;
        for (const std::uint32_t idx : scan.cone) {
            if (aig.isAnd(AigEdge(idx, false))) ++ands;
        }
        EXPECT_EQ(ands, scan.coneSize);
        EXPECT_EQ(scan.cone.size() - ands, aig.support(f).size());
    }
    Aig aig;
    EXPECT_TRUE(aig.detectUnitPure(aig.constTrue()).cone.empty());
}

TEST(AigKernel, CofactorPairMatchesBothDfsCofactorsEdgeForEdge)
{
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        Aig aig;
        Rng rng(seed * 977);
        const AigEdge f = randomCone(aig, rng, 40 + rng.below(260));
        const Var v = static_cast<Var>(rng.below(kVars));
        const std::string what = "seed " + std::to_string(seed);
        const std::uint64_t tt = truthTable(aig, f);
        expectPairMatchesDfs(aig, f, v, what);
        // Either polarity of the root.
        expectPairMatchesDfs(aig, ~f, v, what + " complemented");
        // Semantics, independent of the DFS.
        const auto [lo, hi] =
            aig.cofactorPair(f, v, aig.detectUnitPure(f).cone, Deadline::unlimited());
        std::uint64_t lo0 = 0, hi1 = 0;
        for (unsigned bits = 0; bits < (1u << kVars); ++bits) {
            if ((tt >> (bits & ~(1u << v))) & 1u) lo0 |= 1ull << bits;
            if ((tt >> (bits | (1u << v))) & 1u) hi1 |= 1ull << bits;
        }
        EXPECT_EQ(truthTable(aig, lo), lo0) << what;
        EXPECT_EQ(truthTable(aig, hi), hi1) << what;
    }
}

TEST(AigKernel, CofactorPairHandlesInputRootsAbsentVariablesAndConstants)
{
    Aig aig;
    Rng rng(5);
    const AigEdge f = randomCone(aig, rng, 200);
    const AigEdge x = aig.variable(3);
    // A root that is v's input, in both polarities.
    for (const AigEdge root : {x, ~x}) {
        const auto [lo, hi] =
            aig.cofactorPair(root, 3, aig.detectUnitPure(root).cone, Deadline::unlimited());
        EXPECT_EQ(lo, aig.constFalse() ^ root.complemented());
        EXPECT_EQ(hi, aig.constTrue() ^ root.complemented());
    }
    expectPairMatchesDfs(aig, x, 3, "input root");
    expectPairMatchesDfs(aig, ~x, 3, "complemented input root");
    // Another variable's input, and v absent from the cone (in the manager
    // or not at all): both images are the root, nothing is allocated.
    const AigEdge far = aig.variable(40);
    const std::uint64_t ands = aig.kernelStats().ands;
    for (const Var v : {Var{40}, Var{77}}) {
        const auto [lo, hi] =
            aig.cofactorPair(f, v, aig.detectUnitPure(f).cone, Deadline::unlimited());
        EXPECT_EQ(lo, f);
        EXPECT_EQ(hi, f);
    }
    const auto [flo, fhi] =
        aig.cofactorPair(~far, 3, aig.detectUnitPure(~far).cone, Deadline::unlimited());
    EXPECT_EQ(flo, ~far);
    EXPECT_EQ(fhi, ~far);
    EXPECT_EQ(aig.kernelStats().ands, ands);
    expectPairMatchesDfs(aig, f, 40, "absent variable");
    // A constant root has an empty cone.
    for (const AigEdge c : {aig.constFalse(), aig.constTrue()}) {
        const auto [lo, hi] = aig.cofactorPair(c, 3, {}, Deadline::unlimited());
        EXPECT_EQ(lo, c);
        EXPECT_EQ(hi, c);
    }
}

TEST(AigKernel, RenamedCofactorPairIsTheOnePassTheorem1Substitution)
{
    // The high image under a renaming is phi[1/v][renaming]: the same edge
    // as one parallel substitution {v -> 1, y -> y'} by the DFS rebuild.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Aig aig;
        Rng rng(seed * 389);
        const AigEdge f = randomCone(aig, rng, 60 + rng.below(200));
        const Var v = static_cast<Var>(rng.below(kVars));
        Substitution renaming;
        for (Var y = 0; y < kVars; ++y) {
            if (y != v && rng.flip()) renaming.set(y, aig.variable(100 + y));
        }
        const auto [lo, hi] = aig.cofactorPair(f, v, aig.detectUnitPure(f).cone,
                                               Deadline::unlimited(), &renaming);
        const std::uint64_t ands = aig.kernelStats().ands;
        Substitution whole;
        whole.set(v, aig.constTrue());
        for (const Var y : renaming.domain()) whole.set(y, renaming.image(y));
        EXPECT_EQ(lo, aig.cofactor(f, v, false)) << "seed " << seed;
        EXPECT_EQ(hi, aig.substitute(f, whole)) << "seed " << seed;
        EXPECT_EQ(aig.kernelStats().ands, ands) << "seed " << seed;
        // And the function of the old two-step path.
        EXPECT_TRUE(satEquivalent(aig, hi, aig.substitute(aig.cofactor(f, v, true), renaming)))
            << "seed " << seed;
    }
}

TEST(AigKernel, RebuildVisitsCountOneStepPerPairNode)
{
    obs::MetricScope scope;
    Aig aig;
    Rng rng(17);
    const AigEdge f = randomCone(aig, rng, 300);
    const UnitPureInfo scan = aig.detectUnitPure(f);
    const std::uint64_t v0 = aig.kernelStats().rebuildVisits;
    (void)aig.cofactorPair(f, 2, scan.cone, Deadline::unlimited());
    EXPECT_EQ(aig.kernelStats().rebuildVisits - v0, scan.coneSize);
    const std::uint64_t v1 = aig.kernelStats().rebuildVisits;
    (void)aig.cofactor(f, 2, false);
    EXPECT_EQ(aig.kernelStats().rebuildVisits - v1, scan.coneSize);
    aig.publishKernelStats();
    EXPECT_EQ(static_cast<std::uint64_t>(scope.value(
                  obs::metric("aig.rebuild.visits", obs::MetricKind::Counter))),
              aig.kernelStats().rebuildVisits);
}

TEST(AigKernel, AndsCounterMatchesAllocationsAtEveryPublish)
{
    obs::MetricScope scope;
    Aig aig;
    Rng rng(17);
    auto ands = [&] {
        return static_cast<std::uint64_t>(
            scope.value(obs::metric("aig.ands", obs::MetricKind::Counter)));
    };
    std::uint64_t allocated = 0;
    auto track = [&](auto&& op) {
        const std::size_t before = aig.numNodes();
        const AigEdge e = op();
        allocated += aig.numNodes() - before;
        return e;
    };
    // Input nodes are not ANDs: (re)create them outside the tracking.
    auto inputs = [&] {
        for (Var v = 0; v < kVars; ++v) aig.variable(v);
    };
    inputs();
    AigEdge f = track([&] { return randomCone(aig, rng, 400); });
    aig.publishKernelStats();
    EXPECT_EQ(ands(), allocated);
    EXPECT_EQ(aig.kernelStats().ands, allocated);
    track([&] { return aig.cofactor(f, 2, true); });
    f = track([&] { return aig.cofactor(f, 3, false); });
    aig.garbageCollect({&f}); // publishes
    EXPECT_EQ(ands(), allocated);
    inputs(); // the collection may have dropped some
    track([&] { return randomCone(aig, rng, 100); });
    aig.publishKernelStats();
    aig.publishKernelStats(); // a repeat publish adds nothing
    EXPECT_EQ(ands(), allocated);
    EXPECT_EQ(aig.kernelStats().ands, allocated);
}

// ---------------------------------------------------------------- GC -----

TEST(AigKernel, GcPreservesSemanticsAndReclaimsGarbage)
{
    Aig aig;
    Rng rng(23);
    AigEdge f = randomCone(aig, rng, 120);
    const std::uint64_t ttBefore = truthTable(aig, f);
    randomCone(aig, rng, 3000); // stranded garbage
    const std::size_t before = aig.numNodes();

    aig.garbageCollect({&f});

    EXPECT_LT(aig.numNodes(), before);
    EXPECT_EQ(truthTable(aig, f), ttBefore);
    const AigKernelStats& st = aig.kernelStats();
    EXPECT_EQ(st.gcRuns, 1u);
    EXPECT_EQ(st.gcReclaimedNodes, before - aig.numNodes());
    EXPECT_LE(st.peakLiveNodes, st.peakAllocatedNodes);
}

TEST(AigKernel, GcRehashesStrashAndRewiresRoots)
{
    Aig aig;
    AigEdge x = aig.variable(0);
    AigEdge y = aig.variable(1);
    AigEdge e = aig.mkAnd(x, y);
    Rng rng(5);
    randomCone(aig, rng, 500); // garbage so indices actually move

    aig.garbageCollect({&x, &y, &e});

    // Registered edges were rewired to the compacted pool...
    EXPECT_EQ(aig.variable(0), x);
    EXPECT_EQ(aig.variable(1), y);
    // ...and the rebuilt strash finds the surviving AND instead of
    // allocating a duplicate.
    const std::size_t n = aig.numNodes();
    EXPECT_EQ(aig.mkAnd(x, y), e);
    EXPECT_EQ(aig.numNodes(), n);
}

TEST(AigKernel, RepeatedSubstituteGcCyclesStaySound)
{
    // The long-haul invariant the solver relies on: interleaving
    // substitutions, cofactors, and GCs never changes the function.
    Aig aig;
    Rng rng(41);
    AigEdge f = randomCone(aig, rng, 100);
    std::uint64_t tt = truthTable(aig, f);
    for (int round = 0; round < 8; ++round) {
        // Swap a random pair of variables twice: a semantic no-op.
        const Var a = static_cast<Var>(rng.below(kVars));
        const Var b = static_cast<Var>((a + 1 + rng.below(kVars - 1)) % kVars);
        for (int rep = 0; rep < 2; ++rep) {
            Substitution& sub = aig.scratchSubstitution();
            sub.set(a, aig.variable(b));
            sub.set(b, aig.variable(a));
            f = aig.substitute(f, sub);
        }
        randomCone(aig, rng, 400); // strand garbage
        aig.garbageCollect({&f});
        ASSERT_EQ(truthTable(aig, f), tt) << "round " << round;
        // A cofactor of the compacted pool must agree with semantic
        // evaluation as well.
        const AigEdge cof = aig.cofactor(f, 0, true);
        for (unsigned bits = 0; bits < (1u << kVars); ++bits) {
            std::vector<bool> asg = assignmentFromBits(bits);
            asg[0] = true;
            ASSERT_EQ(aig.evaluate(cof, assignmentFromBits(bits)), aig.evaluate(f, asg))
                << "round " << round << " bits " << bits;
        }
    }
}

// ------------------------------------------------------- importCone -----

TEST(AigKernel, ImportConeRoundTripsASideCone)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Aig side;
        Rng rng(seed * 13);
        const AigEdge f = randomCone(side, rng, 80);

        // The imported cone computes the same function in the new manager.
        Aig aig;
        const AigEdge in = aig.importCone(side, f);
        EXPECT_EQ(truthTable(aig, in), truthTable(side, f)) << "seed " << seed;

        // Structural hashing shares every node of a repeated import.
        const std::size_t nodes = aig.numNodes();
        EXPECT_EQ(aig.importCone(side, f), in) << "seed " << seed;
        EXPECT_EQ(aig.numNodes(), nodes) << "seed " << seed;

        // And the round trip back out preserves the function too.
        Aig back;
        const AigEdge out = back.importCone(aig, in);
        EXPECT_EQ(truthTable(back, out), truthTable(side, f)) << "seed " << seed;
    }
}

TEST(AigKernel, ParallelCofactorPathAgreesWithOracle)
{
    // Theorem-1 eliminations (the paired cofactors phi[0/x], phi[1/x])
    // cross-checked against the expansion oracle.
    auto randomDqbf = [](Rng& rng) {
        DqbfFormula f;
        std::vector<Var> xs, ys;
        for (int i = 0; i < 3; ++i) xs.push_back(f.addUniversal());
        for (int i = 0; i < 3; ++i) {
            std::vector<Var> deps;
            for (Var x : xs)
                if (rng.flip()) deps.push_back(x);
            ys.push_back(f.addExistential(std::move(deps)));
        }
        std::vector<Var> all = xs;
        all.insert(all.end(), ys.begin(), ys.end());
        for (int c = 0; c < 10; ++c) {
            Clause cl;
            for (int j = 0; j < 3; ++j)
                cl.push(Lit(all[rng.below(all.size())], rng.flip()));
            f.matrix().addClause(std::move(cl));
        }
        return f;
    };

    Rng rng(2026);
    for (int round = 0; round < 15; ++round) {
        const DqbfFormula f = randomDqbf(rng);
        const SolveResult expected = expansionDqbf(f, Deadline::unlimited());
        HqsSolver solver;
        EXPECT_EQ(solver.solve(f), expected) << "round " << round;
    }

    // Random instances are often decided by preprocessing before any
    // universal elimination, so add an instance that provably reaches
    // Theorem 1: incomparable dependency sets ({x1} vs
    // {x2}) rule out an equivalent QBF prefix, the biconditionals leave no
    // unit or pure literal, and neither existential sees every universal.
    DqbfFormula forced;
    const Var x1 = forced.addUniversal();
    const Var x2 = forced.addUniversal();
    const Var y1 = forced.addExistential({x1});
    const Var y2 = forced.addExistential({x2});
    auto iff = [&forced](Var a, Var b) {
        Clause c1;
        c1.push(Lit::neg(a));
        c1.push(Lit::pos(b));
        forced.matrix().addClause(std::move(c1));
        Clause c2;
        c2.push(Lit::pos(a));
        c2.push(Lit::neg(b));
        forced.matrix().addClause(std::move(c2));
    };
    iff(y1, x1); // y1 <-> x1 — realizable, y1 sees x1
    iff(y2, x2); // y2 <-> x2 — realizable, y2 sees x2
    HqsOptions opts;
    // The biconditionals are Theorem-6 units (and CNF preprocessing finds
    // the same equivalences); switch those passes off so the elimination
    // loop, not preprocessing, decides the instance.
    opts.preprocess = false;
    opts.unitPure = false;
    opts.satProbe = false;
    HqsSolver solver(opts);
    EXPECT_EQ(solver.solve(forced), expansionDqbf(forced, Deadline::unlimited()));
    EXPECT_GT(solver.stats().universalsEliminated, 0u);
}

// ------------------------------------------------------- node budget -----

TEST(AigKernel, NodeLimitIgnoresReclaimableGarbage)
{
    // Regression: the node budget reads *live* nodes.  A manager bloated
    // with stranded allocations but holding a tiny live cone must garbage
    // collect and keep solving, not report Memout.
    Aig aig;
    Rng rng(3);
    randomCone(aig, rng, 5000); // dropped on the floor
    AigEdge matrix = aig.mkAnd(aig.variable(0), aig.variable(1));
    ASSERT_GT(aig.numNodes(), 1000u);

    QbfPrefix prefix;
    prefix.addBlock(QuantKind::Exists, {0, 1});
    AigQbfOptions opts;
    opts.nodeLimit = 1000;
    opts.fraig = false;
    opts.unitPure = false;
    AigQbfSolver solver(opts);
    EXPECT_EQ(solver.solve(aig, matrix, prefix), SolveResult::Sat);
    EXPECT_LE(aig.numNodes(), 1000u); // the GC actually ran
}

TEST(AigKernel, NodeLimitStillTripsOnOversizedLiveCone)
{
    Aig aig;
    AigEdge matrix = aig.constTrue();
    for (Var v = 0; v < 300; ++v) {
        matrix = aig.mkAnd(matrix, aig.variable(v) ^ (v % 2 == 0));
    }
    QbfPrefix prefix;
    std::vector<Var> vars;
    for (Var v = 0; v < 300; ++v) vars.push_back(v);
    prefix.addBlock(QuantKind::Exists, std::move(vars));

    AigQbfOptions opts;
    opts.nodeLimit = 100;
    opts.fraig = false;
    opts.unitPure = false; // units would legitimately shrink the cone
    AigQbfSolver solver(opts);
    EXPECT_EQ(solver.solve(aig, matrix, prefix), SolveResult::Memout);
}

// ------------------------------------------ shared elimination kernel -----

/// Skolem records as comparable tuples (kind, var, value, cofactor).
using Trace = std::vector<std::tuple<std::size_t, Var, bool, AigEdge>>;

Trace traceOf(const Aig& aig, const SkolemRecorder& rec)
{
    Trace t;
    for (const SkolemRecorder::Record& r : rec.records()) {
        if (const auto* c = std::get_if<SkolemRecorder::Constant>(&r)) {
            t.emplace_back(r.index(), c->var, c->value, aig.constFalse());
        } else if (const auto* e = std::get_if<SkolemRecorder::Exists>(&r)) {
            t.emplace_back(r.index(), e->var, false, e->cofactor1);
        } else {
            t.emplace_back(r.index(), kNoVar, false, aig.constFalse());
        }
    }
    return t;
}

struct KernelRun {
    SolveResult result;
    AigEdge matrix;
    Trace trace;
};

/// The unit/pure pass to its fixpoint, then (unless it decided) the
/// existential step on @p exists.
KernelRun runKernel(Aig& aig, AigEdge root, const PrefixOps& ops, Var exists)
{
    ElimStats stats;
    SkolemRecorder rec;
    ElimKernel kernel(aig, root, ElimLimits{}, &rec, stats);
    const SolveResult r = kernel.unitPurePass(ops);
    if (r == SolveResult::Unknown) {
        kernel.eliminateExists(exists);
        ops.remove(exists);
    }
    return {r, kernel.matrix(), traceOf(aig, rec)};
}

AigEdge clause(Aig& aig, std::initializer_list<AigEdge> lits)
{
    AigEdge c = aig.constFalse();
    for (AigEdge l : lits) c = aig.mkOr(c, l);
    return c;
}

TEST(AigKernel, DqbfAndQbfPrefixesDriveTheKernelIdentically)
{
    // x0, x1 universal; y2(x0), y5(x0), y3(x0,x1), y4(x0,x1) — the DQBF
    // whose equivalent linear prefix is  forall x0 exists y2 y5 forall x1
    // exists y3 y4.
    DqbfFormula f;
    const Var x0 = f.addUniversal();
    const Var x1 = f.addUniversal();
    const Var y2 = f.addExistential({x0});
    const Var y3 = f.addExistential({x0, x1});
    const Var y4 = f.addExistential({x0, x1});
    const Var y5 = f.addExistential({x0});
    QbfPrefix q;
    q.addBlock(QuantKind::Forall, {x0});
    q.addBlock(QuantKind::Exists, {y2, y5});
    q.addBlock(QuantKind::Forall, {x1});
    q.addBlock(QuantKind::Exists, {y3, y4});

    Aig aig;
    auto lit = [&aig](Var v, bool positive) { return aig.variable(v) ^ !positive; };
    // y2 is a negative unit, y5 is pure positive; y3 and y4 occur in both
    // polarities, so the pass stops with y3 left for the existential step.
    AigEdge root = lit(y2, false);
    root = aig.mkAnd(root, clause(aig, {lit(y3, true), lit(x0, true)}));
    root = aig.mkAnd(root, clause(aig, {lit(y3, false), lit(x1, true)}));
    root = aig.mkAnd(root, clause(aig, {lit(y4, true), lit(x0, false), lit(x1, false)}));
    root = aig.mkAnd(root, clause(aig, {lit(y4, false), lit(x0, true), lit(x1, false)}));
    root = aig.mkAnd(root, clause(aig, {lit(y5, true), lit(y4, true), lit(x1, true)}));

    const KernelRun viaDqbf = runKernel(aig, root, prefixOps(f), y3);
    const KernelRun viaQbf = runKernel(aig, root, prefixOps(q), y3);
    ASSERT_EQ(viaDqbf.result, SolveResult::Unknown);
    ASSERT_EQ(viaQbf.result, SolveResult::Unknown);
    EXPECT_FALSE(aig.isConstant(viaDqbf.matrix));
    EXPECT_EQ(viaDqbf.matrix, viaQbf.matrix);
    ASSERT_EQ(viaDqbf.trace.size(), 3u); // y2 unit, y5 pure, y3 exists
    EXPECT_EQ(viaDqbf.trace, viaQbf.trace);
    EXPECT_FALSE(f.isExistential(y2) || f.isExistential(y3) || f.isExistential(y5));
    EXPECT_FALSE(q.contains(y2) || q.contains(y3) || q.contains(y5));

    // A universal unit decides both.
    DqbfFormula g;
    const Var gx = g.addUniversal();
    const Var gy = g.addExistential({gx});
    QbfPrefix gq;
    gq.addBlock(QuantKind::Forall, {gx});
    gq.addBlock(QuantKind::Exists, {gy});
    const AigEdge unit = aig.mkAnd(lit(gx, true), clause(aig, {lit(gy, true), lit(gx, false)}));
    EXPECT_EQ(runKernel(aig, unit, prefixOps(g), gy).result, SolveResult::Unsat);
    EXPECT_EQ(runKernel(aig, unit, prefixOps(gq), gy).result, SolveResult::Unsat);
}

TEST(AigKernel, BackendEliminationsReachTheRegistry)
{
    // forall x0 x1 exists y2(x0): the clauses on x1 make y2 a unit only
    // once the backend has eliminated x1, and x0 then becomes a universal
    // unit.  The padding chain (y_i xor y_i+1 over existentials that see
    // only x0) sits above them in the AIG's clause spine, so the backend's
    // universal step copies the spine and grows the cone past the main
    // loop's peak.
    DqbfFormula f;
    const Var x0 = f.addUniversal();
    const Var x1 = f.addUniversal();
    const Var y2 = f.addExistential({x0});
    auto add = [&f](std::initializer_list<Lit> lits) {
        Clause c;
        for (Lit l : lits) c.push(l);
        f.matrix().addClause(std::move(c));
    };
    add({Lit::neg(x1), Lit::pos(y2)});
    add({Lit::pos(x1), Lit::neg(y2), Lit::pos(x0)});
    add({Lit::pos(x1), Lit::pos(y2), Lit::neg(x0)});
    Var prev = f.addExistential({x0});
    for (int i = 0; i < 12; ++i) {
        const Var next = f.addExistential({x0});
        add({Lit::pos(prev), Lit::pos(next)});
        add({Lit::neg(prev), Lit::neg(next)});
        prev = next;
    }

    HqsOptions opts;
    opts.preprocess = false; // universal reduction would decide it up front
    HqsSolver solver(opts);
    obs::MetricScope scope;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    const HqsStats& st = solver.stats();
    ASSERT_EQ(st.decidedBy, "qbf-backend");
    ASSERT_GT(st.qbfStats.unitEliminations + st.qbfStats.pureEliminations, 0u);

    auto value = [&scope](const char* name, obs::MetricKind kind) {
        return static_cast<std::size_t>(scope.value(obs::metric(name, kind)));
    };
    EXPECT_EQ(value("hqs.elim.unit", obs::MetricKind::Counter) +
                  value("hqs.elim.pure", obs::MetricKind::Counter),
              st.unitEliminations + st.pureEliminations + st.qbfStats.unitEliminations +
                  st.qbfStats.pureEliminations);
    EXPECT_EQ(value("aig.peak_cone", obs::MetricKind::Gauge), st.peakConeSize);
}

// ------------------------------------------ batched Theorem-6 application --

bool listed(const std::vector<Var>& list, Var v)
{
    return std::find(list.begin(), list.end(), v) != list.end();
}

/// A random DQBF with planted unit and pure variables of both quantifier
/// kinds; the rest of the matrix is random clauses over `core`.
struct PlantedUnitPure {
    DqbfFormula f;
    Var unitPos = kNoVar;    ///< existential, positive unit, also occurs negatively
    Var unitNeg = kNoVar;    ///< existential, negative unit and negative pure
    Var purePos = kNoVar;    ///< existential, positive pure
    Var pureNeg = kNoVar;    ///< existential, negative pure
    Var forallPos = kNoVar;  ///< universal, positive pure
    Var forallNeg = kNoVar;  ///< universal, negative pure
    Var forallUnit = kNoVar; ///< universal with a unit clause, if planted
};

PlantedUnitPure plantUnitPure(Rng& rng, bool universalUnit)
{
    PlantedUnitPure p;
    DqbfFormula& f = p.f;
    std::vector<Var> core;
    for (int i = 0; i < 2; ++i) core.push_back(f.addUniversal());
    p.forallPos = f.addUniversal();
    p.forallNeg = f.addUniversal();
    const std::vector<Var> universals = f.universals();
    auto existential = [&] {
        std::vector<Var> deps;
        for (Var x : universals) {
            if (rng.flip()) deps.push_back(x);
        }
        return f.addExistential(std::move(deps));
    };
    for (int i = 0; i < 5; ++i) core.push_back(existential());
    p.unitPos = existential();
    p.unitNeg = existential();
    p.purePos = existential();
    p.pureNeg = existential();

    // Clauses of distinct core variables, so no clause collapses to a unit.
    auto add = [&](std::initializer_list<Lit> planted, std::size_t randomLits) {
        Clause c;
        for (Lit l : planted) c.push(l);
        std::vector<Var> pool = core;
        for (std::size_t i = 0; i < randomLits; ++i) {
            const std::size_t k = rng.below(pool.size());
            c.push(Lit(pool[k], rng.flip()));
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
        }
        f.matrix().addClause(std::move(c));
    };
    add({Lit::pos(p.unitPos)}, 0);
    add({Lit::neg(p.unitPos)}, 2);
    add({Lit::neg(p.unitNeg)}, 0);
    add({Lit::neg(p.unitNeg)}, 1);
    for (int i = 0; i < 2; ++i) {
        add({Lit::pos(p.purePos)}, 2);
        add({Lit::neg(p.pureNeg)}, 2);
        add({Lit::pos(p.forallPos)}, 2);
        add({Lit::neg(p.forallNeg)}, 2);
    }
    const std::size_t extra = 1 + rng.below(4);
    for (std::size_t i = 0; i < extra; ++i) add({}, 3);
    if (universalUnit) {
        p.forallUnit = core[rng.below(2)];
        add({Lit(p.forallUnit, rng.flip())}, 0);
    }
    return p;
}

TEST(AigKernel, BatchedUnitPureAgreesWithTheOracleAndCertifies)
{
    Rng rng(15);
    std::size_t sat = 0;
    for (int round = 0; round < 160; ++round) {
        const bool universalUnit = round % 4 == 0;
        const PlantedUnitPure p = plantUnitPure(rng, universalUnit);

        // One detection reports every planted variable, u1 in two lists.
        {
            Aig aig;
            const UnitPureInfo info = aig.detectUnitPure(buildFromCnf(aig, p.f.matrix()));
            ASSERT_TRUE(listed(info.posUnit, p.unitPos));
            ASSERT_TRUE(listed(info.negUnit, p.unitNeg) && listed(info.negPure, p.unitNeg));
            ASSERT_TRUE(listed(info.posPure, p.purePos) && listed(info.posPure, p.forallPos));
            ASSERT_TRUE(listed(info.negPure, p.pureNeg) && listed(info.negPure, p.forallNeg));
            if (universalUnit) {
                ASSERT_TRUE(listed(info.posUnit, p.forallUnit) ||
                            listed(info.negUnit, p.forallUnit));
            }
        }

        const SolveResult expected = expansionDqbf(p.f);
        ASSERT_TRUE(isConclusive(expected)) << "round " << round;
        HqsOptions opts;
        opts.preprocess = false; // leave the planted variables to the kernel
        opts.satProbe = false;
        opts.computeSkolem = true;
        HqsSolver solver(opts);
        EXPECT_EQ(solver.solve(p.f), expected) << "round " << round;
        const HqsStats& st = solver.stats();
        if (universalUnit) {
            // The universal unit decides before anything is fixed.
            EXPECT_EQ(expected, SolveResult::Unsat);
            EXPECT_EQ(st.unitEliminations + st.pureEliminations, 0u) << "round " << round;
            EXPECT_EQ(st.decidedBy, "elimination");
        } else {
            EXPECT_GE(st.unitEliminations, 2u) << "round " << round;
            EXPECT_GE(st.pureEliminations, 4u) << "round " << round;
        }
        if (expected == SolveResult::Sat) {
            ++sat;
            ASSERT_TRUE(solver.skolemCertificate().has_value());
            EXPECT_TRUE(certifiesThroughProduction(p.f, *solver.skolemCertificate()))
                << "round " << round;
        }
    }
    EXPECT_GT(sat, 10u); // the sweep exercises certificates, not only refutations
}

TEST(AigKernel, UniversalUnitListedLastStillDecidesBeforeAnyFix)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y0 = f.addExistential({x});
    const Var y1 = f.addExistential({x});
    Aig aig;
    // x's input node is created first, so the descending-index detection
    // lists it after the existential unit y0.
    const AigEdge ex = aig.variable(x);
    const AigEdge ey0 = aig.variable(y0);
    const AigEdge ey1 = aig.variable(y1);
    const AigEdge root = aig.mkAnd(aig.mkAnd(ex, ey0),
                                   aig.mkAnd(~ey1, clause(aig, {~ey0, ey1, ~ex})));
    const UnitPureInfo info = aig.detectUnitPure(root);
    ASSERT_EQ(info.posUnit, (std::vector<Var>{y0, x}));
    ASSERT_EQ(info.negUnit, (std::vector<Var>{y1}));

    ElimStats stats;
    SkolemRecorder rec;
    ElimKernel kernel(aig, root, ElimLimits{}, &rec, stats);
    EXPECT_EQ(kernel.unitPurePass(prefixOps(f)), SolveResult::Unsat);
    EXPECT_EQ(kernel.matrix(), root);
    EXPECT_TRUE(rec.records().empty());
    EXPECT_TRUE(f.isExistential(y0) && f.isExistential(y1) && f.isUniversal(x));
    EXPECT_EQ(stats.unitEliminations + stats.pureEliminations, 0u);
}

TEST(AigKernel, OneDetectionFixesEveryIndependentPure)
{
    // (a xor b) & AND_i (p_i | (a xor c_i)): every p_i is pure, nothing else
    // is unit or pure, so one detection fixes all k and a second finds none.
    constexpr Var k = 24;
    Aig aig;
    QbfPrefix prefix;
    std::vector<Var> vars;
    for (Var v = 0; v < 2 + 2 * k; ++v) vars.push_back(v);
    prefix.addBlock(QuantKind::Exists, vars);
    const AigEdge a = aig.variable(0);
    const AigEdge core = aig.mkXor(a, aig.variable(1));
    AigEdge root = core;
    for (Var i = 0; i < k; ++i) {
        const AigEdge pure = aig.variable(2 + i);
        root = aig.mkAnd(root, aig.mkOr(pure, aig.mkXor(a, aig.variable(2 + k + i))));
    }

    ElimStats stats;
    SkolemRecorder rec;
    ElimKernel kernel(aig, root, ElimLimits{}, &rec, stats);
    EXPECT_EQ(kernel.unitPurePass(prefixOps(prefix)), SolveResult::Unknown);
    EXPECT_EQ(stats.scans, 2u);
    EXPECT_EQ(stats.pureEliminations, k);
    EXPECT_EQ(stats.unitEliminations, 0u);
    EXPECT_EQ(kernel.matrix(), core);
    ASSERT_EQ(rec.records().size(), k);
    for (Var i = 0; i < k; ++i) {
        EXPECT_FALSE(prefix.contains(2 + i));
        const auto* c = std::get_if<SkolemRecorder::Constant>(&rec.records()[i]);
        ASSERT_NE(c, nullptr);
        EXPECT_TRUE(c->value);
    }
}

// ------------------------------------------------------ scan cache --------

/// The occurrence count the AIG backend used before the kernel's scan: AND
/// fanin references per variable, over a hash-set DFS.
std::unordered_map<Var, std::uint32_t> hashMapOccurrences(const Aig& aig, AigEdge root)
{
    std::unordered_map<Var, std::uint32_t> counts;
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
        if (!visited.insert(e.nodeIndex()).second || !aig.isAnd(e)) continue;
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

/// Random cone over variables first..first+count-1: the xor of the last
/// ten of @p ops random and/xor gates.
AigEdge wideCone(Aig& aig, Rng& rng, Var first, Var count, std::size_t ops)
{
    std::vector<AigEdge> pool;
    for (Var v = first; v < first + count; ++v) pool.push_back(aig.variable(v));
    for (std::size_t i = 0; i < ops; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkXor(a, b));
    }
    AigEdge out = aig.constFalse();
    for (std::size_t i = pool.size() - 10; i < pool.size(); ++i) out = aig.mkXor(out, pool[i]);
    return out;
}

TEST(AigKernel, ScanCacheMatchesFreshWalksAcrossEveryMatrixChange)
{
    Aig aig;
    Rng rng(23);
    // (v0 | v1) & (~v1 | v2 | v3) keeps the quantified v0, v1 from
    // collapsing the matrix; the wide cone over v4..v15 gives it bulk.
    const AigEdge v1 = aig.variable(1);
    const AigEdge small = aig.mkAnd(aig.mkOr(aig.variable(0), v1),
                                    clause(aig, {~v1, aig.variable(2), aig.variable(3)}));
    const AigEdge root = aig.mkAnd(small, wideCone(aig, rng, 4, 12, 400));
    // The cone stays between nodeLimit/8 and nodeLimit: the next
    // housekeeping sweeps.
    ElimLimits limits;
    limits.nodeLimit = 2 * aig.coneSize(root);
    ElimStats stats;
    SkolemRecorder rec;
    ElimKernel kernel(aig, root, limits, &rec, stats);

    auto expectFresh = [&](const char* step) {
        const UnitPureInfo& cached = kernel.scan();
        const AigEdge m = kernel.matrix();
        const UnitPureInfo fresh = aig.detectUnitPure(m);
        EXPECT_EQ(cached.posUnit, fresh.posUnit) << step;
        EXPECT_EQ(cached.negUnit, fresh.negUnit) << step;
        EXPECT_EQ(cached.posPure, fresh.posPure) << step;
        EXPECT_EQ(cached.negPure, fresh.negPure) << step;
        EXPECT_EQ(cached.occurrences, fresh.occurrences) << step;
        EXPECT_EQ(cached.cone, fresh.cone) << step;
        EXPECT_EQ(cached.coneSize, aig.coneSize(m)) << step;
        const auto reference = hashMapOccurrences(aig, m);
        std::size_t occurring = 0;
        for (Var v = 0; v < cached.occurrences.size(); ++v) {
            if (cached.occurrences[v] == 0) continue;
            ++occurring;
            const auto it = reference.find(v);
            ASSERT_NE(it, reference.end()) << step << ": var " << v;
            EXPECT_EQ(cached.occurrences[v], it->second) << step << ": var " << v;
        }
        EXPECT_EQ(occurring, reference.size()) << step;
    };

    expectFresh("initial");
    EXPECT_EQ(stats.scans, 1u);
    (void)kernel.scan();
    EXPECT_EQ(stats.scans, 1u); // same matrix, same GC generation: cached

    kernel.eliminateExists(0);
    expectFresh("eliminateExists");
    BuiltElimination forall1;
    ASSERT_EQ(kernel.build(1, QuantKind::Forall, forall1), SolveResult::Unknown);
    ASSERT_TRUE(forall1.built());
    kernel.commit(forall1);
    expectFresh("build + commit");
    Substitution sub;
    sub.set(2, aig.mkAnd(aig.variable(3), aig.variable(4)));
    sub.set(5, ~aig.variable(6));
    kernel.matrix() = aig.substitute(kernel.matrix(), sub);
    expectFresh("substitute");
    EXPECT_EQ(stats.scans, 4u);

    // Garbage enough that the post-FRAIG collection fires: the kernel's own
    // GC renumbers the matrix and re-keys the scan instead of dropping it.
    (void)wideCone(aig, rng, 0, 16, 4000);
    const std::uint64_t gcBefore = aig.kernelStats().gcRuns;
    const std::size_t scansBefore = stats.scans;
    ASSERT_EQ(kernel.housekeeping(), SolveResult::Unknown);
    EXPECT_EQ(stats.fraigRuns, 1u);
    ASSERT_GT(aig.kernelStats().gcRuns, gcBefore);
    EXPECT_LE(stats.scans, scansBefore + 1); // at most the post-sweep walk
    const std::size_t scansAfterGc = stats.scans;
    expectFresh("fraig + own gc");
    EXPECT_EQ(stats.scans, scansAfterGc);
    // The remapped cone list drives the next elimination: no rescan, and
    // the same cofactors as the DFS rebuild.
    {
        const AigEdge before = kernel.matrix();
        const AigEdge cof0 = aig.cofactor(before, 4, false);
        const AigEdge cof1 = aig.cofactor(before, 4, true);
        ASSERT_EQ(kernel.eliminateForall(4), SolveResult::Unknown);
        EXPECT_EQ(stats.scans, scansAfterGc);
        EXPECT_EQ(kernel.matrix(), aig.mkAnd(cof0, cof1));
    }
    expectFresh("eliminateForall after own gc");

    // A collection the kernel did not run bumps the generation, so an edge
    // that reads the same afterwards (but names another node) is rescanned.
    (void)wideCone(aig, rng, 0, 16, 400);
    kernel.matrix() = aig.mkAnd(kernel.matrix(), aig.variable(15));
    const AigEdge scanned = kernel.matrix();
    expectFresh("above garbage");
    const std::size_t scansBeforeForeignGc = stats.scans;
    std::vector<AigEdge*> roots{&kernel.matrix()};
    rec.appendGcRoots(roots);
    aig.garbageCollect(roots);
    ASSERT_LT(kernel.matrix().nodeIndex(), scanned.nodeIndex());
    while (aig.numNodes() <= scanned.nodeIndex()) (void)wideCone(aig, rng, 0, 16, 100);
    kernel.matrix() = scanned;
    expectFresh("foreign gc");
    EXPECT_EQ(stats.scans, scansBeforeForeignGc + 1);
}

// ------------------------------------------------ FRAIG as a budget step
//
// ElimKernel::housekeeping sweeps only under a node budget: a cone past
// nodeLimit/8 that has doubled since the last sweep, and a cone over
// nodeLimit that has grown since, once, before it is judged a memout.
// XOR chains over fresh variables are irreducible (every node computes its
// own function), so their sizes are exact; an XOR tree over a chain's
// variables is the chain's function in another shape, which FRAIG merges.

/// x_first ^ ... ^ x_{first+count-1} as a left-deep chain.
AigEdge xorChain(Aig& aig, Var first, Var count)
{
    AigEdge out = aig.variable(first);
    for (Var v = first + 1; v < first + count; ++v) out = aig.mkXor(out, aig.variable(v));
    return out;
}

/// The same parity as xorChain, built as a balanced tree.
AigEdge xorTree(Aig& aig, Var first, Var count)
{
    if (count == 1) return aig.variable(first);
    const Var half = count / 2;
    return aig.mkXor(xorTree(aig, first, half), xorTree(aig, first + half, count - half));
}

std::size_t counter(obs::MetricScope& scope, const char* name)
{
    return static_cast<std::size_t>(scope.value(obs::metric(name, obs::MetricKind::Counter)));
}

TEST(AigKernel, UnbudgetedOrSmallConeIsNeverSwept)
{
    Aig aig;
    const AigEdge root = xorChain(aig, 0, 7000);
    const std::size_t cone = aig.coneSize(root);
    ASSERT_GT(cone, 20000u);

    for (const std::size_t nodeLimit : {std::size_t{0}, 8 * (cone + 1)}) {
        ElimLimits limits;
        limits.nodeLimit = nodeLimit; // none, or the cone just under nodeLimit/8
        ElimStats stats;
        obs::MetricScope scope;
        ElimKernel kernel(aig, root, limits, nullptr, stats);
        EXPECT_EQ(kernel.housekeeping(), SolveResult::Unknown) << nodeLimit;
        EXPECT_EQ(kernel.housekeeping(), SolveResult::Unknown) << nodeLimit;
        EXPECT_EQ(stats.fraigRuns, 0u) << nodeLimit;
        EXPECT_EQ(counter(scope, "fraig.runs"), 0u) << nodeLimit;
    }
}

TEST(AigKernel, NearBudgetConeIsSweptOnceAndAgainOnlyAfterItDoubles)
{
    Aig aig;
    const AigEdge root = xorChain(aig, 0, 100);
    const std::size_t cone = aig.coneSize(root);
    ElimLimits limits;
    limits.nodeLimit = 4 * cone; // cone sits between nodeLimit/8 and nodeLimit
    ElimStats stats;
    ElimKernel kernel(aig, root, limits, nullptr, stats);

    ASSERT_EQ(kernel.housekeeping(), SolveResult::Unknown);
    EXPECT_EQ(stats.fraigRuns, 1u);
    EXPECT_EQ(kernel.matrix(), root); // irreducible: rebuilt onto itself
    ASSERT_EQ(kernel.housekeeping(), SolveResult::Unknown);
    EXPECT_EQ(stats.fraigRuns, 1u); // same size: no second sweep

    kernel.matrix() = aig.mkAnd(kernel.matrix(), xorChain(aig, 200, 50));
    const std::size_t grown = aig.coneSize(kernel.matrix());
    ASSERT_GT(grown, cone);
    ASSERT_LE(grown, 2 * cone);
    ASSERT_EQ(kernel.housekeeping(), SolveResult::Unknown);
    EXPECT_EQ(stats.fraigRuns, 1u); // grown, not doubled

    kernel.matrix() = aig.mkAnd(kernel.matrix(), xorChain(aig, 300, 60));
    const std::size_t doubled = aig.coneSize(kernel.matrix());
    ASSERT_GT(doubled, 2 * cone);
    ASSERT_LE(doubled, limits.nodeLimit);
    ASSERT_EQ(kernel.housekeeping(), SolveResult::Unknown);
    EXPECT_EQ(stats.fraigRuns, 2u);
}

TEST(AigKernel, OverBudgetSweepThatShrinksTheConeAvertsTheMemout)
{
    for (const bool fraig : {true, false}) {
        Aig aig;
        const AigEdge chain = xorChain(aig, 0, 60);
        const AigEdge root = aig.mkAnd(chain, xorTree(aig, 0, 60)); // == chain
        const std::size_t reduced = aig.coneSize(chain);
        ElimLimits limits;
        limits.fraig = fraig;
        limits.nodeLimit = reduced * 3 / 2; // over budget until swept
        ASSERT_GT(aig.coneSize(root), limits.nodeLimit);
        ElimStats stats;
        obs::MetricScope scope;
        ElimKernel kernel(aig, root, limits, nullptr, stats);
        if (fraig) {
            EXPECT_EQ(kernel.housekeeping(), SolveResult::Unknown);
            EXPECT_EQ(stats.fraigRuns, 1u);
            EXPECT_EQ(aig.coneSize(kernel.matrix()), reduced);
            EXPECT_EQ(counter(scope, "fraig.over_budget"), 1u);
            EXPECT_EQ(counter(scope, "fraig.rescued"), 1u);
        } else {
            EXPECT_EQ(kernel.housekeeping(), SolveResult::Memout);
            EXPECT_EQ(stats.fraigRuns, 0u);
        }
    }
}

TEST(AigKernel, IrreducibleOverBudgetConeIsAMemoutAfterExactlyOneSweep)
{
    Aig aig;
    const AigEdge root = xorChain(aig, 0, 200);
    ElimLimits limits;
    limits.nodeLimit = aig.coneSize(root) / 2;
    ElimStats stats;
    obs::MetricScope scope;
    ElimKernel kernel(aig, root, limits, nullptr, stats);

    EXPECT_EQ(kernel.housekeeping(), SolveResult::Memout);
    EXPECT_EQ(stats.fraigRuns, 1u);
    EXPECT_EQ(kernel.housekeeping(), SolveResult::Memout);
    EXPECT_EQ(stats.fraigRuns, 1u); // not grown since: judged without a sweep
    EXPECT_EQ(counter(scope, "fraig.runs"), 1u);
    EXPECT_EQ(counter(scope, "fraig.over_budget"), 1u);
    EXPECT_EQ(counter(scope, "fraig.rescued"), 0u);
}

TEST(AigKernel, FraigRegistryCountersAndTriggersMatchTheKernelsSweeps)
{
    Aig aig;
    const AigEdge chain = xorChain(aig, 0, 100);
    const std::size_t cone = aig.coneSize(chain);
    ElimLimits limits;
    limits.nodeLimit = cone * 3 / 2; // room for the chain's 100 input nodes
    ElimStats stats;
    obs::MetricScope scope;
    obs::enableTracing(true);
    obs::clearTrace();
    ElimKernel kernel(aig, chain, limits, nullptr, stats);

    // Near budget; then over budget, grown but not doubled, with a
    // redundant copy of the chain's first 60 variables (rescued); then over
    // budget with irreducible bulk (a memout).
    const SolveResult near = kernel.housekeeping();
    kernel.matrix() = aig.mkAnd(kernel.matrix(), xorTree(aig, 0, 60));
    const std::size_t grown = aig.coneSize(kernel.matrix());
    ASSERT_GT(grown, limits.nodeLimit);
    ASSERT_LE(grown, 2 * cone);
    const SolveResult rescued = kernel.housekeeping();
    kernel.matrix() = aig.mkAnd(kernel.matrix(), xorChain(aig, 200, 100));
    const SolveResult memout = kernel.housekeeping();
    obs::enableTracing(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    obs::clearTrace();

    EXPECT_EQ(near, SolveResult::Unknown);
    EXPECT_EQ(rescued, SolveResult::Unknown);
    EXPECT_EQ(memout, SolveResult::Memout);
    EXPECT_EQ(stats.fraigRuns, 3u);
    EXPECT_EQ(counter(scope, "fraig.runs"), stats.fraigRuns);
    EXPECT_EQ(counter(scope, "fraig.over_budget"), 2u);
    EXPECT_EQ(counter(scope, "fraig.rescued"), 1u);
    auto occurrences = [json = os.str()](const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(occurrences("\"trigger\":\"near-budget\""), 1u);
    EXPECT_EQ(occurrences("\"trigger\":\"over-budget\""), 2u);
}

// ------------------------------------------------- two-level rewriting ---

/// Truth table of @p e over variables 0..3 (bit i: the value under the
/// assignment whose bit v is variable v).
std::uint16_t table16(const Aig& aig, AigEdge e)
{
    std::uint16_t tt = 0;
    for (unsigned bits = 0; bits < 16; ++bits) {
        if (aig.evaluate(e, assignmentFromBits(bits))) tt |= 1u << bits;
    }
    return tt;
}

TEST(AigKernel, EachRewriteRuleYieldsItsDocumentedResult)
{
    Aig aig;
    const AigEdge a = aig.variable(0);
    const AigEdge b = aig.variable(1);
    const AigEdge c = aig.variable(2);
    const AigEdge ab = aig.mkAnd(a, b);
    const AigEdge nac = aig.mkAnd(~a, c);
    const AigEdge ac = aig.mkAnd(a, c);
    // contradiction
    EXPECT_EQ(aig.mkAnd(ab, ~a), aig.constFalse());
    EXPECT_EQ(aig.mkAnd(ab, nac), aig.constFalse());
    // idempotence
    EXPECT_EQ(aig.mkAnd(ab, a), ab);
    // subsumption
    EXPECT_EQ(aig.mkAnd(~ab, ~a), ~a);
    EXPECT_EQ(aig.mkAnd(~ab, nac), nac);
    // substitution
    EXPECT_EQ(aig.mkAnd(~ab, a), aig.mkAnd(a, ~b));
    EXPECT_EQ(aig.mkAnd(~ab, ac), aig.mkAnd(ac, ~b));
    // resolution
    EXPECT_EQ(aig.mkAnd(~ab, ~aig.mkAnd(a, ~b)), ~a);
    const AigKernelStats& st = aig.kernelStats();
    EXPECT_EQ(st.rewriteContradiction, 2u);
    EXPECT_EQ(st.rewriteIdempotence, 1u);
    EXPECT_EQ(st.rewriteSubsumption, 2u);
    EXPECT_EQ(st.rewriteSubstitution, 2u);
    EXPECT_EQ(st.rewriteResolution, 1u);
}

TEST(AigKernel, TwoLevelRewritingIsSoundOnEveryTwoLevelOperandPair)
{
    // The rules inspect only the operands and their fanins, so operands
    // that are constants, literals, or ANDs of two literal/constant edges
    // (either polarity) over four variables reach every rule in every
    // orientation.  mkAndN/mkOr/importCone and the AIGER reader of the
    // certificate checker all build through mkAnd, so this sweep is the
    // rules' soundness proof.
    Aig aig;
    std::vector<AigEdge> leaves{aig.constFalse(), aig.constTrue()};
    for (Var v = 0; v < 4; ++v) {
        leaves.push_back(aig.variable(v));
        leaves.push_back(~aig.variable(v));
    }
    std::vector<AigEdge> operands = leaves;
    for (AigEdge p : leaves) {
        for (AigEdge q : leaves) {
            const AigEdge g = aig.mkAnd(p, q);
            operands.push_back(g);
            operands.push_back(~g);
        }
    }
    std::sort(operands.begin(), operands.end());
    operands.erase(std::unique(operands.begin(), operands.end()), operands.end());
    std::vector<std::uint16_t> tables;
    for (AigEdge e : operands) tables.push_back(table16(aig, e));

    obs::MetricScope scope;
    for (std::size_t i = 0; i < operands.size(); ++i) {
        for (std::size_t j = 0; j < operands.size(); ++j) {
            const std::size_t before = aig.numNodes();
            const AigEdge r = aig.mkAnd(operands[i], operands[j]);
            ASSERT_LE(aig.numNodes(), before + 1) << operands[i] << " & " << operands[j];
            ASSERT_EQ(table16(aig, r), tables[i] & tables[j])
                << operands[i] << " & " << operands[j];
        }
    }
    aig.publishKernelStats();
    const AigKernelStats& st = aig.kernelStats();
    const std::pair<const char*, std::uint64_t> rules[] = {
        {"aig.rewrite.contradiction", st.rewriteContradiction},
        {"aig.rewrite.idempotence", st.rewriteIdempotence},
        {"aig.rewrite.subsumption", st.rewriteSubsumption},
        {"aig.rewrite.substitution", st.rewriteSubstitution},
        {"aig.rewrite.resolution", st.rewriteResolution}};
    for (const auto& [name, fired] : rules) {
        EXPECT_GT(fired, 0u) << name;
        EXPECT_EQ(counter(scope, name), fired) << name;
    }
}

// ------------------------------------------------ deadline inside rebuilds --

/// An XOR chain over fresh variables on top of variable 0: every one of its
/// ~3 * @p steps AND nodes depends on variable 0, so cofactoring variable 0
/// rebuilds the whole cone.
AigEdge xorChain(Aig& aig, Var steps)
{
    AigEdge g = aig.variable(0);
    for (Var v = 1; v <= steps; ++v) g = aig.mkXor(g, aig.variable(v));
    return g;
}

Deadline expiredDeadline()
{
    const Deadline d = Deadline::in(1e-6);
    while (!d.expired()) {
    }
    return d;
}

TEST(AigKernel, ExpiredDeadlineAbandonsALargeCofactorWithinOnePollInterval)
{
    Aig aig;
    const AigEdge f = xorChain(aig, 4000);
    ASSERT_GE(aig.coneSize(f), 10000u);
    const std::vector<std::uint32_t> cone = aig.detectUnitPure(f).cone;
    const std::size_t before = aig.numNodes();
    const auto [lo, hi] = aig.cofactorPair(f, 0, cone, expiredDeadline());
    EXPECT_FALSE(lo.isValid());
    EXPECT_FALSE(hi.isValid());
    // Both images of one poll interval's nodes, at most.
    EXPECT_LT(aig.numNodes() - before, 4 * Aig::kDeadlinePollNodes);
    // Without expiry the polled pass gives the plain cofactors.
    const auto polled = aig.cofactorPair(f, 0, cone, Deadline::in(3600));
    EXPECT_EQ(polled.first, aig.cofactor(f, 0, false));
    EXPECT_EQ(polled.second, aig.cofactor(f, 0, true));
}

TEST(AigKernel, EliminationAbandonedAtTheDeadlineLeavesTheMatrixUnchanged)
{
    Aig aig;
    const AigEdge f = xorChain(aig, 4000);
    ElimLimits limits;
    limits.deadline = expiredDeadline();
    ElimStats stats;
    ElimKernel kernel(aig, f, limits, nullptr, stats);
    EXPECT_EQ(kernel.eliminateExists(0), SolveResult::Timeout);
    EXPECT_EQ(kernel.matrix(), f);
    EXPECT_EQ(kernel.eliminateForall(0), SolveResult::Timeout);
    EXPECT_EQ(kernel.matrix(), f);
    // Theorem 1's renamed pass polls the same deadline.
    Substitution renaming;
    renaming.set(1, aig.variable(5000));
    renaming.set(2, aig.variable(5001));
    EXPECT_EQ(kernel.eliminateForall(0, &renaming), SolveResult::Timeout);
    EXPECT_EQ(kernel.matrix(), f);
}

} // namespace
} // namespace hqs
