// Tests that pin the output of CNF preprocessing (src/dqbf/preprocess.cpp).
//
//  * PreprocessGolden: one FNV-1a digest per PEC instance of every family
//    (widths 3-6, realizable and not, plus two seeded renumberings of each)
//    over everything preprocessing hands on: the formula text, the gates,
//    the statistics, the verdict and the Skolem records.  The table was
//    generated from the passes as they stood before they moved to
//    occurrence lists; a pass that rewrites differently changes a digest.
//  * PreprocessReference: the same passes written the direct way (new
//    containers per clause and per literal, one matrix walk per unit and
//    per substituted variable) kept here as a reference, the way
//    fraig_test keeps its reference sweep.  Over seeded random DQBFs and
//    every combination of the PreprocessOptions toggles, production and
//    reference must agree exactly.
//  * PreprocessPhases: the per-pass phase counters are published and stay
//    within the enclosing preprocess phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuit/families.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/dqbf/preprocess.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/pec/pec_encoder.hpp"

namespace hqs {
namespace {

// ----- reference passes --------------------------------------------------------

namespace reference {

std::vector<std::uint32_t> clauseKey(const Clause& c)
{
    std::vector<std::uint32_t> key;
    key.reserve(c.size());
    for (Lit l : c) key.push_back(l.code());
    std::sort(key.begin(), key.end());
    return key;
}

/// The passes written directly.  Equivalence classes are merged in
/// ascending Tarjan component id, the order the production code defines.
class Preprocessor {
public:
    Preprocessor(DqbfFormula& f, const PreprocessOptions& opts, SkolemRecorder* recorder)
        : f_(f), opts_(opts), recorder_(recorder) {}

    PreprocessResult run()
    {
        if (!renormalize()) return res_;
        for (int round = 0; round < opts_.maxRounds; ++round) {
            ++res_.stats.rounds;
            bool changed = false;
            if (opts_.unitPropagation) changed |= propagateUnits();
            if (decided()) return res_;
            if (opts_.universalReduction) changed |= universalReduce();
            if (decided()) return res_;
            if (opts_.subsumption) changed |= subsumeAndStrengthen();
            if (decided()) return res_;
            if (opts_.equivalences) changed |= substituteEquivalences();
            if (decided()) return res_;
            if (!changed) break;
        }
        if (f_.matrix().numClauses() == 0) {
            res_.decided = SolveResult::Sat;
            return res_;
        }
        if (opts_.gateDetection) detectGates();
        return res_;
    }

private:
    bool decided() const { return res_.decided != SolveResult::Unknown; }

    bool renormalize()
    {
        std::vector<Clause> kept;
        std::set<std::vector<std::uint32_t>> seen;
        for (Clause& c : f_.matrix().clauses()) {
            if (c.normalize()) continue;
            if (c.empty()) {
                res_.decided = SolveResult::Unsat;
                return false;
            }
            if (seen.insert(clauseKey(c)).second) kept.push_back(std::move(c));
        }
        f_.matrix().clauses() = std::move(kept);
        return true;
    }

    bool propagateUnits()
    {
        bool any = false;
        for (;;) {
            Lit unit = kUndefLit;
            for (const Clause& c : f_.matrix()) {
                if (c.size() == 1) {
                    unit = c[0];
                    break;
                }
            }
            if (unit.isUndef()) break;
            if (f_.isUniversal(unit.var())) {
                res_.decided = SolveResult::Unsat;
                return true;
            }
            assign(unit);
            ++res_.stats.unitsPropagated;
            any = true;
            if (decided()) return true;
        }
        return any;
    }

    void assign(Lit l)
    {
        if (f_.isExistential(l.var())) {
            if (recorder_) {
                recorder_->record(SkolemRecorder::Constant{l.var(), l.positive()});
            }
            f_.removeExistential(l.var());
        }
        std::vector<Clause> kept;
        for (Clause& c : f_.matrix().clauses()) {
            if (c.contains(l)) continue;
            std::erase(c.lits(), ~l);
            if (c.empty()) {
                res_.decided = SolveResult::Unsat;
                return;
            }
            kept.push_back(std::move(c));
        }
        f_.matrix().clauses() = std::move(kept);
    }

    bool universalReduce()
    {
        bool any = false;
        for (Clause& c : f_.matrix().clauses()) {
            std::vector<Lit> keep;
            keep.reserve(c.size());
            for (Lit l : c) {
                if (!f_.isUniversal(l.var())) {
                    keep.push_back(l);
                    continue;
                }
                const bool needed = std::any_of(c.begin(), c.end(), [&](Lit m) {
                    return f_.isExistential(m.var()) && f_.dependsOn(m.var(), l.var());
                });
                if (needed) {
                    keep.push_back(l);
                } else {
                    ++res_.stats.universalLiteralsReduced;
                    any = true;
                }
            }
            if (keep.size() != c.size()) c.lits() = std::move(keep);
            if (c.empty()) {
                res_.decided = SolveResult::Unsat;
                return true;
            }
        }
        if (any) renormalize();
        return any;
    }

    bool subsumeAndStrengthen()
    {
        auto& clauses = f_.matrix().clauses();
        bool any = false;
        std::vector<std::vector<std::size_t>> occ(2 * f_.numVars());
        for (std::size_t i = 0; i < clauses.size(); ++i) {
            for (Lit l : clauses[i]) occ[l.code()].push_back(i);
        }
        auto isSubsetOf = [](const Clause& a, const Clause& b) {
            return std::includes(b.begin(), b.end(), a.begin(), a.end());
        };
        std::vector<bool> dead(clauses.size(), false);
        auto candidatesOf = [&](const Clause& c) -> const std::vector<std::size_t>& {
            const Lit* best = nullptr;
            std::size_t bestCount = static_cast<std::size_t>(-1);
            for (const Lit& l : c.lits()) {
                if (occ[l.code()].size() < bestCount) {
                    bestCount = occ[l.code()].size();
                    best = &l;
                }
            }
            return occ[best->code()];
        };

        for (std::size_t i = 0; i < clauses.size(); ++i) {
            if (dead[i]) continue;
            const Clause& c = clauses[i];
            if (c.empty()) continue;
            for (std::size_t j : candidatesOf(c)) {
                if (j == i || dead[j]) continue;
                if (clauses[j].size() >= c.size() && isSubsetOf(c, clauses[j])) {
                    if (clauses[j].size() == c.size() && j < i) continue;
                    dead[j] = true;
                    ++res_.stats.clausesSubsumed;
                    any = true;
                }
            }
            for (std::size_t li = 0; li < c.size(); ++li) {
                const Lit l = c[li];
                Clause cWithout;
                for (Lit m : c) {
                    if (m != l) cWithout.push(m);
                }
                for (std::size_t j : occ[(~l).code()]) {
                    if (j == i || dead[j]) continue;
                    Clause& d = clauses[j];
                    if (!d.contains(~l)) continue;
                    Clause dWithout;
                    for (Lit m : d) {
                        if (m != ~l) dWithout.push(m);
                    }
                    if (isSubsetOf(cWithout, dWithout)) {
                        d = std::move(dWithout);
                        ++res_.stats.literalsStrengthened;
                        any = true;
                        if (d.empty()) {
                            res_.decided = SolveResult::Unsat;
                            return true;
                        }
                    }
                }
            }
        }
        if (any) {
            std::vector<Clause> kept;
            for (std::size_t i = 0; i < clauses.size(); ++i) {
                if (!dead[i]) kept.push_back(std::move(clauses[i]));
            }
            clauses = std::move(kept);
            renormalize();
        }
        return any;
    }

    bool substituteEquivalences()
    {
        const std::uint32_t numLits = 2 * f_.numVars();
        std::vector<std::vector<std::uint32_t>> adj(numLits);
        bool haveBinary = false;
        for (const Clause& c : f_.matrix()) {
            if (c.size() != 2) continue;
            haveBinary = true;
            adj[(~c[0]).code()].push_back(c[1].code());
            adj[(~c[1]).code()].push_back(c[0].code());
        }
        if (!haveBinary) return false;

        constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
        std::vector<std::uint32_t> index(numLits, kUnvisited), low(numLits, 0),
            comp(numLits, kUnvisited);
        std::vector<bool> onStack(numLits, false);
        std::vector<std::uint32_t> sccStack;
        std::uint32_t nextIndex = 0, nextComp = 0;
        struct Frame {
            std::uint32_t node;
            std::size_t child;
        };
        for (std::uint32_t start = 0; start < numLits; ++start) {
            if (index[start] != kUnvisited) continue;
            std::vector<Frame> frames{{start, 0}};
            index[start] = low[start] = nextIndex++;
            sccStack.push_back(start);
            onStack[start] = true;
            while (!frames.empty()) {
                Frame& fr = frames.back();
                if (fr.child < adj[fr.node].size()) {
                    const std::uint32_t next = adj[fr.node][fr.child++];
                    if (index[next] == kUnvisited) {
                        index[next] = low[next] = nextIndex++;
                        sccStack.push_back(next);
                        onStack[next] = true;
                        frames.push_back({next, 0});
                    } else if (onStack[next]) {
                        low[fr.node] = std::min(low[fr.node], index[next]);
                    }
                } else {
                    if (low[fr.node] == index[fr.node]) {
                        for (;;) {
                            const std::uint32_t w = sccStack.back();
                            sccStack.pop_back();
                            onStack[w] = false;
                            comp[w] = nextComp;
                            if (w == fr.node) break;
                        }
                        ++nextComp;
                    }
                    const std::uint32_t done = fr.node;
                    frames.pop_back();
                    if (!frames.empty()) {
                        low[frames.back().node] = std::min(low[frames.back().node], low[done]);
                    }
                }
            }
        }

        std::map<std::uint32_t, std::vector<Lit>> members;
        for (std::uint32_t code = 0; code < numLits; ++code) {
            if (comp[code] != kUnvisited) members[comp[code]].push_back(Lit::fromCode(code));
        }

        bool any = false;
        for (auto& [id, lits] : members) {
            if (lits.size() < 2) continue;
            for (Lit l : lits) {
                if (comp[l.code()] == comp[(~l).code()]) {
                    res_.decided = SolveResult::Unsat;
                    return true;
                }
            }
            const Lit minLit = *std::min_element(lits.begin(), lits.end());
            if (minLit.negative()) continue;
            if (!mergeComponent(lits)) return true;
            any = true;
        }
        if (any) renormalize();
        return any;
    }

    bool mergeComponent(const std::vector<Lit>& lits)
    {
        std::vector<Lit> universalLits, existentialLits;
        for (Lit l : lits) {
            if (f_.isUniversal(l.var())) {
                universalLits.push_back(l);
            } else if (f_.isExistential(l.var())) {
                existentialLits.push_back(l);
            }
        }
        if (universalLits.size() + existentialLits.size() < 2) return true;
        if (universalLits.size() >= 2) {
            res_.decided = SolveResult::Unsat;
            return false;
        }
        Lit rep;
        if (universalLits.size() == 1) {
            rep = universalLits[0];
            for (Lit ly : existentialLits) {
                if (!f_.dependsOn(ly.var(), rep.var())) {
                    res_.decided = SolveResult::Unsat;
                    return false;
                }
            }
        } else {
            rep = existentialLits[0];
            std::vector<Var> inter = f_.dependencies(rep.var());
            for (Lit ly : existentialLits) {
                const auto& d = f_.dependencies(ly.var());
                std::vector<Var> next;
                std::set_intersection(inter.begin(), inter.end(), d.begin(), d.end(),
                                      std::back_inserter(next));
                inter = std::move(next);
            }
            f_.setDependencies(rep.var(), std::move(inter));
        }
        for (Lit ly : existentialLits) {
            if (ly.var() == rep.var()) continue;
            substituteVar(ly.var(), rep ^ ly.negative());
            ++res_.stats.equivalencesSubstituted;
        }
        return true;
    }

    void substituteVar(Var y, Lit rep)
    {
        if (recorder_) recorder_->record(SkolemRecorder::AliasLit{y, rep});
        f_.removeExistential(y);
        for (Clause& c : f_.matrix().clauses()) {
            for (Lit& l : c.lits()) {
                if (l.var() == y) l = rep ^ l.negative();
            }
        }
    }

    void detectGates()
    {
        auto& clauses = f_.matrix().clauses();
        std::map<std::vector<std::uint32_t>, std::size_t> byKey;
        for (std::size_t i = 0; i < clauses.size(); ++i) byKey.emplace(clauseKey(clauses[i]), i);

        auto findClause = [&](std::vector<Lit> lits) -> std::optional<std::size_t> {
            std::vector<std::uint32_t> key;
            key.reserve(lits.size());
            for (Lit l : lits) key.push_back(l.code());
            std::sort(key.begin(), key.end());
            auto it = byKey.find(key);
            if (it == byKey.end()) return std::nullopt;
            return it->second;
        };

        std::map<Var, std::vector<Var>> acceptedInputs;
        std::vector<bool> removed(clauses.size(), false);

        auto reaches = [&](Var from, Var target) {
            std::vector<Var> stack{from};
            std::set<Var> seen;
            while (!stack.empty()) {
                const Var v = stack.back();
                stack.pop_back();
                if (v == target) return true;
                if (!seen.insert(v).second) continue;
                auto it = acceptedInputs.find(v);
                if (it != acceptedInputs.end()) {
                    stack.insert(stack.end(), it->second.begin(), it->second.end());
                }
            }
            return false;
        };

        auto inputsAdmissible = [&](Var g, const std::vector<Lit>& inputs) {
            if (!f_.isExistential(g)) return false;
            if (acceptedInputs.contains(g)) return false;
            for (Lit m : inputs) {
                const Var u = m.var();
                if (u == g) return false;
                if (f_.isUniversal(u)) {
                    if (!f_.dependsOn(g, u)) return false;
                } else if (f_.isExistential(u)) {
                    const auto& du = f_.dependencies(u);
                    const auto& dg = f_.dependencies(g);
                    if (!std::includes(dg.begin(), dg.end(), du.begin(), du.end())) return false;
                } else {
                    return false;
                }
                if (reaches(u, g)) return false;
            }
            return true;
        };

        auto accept = [&](Var g, GateKind kind, Lit target, std::vector<Lit> inputs,
                          const std::vector<std::size_t>& defClauses) {
            std::vector<Var> inputVars;
            for (Lit m : inputs) inputVars.push_back(m.var());
            acceptedInputs.emplace(g, std::move(inputVars));
            for (std::size_t idx : defClauses) removed[idx] = true;
            res_.gates.push_back(GateDef{target, kind, std::move(inputs)});
            ++res_.stats.gatesDetected;
        };

        for (std::size_t ci = 0; ci < clauses.size(); ++ci) {
            if (removed[ci]) continue;
            const Clause& c = clauses[ci];
            if (c.size() < 3) continue;
            for (std::size_t oi = 0; oi < c.size(); ++oi) {
                const Lit L = c[oi];
                const Var g = L.var();
                std::vector<Lit> others;
                for (std::size_t k = 0; k < c.size(); ++k) {
                    if (k != oi) others.push_back(c[k]);
                }
                {
                    std::vector<std::size_t> defs{ci};
                    bool ok = true;
                    for (Lit m : others) {
                        const auto bin = findClause({~L, ~m});
                        if (!bin || removed[*bin]) {
                            ok = false;
                            break;
                        }
                        defs.push_back(*bin);
                    }
                    if (ok && inputsAdmissible(g, others)) {
                        accept(g, GateKind::Or, ~L, others, defs);
                        break;
                    }
                }
                if (c.size() == 3) {
                    const Lit u = others[0], v = others[1];
                    const auto c2 = findClause({L, ~u, ~v});
                    const auto c3 = findClause({~L, ~u, v});
                    const auto c4 = findClause({~L, u, ~v});
                    if (c2 && c3 && c4 && !removed[*c2] && !removed[*c3] && !removed[*c4] &&
                        inputsAdmissible(g, others)) {
                        accept(g, GateKind::Xor, ~L, others, {ci, *c2, *c3, *c4});
                        break;
                    }
                }
            }
        }

        std::vector<Clause> kept;
        for (std::size_t i = 0; i < clauses.size(); ++i) {
            if (!removed[i]) kept.push_back(std::move(clauses[i]));
        }
        clauses = std::move(kept);
    }

    DqbfFormula& f_;
    const PreprocessOptions& opts_;
    SkolemRecorder* recorder_;
    PreprocessResult res_;
};

} // namespace reference

// ----- what a preprocessing run hands on -------------------------------------

/// How describe() lists the alias records of one run of consecutive
/// AliasLit records.
enum class AliasOrder {
    Exact,
    /// As a set.  One equivalence pass merges classes over disjoint
    /// variables, so its alias records commute; before the passes merged
    /// classes in Tarjan order they came out in hash-map order.
    RunAsSet,
};

/// Text of everything a run produces: verdict, statistics, gates, Skolem
/// records and, unless the verdict is UNSAT (which leaves the formula
/// unspecified), the formula in DQDIMACS.
std::string describe(const DqbfFormula& f, const PreprocessResult& r, const SkolemRecorder& rec,
                     AliasOrder order)
{
    std::ostringstream os;
    os << "decided " << r.decided << '\n';
    const PreprocessStats& s = r.stats;
    os << "stats " << s.unitsPropagated << ' ' << s.universalLiteralsReduced << ' '
       << s.equivalencesSubstituted << ' ' << s.gatesDetected << ' ' << s.clausesSubsumed << ' '
       << s.literalsStrengthened << ' ' << s.rounds << '\n';
    for (const GateDef& g : r.gates) {
        os << "gate " << g.target.toDimacs() << (g.kind == GateKind::Or ? " or" : " xor");
        for (Lit m : g.inputs) os << ' ' << m.toDimacs();
        os << '\n';
    }
    std::vector<std::pair<Var, int>> aliasRun;
    auto flushAliases = [&] {
        if (order == AliasOrder::RunAsSet) std::sort(aliasRun.begin(), aliasRun.end());
        for (const auto& [var, rep] : aliasRun) os << "alias " << var << ' ' << rep << '\n';
        aliasRun.clear();
    };
    for (const SkolemRecorder::Record& record : rec.records()) {
        if (const auto* a = std::get_if<SkolemRecorder::AliasLit>(&record)) {
            aliasRun.emplace_back(a->var, a->rep.toDimacs());
            continue;
        }
        flushAliases();
        if (const auto* c = std::get_if<SkolemRecorder::Constant>(&record)) {
            os << "constant " << c->var << ' ' << c->value << '\n';
        } else {
            os << "record " << record.index() << '\n';
        }
    }
    flushAliases();
    if (r.decided != SolveResult::Unsat) os << toDqdimacsString(f.toParsed());
    return os.str();
}

std::uint64_t fnv1a(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string runProduction(DqbfFormula f, const PreprocessOptions& opts, AliasOrder order)
{
    SkolemRecorder rec;
    const PreprocessResult r = preprocess(f, opts, &rec);
    return describe(f, r, rec, order);
}

std::string runReference(DqbfFormula f, const PreprocessOptions& opts)
{
    SkolemRecorder rec;
    const PreprocessResult r = reference::Preprocessor(f, opts, &rec).run();
    return describe(f, r, rec, AliasOrder::Exact);
}

// ----- golden digests ---------------------------------------------------------

/// @p f with its variables renumbered by a seeded permutation; prefix and
/// clause order are kept.
DqbfFormula renumbered(const DqbfFormula& f, std::uint64_t seed)
{
    const Var n = f.numVars();
    std::vector<Var> perm(n);
    for (Var v = 0; v < n; ++v) perm[v] = v;
    Rng rng(seed);
    for (Var v = n; v > 1; --v) std::swap(perm[v - 1], perm[rng.below(v)]);

    DqbfFormula out;
    out.matrix().ensureVars(n);
    for (Var x : f.universals()) out.makeUniversal(perm[x]);
    for (Var y : f.existentials()) {
        std::vector<Var> deps;
        for (Var x : f.dependencies(y)) deps.push_back(perm[x]);
        out.makeExistential(perm[y], std::move(deps));
    }
    for (const Clause& c : f.matrix()) {
        Clause mapped;
        for (Lit l : c) mapped.push(Lit(perm[l.var()], l.negative()));
        out.matrix().clauses().push_back(std::move(mapped));
    }
    return out;
}

struct GoldenCase {
    const char* name; ///< family_w<width>_{sat,unsat}[_r<renumbering seed>]
    std::uint64_t digest;
};

// clang-format off
const GoldenCase kGolden[] = {
    {"adder_w3_unsat", 0xdc5ec5e78cf81a49ull},
    {"adder_w3_unsat_r1", 0x0dd3b91c98637faeull},
    {"adder_w3_unsat_r2", 0xd4e2ffe4e6cfeaf8ull},
    {"adder_w3_sat", 0xe6520a8c0ae2a6eeull},
    {"adder_w3_sat_r1", 0x365c941c6d47c9b9ull},
    {"adder_w3_sat_r2", 0x52b627ab2abf2a62ull},
    {"adder_w4_unsat", 0xe55e38ade014e0f0ull},
    {"adder_w4_unsat_r1", 0xb77f5a009686bae1ull},
    {"adder_w4_unsat_r2", 0x470ac5e28972ae1dull},
    {"adder_w4_sat", 0x9c6c101cf45b63c7ull},
    {"adder_w4_sat_r1", 0x009b24c5d040f903ull},
    {"adder_w4_sat_r2", 0x929ee4ca79458fe1ull},
    {"adder_w5_unsat", 0x9af50723c8231f38ull},
    {"adder_w5_unsat_r1", 0x9567835777f83095ull},
    {"adder_w5_unsat_r2", 0xd1526724e3b31f9cull},
    {"adder_w5_sat", 0x494b3e0f846317a9ull},
    {"adder_w5_sat_r1", 0xb1d58af30d0be67bull},
    {"adder_w5_sat_r2", 0x4da8938b6f2505ecull},
    {"adder_w6_unsat", 0x6fe749eb006b2e6dull},
    {"adder_w6_unsat_r1", 0xd9c5ebc6edd6d7dfull},
    {"adder_w6_unsat_r2", 0xd7cf1cb622dd82c6ull},
    {"adder_w6_sat", 0xbd42e40ac740db93ull},
    {"adder_w6_sat_r1", 0xb2a0843a0c98dbe1ull},
    {"adder_w6_sat_r2", 0xd8558f685e9e7b61ull},
    {"bitcell_w3_unsat", 0x6131a4081c95bd15ull},
    {"bitcell_w3_unsat_r1", 0xf614a5fb5ffff860ull},
    {"bitcell_w3_unsat_r2", 0x59715068b869d386ull},
    {"bitcell_w3_sat", 0xc8ef576bdff480b3ull},
    {"bitcell_w3_sat_r1", 0xc1f7b2d82eff5126ull},
    {"bitcell_w3_sat_r2", 0x2c7be9abf70d0381ull},
    {"bitcell_w4_unsat", 0xc864f03a3deaaa8full},
    {"bitcell_w4_unsat_r1", 0xc186ae9247b722acull},
    {"bitcell_w4_unsat_r2", 0x91116172448b3855ull},
    {"bitcell_w4_sat", 0xb500210c07c190beull},
    {"bitcell_w4_sat_r1", 0xc20397d3a6992c76ull},
    {"bitcell_w4_sat_r2", 0x4dbf380f0ee06be4ull},
    {"bitcell_w5_unsat", 0x8c23da1f7a030a64ull},
    {"bitcell_w5_unsat_r1", 0x49e0371ae4aae957ull},
    {"bitcell_w5_unsat_r2", 0x1a5ce755b4dde1c6ull},
    {"bitcell_w5_sat", 0xe4df630f079d887eull},
    {"bitcell_w5_sat_r1", 0x7e876043c5809783ull},
    {"bitcell_w5_sat_r2", 0xa10c31ae876a5276ull},
    {"bitcell_w6_unsat", 0xb3fd30c79aec0019ull},
    {"bitcell_w6_unsat_r1", 0x23fb11f0b473c8deull},
    {"bitcell_w6_unsat_r2", 0x1b6b824d452f18a1ull},
    {"bitcell_w6_sat", 0x53f30fe7b0eb370bull},
    {"bitcell_w6_sat_r1", 0xeba64faff076981cull},
    {"bitcell_w6_sat_r2", 0x3e0f53e4cdd1a656ull},
    {"lookahead_w3_unsat", 0xe03b0cc4148beec5ull},
    {"lookahead_w3_unsat_r1", 0x0b8835dc53aab3c3ull},
    {"lookahead_w3_unsat_r2", 0x94a740f189664970ull},
    {"lookahead_w3_sat", 0x3853c40b2e356d9full},
    {"lookahead_w3_sat_r1", 0x61e2e1d25561d3d0ull},
    {"lookahead_w3_sat_r2", 0x5df7102eb1185f9aull},
    {"lookahead_w4_unsat", 0x419470c82c377693ull},
    {"lookahead_w4_unsat_r1", 0xf1036e3a163a5cc6ull},
    {"lookahead_w4_unsat_r2", 0x9620be1698ba9c91ull},
    {"lookahead_w4_sat", 0xd00fe6484037b85aull},
    {"lookahead_w4_sat_r1", 0xd6a37a20675721b5ull},
    {"lookahead_w4_sat_r2", 0x5a03cff3035f7f01ull},
    {"lookahead_w5_unsat", 0x8f006856ddcfab57ull},
    {"lookahead_w5_unsat_r1", 0xcfbe852bd46dc319ull},
    {"lookahead_w5_unsat_r2", 0x58bf600548eca07dull},
    {"lookahead_w5_sat", 0x8eb257505716d613ull},
    {"lookahead_w5_sat_r1", 0x13a61ba3874d50cfull},
    {"lookahead_w5_sat_r2", 0x90b9d354c04552caull},
    {"lookahead_w6_unsat", 0xb3294f9ab389293aull},
    {"lookahead_w6_unsat_r1", 0xb981381449730294ull},
    {"lookahead_w6_unsat_r2", 0x70d87e5190373e8cull},
    {"lookahead_w6_sat", 0xde3b362e0fe25560ull},
    {"lookahead_w6_sat_r1", 0x1d8058f72eb428a8ull},
    {"lookahead_w6_sat_r2", 0x3f406783aae67205ull},
    {"pec_xor_w3_unsat", 0x17195c9d8c4d56fbull},
    {"pec_xor_w3_unsat_r1", 0xce18e270d18488b8ull},
    {"pec_xor_w3_unsat_r2", 0x21b902dd0d3ea082ull},
    {"pec_xor_w3_sat", 0xa1254c656f2ae4e9ull},
    {"pec_xor_w3_sat_r1", 0xedb9739334564adbull},
    {"pec_xor_w3_sat_r2", 0x36d4e7d51e9357d0ull},
    {"pec_xor_w4_unsat", 0x5ad62e8683d979b2ull},
    {"pec_xor_w4_unsat_r1", 0xd9f68293058189eeull},
    {"pec_xor_w4_unsat_r2", 0x1b011791bd462c32ull},
    {"pec_xor_w4_sat", 0x7c5b01aaa5c3428eull},
    {"pec_xor_w4_sat_r1", 0x52ef8a5671543b49ull},
    {"pec_xor_w4_sat_r2", 0xbefe130548404bdbull},
    {"pec_xor_w5_unsat", 0x7f8017d94610cdafull},
    {"pec_xor_w5_unsat_r1", 0xc1c54cf5f0b091ffull},
    {"pec_xor_w5_unsat_r2", 0xd68f0ff8043b4c63ull},
    {"pec_xor_w5_sat", 0x2415c651c9fbcebcull},
    {"pec_xor_w5_sat_r1", 0x58718b1985699e15ull},
    {"pec_xor_w5_sat_r2", 0x1e1bb40ab3653241ull},
    {"pec_xor_w6_unsat", 0x9d06e3ff599533b0ull},
    {"pec_xor_w6_unsat_r1", 0xd6615ede0ea3beaeull},
    {"pec_xor_w6_unsat_r2", 0xa2db7fb383a5a6f9ull},
    {"pec_xor_w6_sat", 0x747ac5d67300cbcdull},
    {"pec_xor_w6_sat_r1", 0x2d022711a16b39c1ull},
    {"pec_xor_w6_sat_r2", 0x92d99022d6b83e01ull},
    {"z4_w3_unsat", 0xa002824068cf301cull},
    {"z4_w3_unsat_r1", 0x83e88bb2fab933e4ull},
    {"z4_w3_unsat_r2", 0x8e91d37fd3722b14ull},
    {"z4_w3_sat", 0x268ecb046f380120ull},
    {"z4_w3_sat_r1", 0x7ef48ffc4f0a9c69ull},
    {"z4_w3_sat_r2", 0xc98e4c6ce8448f4dull},
    {"z4_w4_unsat", 0x1f85f27b54280605ull},
    {"z4_w4_unsat_r1", 0xc7c00a69cc8f87b3ull},
    {"z4_w4_unsat_r2", 0xa39fa068ab29dea9ull},
    {"z4_w4_sat", 0x7983e896e060480cull},
    {"z4_w4_sat_r1", 0x2fe3043c4db46ed2ull},
    {"z4_w4_sat_r2", 0xd3d3acf99e279d2bull},
    {"z4_w5_unsat", 0x12eedef0b0996cf3ull},
    {"z4_w5_unsat_r1", 0xc1e7606c523d4165ull},
    {"z4_w5_unsat_r2", 0x158f5b6e27a8ee50ull},
    {"z4_w5_sat", 0xa3044ef7d53275c4ull},
    {"z4_w5_sat_r1", 0x8c430861f7922b26ull},
    {"z4_w5_sat_r2", 0x3ea4a3d3e4d8b722ull},
    {"z4_w6_unsat", 0x6de971f8d8bf99c2ull},
    {"z4_w6_unsat_r1", 0x1d5b451598ecf25dull},
    {"z4_w6_unsat_r2", 0xff1399d3695873a6ull},
    {"z4_w6_sat", 0x6ac412b800b36588ull},
    {"z4_w6_sat_r1", 0x6cc8b2c87ee3f9c3ull},
    {"z4_w6_sat_r2", 0xa9582513266f671dull},
    {"comp_w3_unsat", 0xbbcfb75d5ae6fc57ull},
    {"comp_w3_unsat_r1", 0xa3f231f1bbdecaedull},
    {"comp_w3_unsat_r2", 0x4b673b80caa61d0dull},
    {"comp_w3_sat", 0x7c6ec1186ade9f75ull},
    {"comp_w3_sat_r1", 0x1a7f7b8d0afabc83ull},
    {"comp_w3_sat_r2", 0x51e8a38f2bf34cd5ull},
    {"comp_w4_unsat", 0x116eff39f1975817ull},
    {"comp_w4_unsat_r1", 0xabfa721771a32034ull},
    {"comp_w4_unsat_r2", 0x56e2d4e199b30822ull},
    {"comp_w4_sat", 0xe474606b6dc6fffeull},
    {"comp_w4_sat_r1", 0x0689e7362b640b58ull},
    {"comp_w4_sat_r2", 0x2a617bf5c3d2d5adull},
    {"comp_w5_unsat", 0x23da147abb13da58ull},
    {"comp_w5_unsat_r1", 0x1350b0e0bbd8fa07ull},
    {"comp_w5_unsat_r2", 0xa6378dfa18790a5eull},
    {"comp_w5_sat", 0xd3b12673a5f808faull},
    {"comp_w5_sat_r1", 0xf6bd7a5bfb7940c9ull},
    {"comp_w5_sat_r2", 0x5c700cbfbb9dc55eull},
    {"comp_w6_unsat", 0xf151331510a72ce9ull},
    {"comp_w6_unsat_r1", 0xc59dbc3238fafd88ull},
    {"comp_w6_unsat_r2", 0x4cc6d1ceda6290d9ull},
    {"comp_w6_sat", 0x70f55d7260d85286ull},
    {"comp_w6_sat_r1", 0x31573ccba28c8f69ull},
    {"comp_w6_sat_r2", 0x01542dc12c306d4aull},
    {"c432_w3_unsat", 0x41cc7baaa2ad2af1ull},
    {"c432_w3_unsat_r1", 0xefcfaa70eff4bb21ull},
    {"c432_w3_unsat_r2", 0x62ba3bf5e958a782ull},
    {"c432_w3_sat", 0x769ded8ab9e9ff88ull},
    {"c432_w3_sat_r1", 0xfea4207096b137ccull},
    {"c432_w3_sat_r2", 0xc15e45005b41e41eull},
    {"c432_w4_unsat", 0x8cf2cd494fd9ab8dull},
    {"c432_w4_unsat_r1", 0xa351dc7dd7397866ull},
    {"c432_w4_unsat_r2", 0x60d36128b313fcc7ull},
    {"c432_w4_sat", 0x2bedcbd81913aa74ull},
    {"c432_w4_sat_r1", 0x900cc02a1a1d96bbull},
    {"c432_w4_sat_r2", 0x75597182dfc3f515ull},
    {"c432_w5_unsat", 0x91e2911f40b7aadeull},
    {"c432_w5_unsat_r1", 0x8eb013b1645c745aull},
    {"c432_w5_unsat_r2", 0xac36e6c288879e1full},
    {"c432_w5_sat", 0xa87eadcfbff01934ull},
    {"c432_w5_sat_r1", 0x4887b3e5f628dfa0ull},
    {"c432_w5_sat_r2", 0xf4560e17e193cc0full},
    {"c432_w6_unsat", 0x56b435224425fb4aull},
    {"c432_w6_unsat_r1", 0x423c674db69df01bull},
    {"c432_w6_unsat_r2", 0x4aef6fc8b495bb86ull},
    {"c432_w6_sat", 0xfcaed5e01cb0c770ull},
    {"c432_w6_sat_r1", 0x748f8790cdcad5b0ull},
    {"c432_w6_sat_r2", 0x757ddb4622ee449eull},
};
// clang-format on

TEST(PreprocessGolden, DigestsMatchAcrossFamiliesAndRenumberings)
{
    std::size_t checked = 0;
    for (Family family : allFamilies()) {
        for (unsigned width = 3; width <= 6; ++width) {
            for (bool realizable : {false, true}) {
                const DqbfFormula base =
                    encodePec(makeInstance(family, width, realizable)).formula;
                for (std::uint64_t seed : {0u, 1u, 2u}) {
                    const std::string name = toString(family) + "_w" + std::to_string(width) +
                                             (realizable ? "_sat" : "_unsat") +
                                             (seed ? "_r" + std::to_string(seed) : "");
                    const std::uint64_t digest =
                        fnv1a(runProduction(seed ? renumbered(base, seed) : base, {},
                                            AliasOrder::RunAsSet));
                    std::ostringstream row;
                    row << "{\"" << name << "\", 0x" << std::hex << std::setw(16)
                        << std::setfill('0') << digest << "ull},";
                    const auto it = std::find_if(
                        std::begin(kGolden), std::end(kGolden),
                        [&](const GoldenCase& g) { return name == g.name; });
                    if (it == std::end(kGolden)) {
                        ADD_FAILURE() << "no golden digest, computed " << row.str();
                    } else {
                        EXPECT_EQ(digest, it->digest) << "computed " << row.str();
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, std::size(kGolden));
}

// ----- production against the reference --------------------------------------

/// A random DQBF shaped to reach every pass: units, clauses whose
/// universal literals reduce away, planted equivalences and AND/OR/XOR
/// definitions, duplicates, tautologies and unsorted literal order.
DqbfFormula randomFormula(Rng& rng, unsigned numUniv, unsigned numExist, unsigned numClauses)
{
    DqbfFormula f;
    std::vector<Var> xs, ys;
    for (unsigned i = 0; i < numUniv; ++i) xs.push_back(f.addUniversal());
    for (unsigned i = 0; i < numExist; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.below(3) != 0) deps.push_back(x);
        }
        ys.push_back(f.addExistential(std::move(deps)));
    }
    std::vector<Var> all = xs;
    all.insert(all.end(), ys.begin(), ys.end());
    auto anyLit = [&] { return Lit(all[rng.below(all.size())], rng.flip()); };
    auto existLit = [&] { return Lit(ys[rng.below(ys.size())], rng.flip()); };
    auto& clauses = f.matrix().clauses();

    while (clauses.size() < numClauses) {
        switch (rng.below(11)) {
            case 0: // unit
                if (rng.below(4) == 0) clauses.push_back(Clause{anyLit()});
                break;
            case 1: { // equivalence a == b
                const Lit a = existLit(), b = rng.below(4) == 0 ? anyLit() : existLit();
                clauses.push_back(Clause{~a, b});
                clauses.push_back(Clause{b ^ true, a});
                break;
            }
            case 2: { // g == AND(inputs), as (~g | m) and (g | ~m1 | ... | ~mk)
                const Lit g = existLit();
                Clause big{g};
                const unsigned k = 2 + static_cast<unsigned>(rng.below(2));
                for (unsigned j = 0; j < k; ++j) {
                    const Lit m = anyLit();
                    clauses.push_back(Clause{~g, m});
                    big.push(~m);
                }
                clauses.push_back(std::move(big));
                break;
            }
            case 3: { // g == u XOR v
                const Lit g = existLit(), u = anyLit(), v = anyLit();
                clauses.push_back(Clause{~g, u, v});
                clauses.push_back(Clause{~g, ~u, ~v});
                clauses.push_back(Clause{g, ~u, v});
                clauses.push_back(Clause{g, u, ~v});
                break;
            }
            case 4: // duplicate, with its literals in another order
                if (!clauses.empty()) {
                    Clause copy = clauses[rng.below(clauses.size())];
                    std::reverse(copy.begin(), copy.end());
                    clauses.push_back(std::move(copy));
                }
                break;
            case 5: { // a clause and a strengthening partner
                const Lit a = anyLit(), b = anyLit(), c = anyLit();
                clauses.push_back(Clause{a, b});
                clauses.push_back(Clause{~a, b, c});
                break;
            }
            case 6: // a copy with an extra literal that a unit falsifies:
                    // a duplicate once units propagate
                if (!clauses.empty()) {
                    Clause copy = clauses[rng.below(clauses.size())];
                    const Lit extra = existLit();
                    copy.push(extra);
                    clauses.push_back(std::move(copy));
                    clauses.push_back(Clause{~extra});
                }
                break;
            default: { // random clause, sometimes a tautology
                Clause c;
                const unsigned k = 1 + static_cast<unsigned>(rng.below(4));
                for (unsigned j = 0; j < k; ++j) c.push(anyLit());
                clauses.push_back(std::move(c));
            }
        }
    }
    return f;
}

PreprocessOptions optionsFromMask(unsigned mask)
{
    PreprocessOptions o;
    o.unitPropagation = mask & 1u;
    o.universalReduction = mask & 2u;
    o.equivalences = mask & 4u;
    o.gateDetection = mask & 8u;
    o.subsumption = mask & 16u;
    return o;
}

void expectAgreement(const DqbfFormula& f, const PreprocessOptions& o, const std::string& what)
{
    const std::string want = runReference(f, o);
    const std::string got = runProduction(f, o, AliasOrder::Exact);
    ASSERT_EQ(got, want) << what << "\ninput: " << f;
}

TEST(PreprocessReference, SmallRandomFormulasEveryToggle)
{
    Rng rng(0x5eed'0001);
    for (int n = 0; n < 240; ++n) {
        const DqbfFormula f = randomFormula(rng, 1 + static_cast<unsigned>(rng.below(4)),
                                            2 + static_cast<unsigned>(rng.below(6)),
                                            4 + static_cast<unsigned>(rng.below(20)));
        for (unsigned mask = 0; mask < 32; ++mask) {
            expectAgreement(f, optionsFromMask(mask),
                            "formula " + std::to_string(n) + " mask " + std::to_string(mask));
        }
        for (int rounds : {0, 1, 2}) {
            PreprocessOptions o;
            o.maxRounds = rounds;
            expectAgreement(f, o, "formula " + std::to_string(n) + " rounds " +
                                      std::to_string(rounds));
        }
    }
}

TEST(PreprocessReference, LargerRandomFormulasEveryToggle)
{
    Rng rng(0x5eed'0002);
    for (int n = 0; n < 60; ++n) {
        const DqbfFormula f = randomFormula(rng, 3 + static_cast<unsigned>(rng.below(5)),
                                            8 + static_cast<unsigned>(rng.below(16)),
                                            40 + static_cast<unsigned>(rng.below(80)));
        for (unsigned mask = 0; mask < 32; ++mask) {
            expectAgreement(f, optionsFromMask(mask),
                            "formula " + std::to_string(n) + " mask " + std::to_string(mask));
        }
    }
}

TEST(PreprocessReference, GateLookupTakesTheFirstOfDuplicateClauses)
{
    // g == AND(y1, y2); unit propagation (z := 0) turns the last clause into
    // a second copy of (~g | y1), and with subsumption off nothing removes
    // it before gate detection.  The definition consumes the first copy.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y1 = f.addExistential({x});
    const Var y2 = f.addExistential({x});
    const Var g = f.addExistential({x});
    const Var z = f.addExistential({});
    for (Clause c : {Clause{Lit::neg(g), Lit::pos(y1)}, Clause{Lit::neg(g), Lit::pos(y2)},
                     Clause{Lit::pos(g), Lit::neg(y1), Lit::neg(y2)},
                     Clause{Lit::pos(x), Lit::pos(y1), Lit::pos(y2)},
                     Clause{Lit::neg(g), Lit::pos(y1), Lit::pos(z)}, Clause{Lit::neg(z)}}) {
        f.matrix().addClause(std::move(c));
    }
    PreprocessOptions o;
    o.subsumption = false;
    expectAgreement(f, o, "duplicate gate clause");

    DqbfFormula g1 = f;
    const PreprocessResult r = preprocess(g1, o);
    ASSERT_EQ(r.gates.size(), 1u);
    ASSERT_EQ(g1.matrix().numClauses(), 2u);
    EXPECT_EQ(g1.matrix().clause(0), (Clause{Lit::pos(x), Lit::pos(y1), Lit::pos(y2)}));
    EXPECT_EQ(g1.matrix().clause(1), (Clause{Lit::pos(y1), Lit::neg(g)}));
}

TEST(PreprocessReference, PecInstancesAllToggles)
{
    for (Family family : allFamilies()) {
        // Realizable but for comp, so both kinds of instance appear.
        const DqbfFormula f = encodePec(makeInstance(family, 4, family != Family::Comp)).formula;
        for (unsigned mask = 0; mask < 32; ++mask) {
            expectAgreement(f, optionsFromMask(mask),
                            toString(family) + " mask " + std::to_string(mask));
        }
    }
}

// ----- phase counters -----------------------------------------------------------

TEST(PreprocessPhases, PassCountersAppearAndStayWithinThePreprocessPhase)
{
    const char* passes[] = {"phase.preprocess.units.us", "phase.preprocess.reduce.us",
                            "phase.preprocess.subsume.us", "phase.preprocess.equiv.us",
                            "phase.preprocess.gates.us"};
    obs::MetricScope scope;
    HqsSolver solver;
    solver.solve(encodePec(makeInstance(Family::Bitcell, 8, true)).formula);
    std::map<std::string, std::int64_t> values;
    for (const obs::MetricValue& m : scope.snapshot(false)) values[m.name] = m.value;
    ASSERT_TRUE(values.contains("phase.preprocess.us"));
    std::int64_t sum = 0;
    for (const char* name : passes) {
        ASSERT_TRUE(values.contains(name)) << name;
        EXPECT_GE(values[name], 0) << name;
        sum += values[name];
    }
    EXPECT_LE(sum, values["phase.preprocess.us"]);
}

} // namespace
} // namespace hqs
