#include "src/dqbf/preprocess.hpp"

#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>

namespace hqs {
namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// True iff every literal of @p c occurs in @p d, reading the literal
/// @p flip of c as ~flip (pass kUndefLit for a plain subset test).  Both
/// clauses are sorted and free of complementary pairs, so replacing flip by
/// its complement, whose code differs only in the last bit, keeps c sorted.
bool includesFlipped(const Clause& d, const Clause& c, Lit flip)
{
    if (c.size() > d.size()) return false;
    std::size_t j = 0;
    for (Lit m : c) {
        if (m == flip) m = ~flip;
        while (j < d.size() && d[j] < m) ++j;
        if (j == d.size() || d[j] != m) return false;
        ++j;
    }
    return true;
}

/// Three-way comparison of two sorted clauses by size, then literals.
int compareClauses(const Clause& a, const Clause& b)
{
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
    }
    return 0;
}

enum Pass { kUnits, kReduce, kSubsume, kEquiv, kGates, kNumPasses };

/// The passes.  Every pass walks occurrence lists (literal -> ascending
/// clause indices, in CSR form) or the clause vector itself, and rewrites
/// clauses in place; the index buffers live here and are reused across
/// rounds.
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
            if (opts_.unitPropagation) {
                changed |= timed(kUnits, [&] { return propagateUnits(); });
                if (decided()) return res_;
            }
            if (opts_.universalReduction) {
                changed |= timed(kReduce, [&] { return universalReduce(); });
                if (decided()) return res_;
            }
            if (opts_.subsumption) {
                changed |= timed(kSubsume, [&] { return subsumeAndStrengthen(); });
                if (decided()) return res_;
            }
            if (opts_.equivalences) {
                changed |= timed(kEquiv, [&] { return substituteEquivalences(); });
                if (decided()) return res_;
            }
            if (!changed) break;
        }
        if (f_.matrix().numClauses() == 0) {
            res_.decided = SolveResult::Sat;
            return res_;
        }
        if (opts_.gateDetection) timed(kGates, [&] { detectGates(); return false; });
        return res_;
    }

    /// Wall time spent in each pass, in nanoseconds.
    const std::array<std::uint64_t, kNumPasses>& passNs() const { return passNs_; }

private:
    bool decided() const { return res_.decided != SolveResult::Unknown; }

    /// Run @p body, adding its wall time to @p pass; returns whether the
    /// pass changed the matrix.
    template <class Body>
    bool timed(Pass pass, Body body)
    {
        const std::uint64_t start = obs::detail::nowNs();
        const bool changed = body();
        passNs_[pass] += obs::detail::nowNs() - start;
        return changed;
    }

    std::vector<Clause>& clauses() { return f_.matrix().clauses(); }

    /// Fill occStart_/occ_ so that occ_[occStart_[l] .. occStart_[l + 1])
    /// lists, ascending, the clauses accepted by @p include that contain
    /// literal code l.
    template <class Include>
    void buildOcc(Include include)
    {
        const std::vector<Clause>& cs = clauses();
        // Count into slot l + 2, prefix-sum so slot l + 1 holds the start of
        // l, then fill through slot l + 1, which leaves it at the end of l,
        // i.e. the start of l + 1.
        occStart_.assign(2 * static_cast<std::size_t>(f_.numVars()) + 2, 0);
        for (const Clause& c : cs) {
            if (!include(c)) continue;
            for (Lit l : c) ++occStart_[l.code() + 2];
        }
        for (std::size_t k = 2; k < occStart_.size(); ++k) occStart_[k] += occStart_[k - 1];
        occ_.resize(occStart_.back());
        for (std::uint32_t i = 0; i < cs.size(); ++i) {
            if (!include(cs[i])) continue;
            for (Lit l : cs[i]) occ_[occStart_[l.code() + 1]++] = i;
        }
    }

    std::span<const std::uint32_t> occurrences(Lit l) const
    {
        return {occ_.data() + occStart_[l.code()], occ_.data() + occStart_[l.code() + 1]};
    }

    std::uint32_t occCount(Lit l) const
    {
        return occStart_[l.code() + 1] - occStart_[l.code()];
    }

    /// Drop the clauses flagged in dead_, keeping the order of the rest.
    void compactDead()
    {
        std::vector<Clause>& cs = clauses();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < cs.size(); ++i) {
            if (dead_[i]) continue;
            if (kept != i) cs[kept] = std::move(cs[i]);
            ++kept;
        }
        cs.resize(kept);
    }

    /// Re-normalize all clauses, dropping tautologies and duplicates (the
    /// first occurrence stays).  Returns false (and decides Unsat) on an
    /// empty clause.
    bool renormalize()
    {
        std::vector<Clause>& cs = clauses();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < cs.size(); ++i) {
            if (cs[i].normalize()) continue;
            if (cs[i].empty()) {
                res_.decided = SolveResult::Unsat;
                return false;
            }
            if (kept != i) cs[kept] = std::move(cs[i]);
            ++kept;
        }
        cs.resize(kept);

        // Sort indices by content, ties by index: each run of equal clauses
        // starts with its first occurrence.
        order_.resize(kept);
        for (std::uint32_t i = 0; i < kept; ++i) order_[i] = i;
        std::sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
            const int cmp = compareClauses(cs[a], cs[b]);
            return cmp != 0 ? cmp < 0 : a < b;
        });
        dead_.assign(kept, 0);
        bool duplicates = false;
        for (std::size_t k = 1; k < order_.size(); ++k) {
            if (compareClauses(cs[order_[k - 1]], cs[order_[k]]) == 0) {
                dead_[order_[k]] = 1;
                duplicates = true;
            }
        }
        if (duplicates) compactDead();
        return true;
    }

    /// Theorem 5 at CNF level: existential units are assigned, a universal
    /// unit decides Unsat.  Units are taken in matrix order (a min-heap of
    /// clause indices), so the Constant records keep that order.
    bool propagateUnits()
    {
        std::vector<Clause>& cs = clauses();
        units_.clear();
        for (std::uint32_t i = 0; i < cs.size(); ++i) {
            if (cs[i].size() == 1) units_.push_back(i); // ascending: already a heap
        }
        if (units_.empty()) return false;
        buildOcc([](const Clause&) { return true; });
        dead_.assign(cs.size(), 0);

        bool any = false;
        while (!units_.empty()) {
            std::pop_heap(units_.begin(), units_.end(), std::greater<>());
            const std::uint32_t u = units_.back();
            units_.pop_back();
            if (dead_[u]) continue;
            const Lit unit = cs[u][0];
            if (f_.isUniversal(unit.var())) {
                res_.decided = SolveResult::Unsat;
                return true;
            }
            assign(unit);
            ++res_.stats.unitsPropagated;
            any = true;
            if (decided()) return true;
        }
        compactDead();
        return any;
    }

    /// Set literal @p l true: flag satisfied clauses dead, shorten the rest
    /// and queue the clauses that become units.
    void assign(Lit l)
    {
        if (f_.isExistential(l.var())) {
            if (recorder_) {
                recorder_->record(SkolemRecorder::Constant{l.var(), l.positive()});
            }
            f_.removeExistential(l.var());
        }
        std::vector<Clause>& cs = clauses();
        for (std::uint32_t j : occurrences(l)) dead_[j] = 1;
        for (std::uint32_t j : occurrences(~l)) {
            if (dead_[j]) continue;
            std::erase(cs[j].lits(), ~l);
            if (cs[j].empty()) {
                res_.decided = SolveResult::Unsat;
                return;
            }
            if (cs[j].size() == 1) {
                units_.push_back(j);
                std::push_heap(units_.begin(), units_.end(), std::greater<>());
            }
        }
    }

    /// Generalized universal reduction [13]: drop universal literal u from a
    /// clause when no existential literal of the clause depends on u.
    bool universalReduce()
    {
        bool any = false;
        for (Clause& c : clauses()) {
            // Rewrites c in place.  Existential literals are never dropped,
            // so the scan for a dependent existential sees the same set
            // after the writes as before them.
            std::size_t kept = 0;
            for (std::size_t k = 0; k < c.size(); ++k) {
                const Lit l = c[k];
                const bool keep =
                    !f_.isUniversal(l.var()) || std::any_of(c.begin(), c.end(), [&](Lit m) {
                        return f_.isExistential(m.var()) && f_.dependsOn(m.var(), l.var());
                    });
                if (keep) {
                    c[kept++] = l;
                } else {
                    ++res_.stats.universalLiteralsReduced;
                    any = true;
                }
            }
            c.lits().resize(kept);
            if (c.empty()) {
                res_.decided = SolveResult::Unsat;
                return true;
            }
        }
        if (any) renormalize();
        return any;
    }

    // ----- subsumption and self-subsuming resolution ------------------------

    /// Remove clauses subsumed by another clause (C subset of D removes D)
    /// and strengthen clauses by self-subsuming resolution: when
    /// C = C' or l  and  C' subset of (D minus ~l), drop ~l from D.  Both
    /// preserve the matrix as a propositional formula, hence are DQBF-sound.
    /// The occurrence lists are built once per pass; an entry whose clause
    /// has since lost the literal fails the subset test.
    bool subsumeAndStrengthen()
    {
        std::vector<Clause>& cs = clauses();
        bool any = false;
        buildOcc([](const Clause&) { return true; });
        dead_.assign(cs.size(), 0);

        for (std::uint32_t i = 0; i < cs.size(); ++i) {
            if (dead_[i]) continue;
            const Clause& c = cs[i];
            if (c.empty()) continue;
            // Plain subsumption: remove supersets of c, found through the
            // literal of c with the fewest occurrences.
            Lit best = c[0];
            for (Lit l : c) {
                if (occCount(l) < occCount(best)) best = l;
            }
            for (std::uint32_t j : occurrences(best)) {
                if (j == i || dead_[j]) continue;
                if (includesFlipped(cs[j], c, kUndefLit)) {
                    // Tie-break equal clauses by index to avoid removing both.
                    if (cs[j].size() == c.size() && j < i) continue;
                    dead_[j] = 1;
                    ++res_.stats.clausesSubsumed;
                    any = true;
                }
            }
            // Self-subsuming resolution: for each literal l of c, a clause D
            // containing ~l and c \ {l} loses ~l.  c is no tautology, so
            // c \ {l} subset of D \ {~l} is c \ {l} subset of D.
            for (Lit l : c) {
                for (std::uint32_t j : occurrences(~l)) {
                    if (j == i || dead_[j]) continue;
                    Clause& d = cs[j];
                    if (!includesFlipped(d, c, l)) continue;
                    d.lits().erase(std::find(d.begin(), d.end(), ~l));
                    ++res_.stats.literalsStrengthened;
                    any = true;
                    if (d.empty()) {
                        res_.decided = SolveResult::Unsat;
                        return true;
                    }
                }
            }
        }
        if (any) {
            compactDead();
            renormalize();
        }
        return any;
    }

    // ----- equivalent variables (binary-clause SCCs) -----------------------

    /// Tarjan SCC over the binary implication graph; substitutes one
    /// representative per component with the DQBF soundness side conditions.
    /// Components are merged in ascending Tarjan id.  Merged components
    /// touch disjoint variables, so the order changes neither the matrix
    /// nor the prefix, only the order of the AliasLit records.
    bool substituteEquivalences()
    {
        const std::vector<Clause>& cs = clauses();
        const std::uint32_t numLits = 2 * f_.numVars();

        // Implication graph in CSR form: ~a -> b and ~b -> a per binary
        // clause (a | b), each node's successors in matrix order.
        adjStart_.assign(numLits + 2, 0);
        bool haveBinary = false;
        for (const Clause& c : cs) {
            if (c.size() != 2) continue;
            haveBinary = true;
            ++adjStart_[(~c[0]).code() + 2];
            ++adjStart_[(~c[1]).code() + 2];
        }
        if (!haveBinary) return false;
        for (std::size_t k = 2; k < adjStart_.size(); ++k) adjStart_[k] += adjStart_[k - 1];
        adj_.resize(adjStart_.back());
        for (const Clause& c : cs) {
            if (c.size() != 2) continue;
            adj_[adjStart_[(~c[0]).code() + 1]++] = c[1].code();
            adj_[adjStart_[(~c[1]).code() + 1]++] = c[0].code();
        }

        // Iterative Tarjan.
        index_.assign(numLits, kNone);
        low_.assign(numLits, 0);
        comp_.assign(numLits, kNone);
        onStack_.assign(numLits, 0);
        sccStack_.clear();
        std::uint32_t nextIndex = 0, nextComp = 0;
        for (std::uint32_t start = 0; start < numLits; ++start) {
            if (index_[start] != kNone) continue;
            frames_.clear();
            frames_.push_back({start, adjStart_[start]});
            index_[start] = low_[start] = nextIndex++;
            sccStack_.push_back(start);
            onStack_[start] = 1;
            while (!frames_.empty()) {
                Frame& fr = frames_.back();
                if (fr.next < adjStart_[fr.node + 1]) {
                    const std::uint32_t next = adj_[fr.next++];
                    if (index_[next] == kNone) {
                        index_[next] = low_[next] = nextIndex++;
                        sccStack_.push_back(next);
                        onStack_[next] = 1;
                        frames_.push_back({next, adjStart_[next]});
                    } else if (onStack_[next]) {
                        low_[fr.node] = std::min(low_[fr.node], index_[next]);
                    }
                } else {
                    if (low_[fr.node] == index_[fr.node]) {
                        for (;;) {
                            const std::uint32_t w = sccStack_.back();
                            sccStack_.pop_back();
                            onStack_[w] = 0;
                            comp_[w] = nextComp;
                            if (w == fr.node) break;
                        }
                        ++nextComp;
                    }
                    const std::uint32_t done = fr.node;
                    frames_.pop_back();
                    if (!frames_.empty()) {
                        low_[frames_.back().node] = std::min(low_[frames_.back().node], low_[done]);
                    }
                }
            }
        }

        // Group literals by component (counting sort; ascending code within
        // a component).
        compStart_.assign(nextComp + 2, 0);
        for (std::uint32_t code = 0; code < numLits; ++code) ++compStart_[comp_[code] + 2];
        for (std::size_t k = 2; k < compStart_.size(); ++k) compStart_[k] += compStart_[k - 1];
        members_.resize(numLits);
        for (std::uint32_t code = 0; code < numLits; ++code) {
            members_[compStart_[comp_[code] + 1]++] = Lit::fromCode(code);
        }

        subst_.assign(f_.numVars(), kUndefLit);
        bool any = false;
        for (std::uint32_t id = 0; id < nextComp; ++id) {
            const std::span<const Lit> lits(members_.data() + compStart_[id],
                                            members_.data() + compStart_[id + 1]);
            if (lits.size() < 2) continue;
            // l and ~l in one component: matrix is propositionally unsat.
            for (Lit l : lits) {
                if (comp_[l.code()] == comp_[(~l).code()]) {
                    res_.decided = SolveResult::Unsat;
                    return true;
                }
            }
            // Components come in complementary mirror pairs encoding the
            // same equivalences; process only the one whose minimum literal
            // (the first: members are ascending) is positive.
            if (lits.front().negative()) continue;
            if (!mergeComponent(lits)) return true; // decided Unsat
            any = true;
        }
        if (any) {
            for (Clause& c : clauses()) {
                for (Lit& l : c.lits()) {
                    const Lit rep = subst_[l.var()];
                    if (!rep.isUndef()) l = rep ^ l.negative();
                }
            }
            renormalize();
        }
        return any;
    }

    /// Merge one equivalence class of literals: fix the representative's
    /// dependency set and note every other member's substitution in subst_.
    /// Returns false when the merge shows the formula unsatisfiable.
    bool mergeComponent(std::span<const Lit> lits)
    {
        // Partition into universal and existential literals; skip variables
        // that are no longer in the prefix.
        universalLits_.clear();
        existentialLits_.clear();
        for (Lit l : lits) {
            if (f_.isUniversal(l.var())) {
                universalLits_.push_back(l);
            } else if (f_.isExistential(l.var())) {
                existentialLits_.push_back(l);
            }
        }
        if (universalLits_.size() + existentialLits_.size() < 2) return true;
        if (universalLits_.size() >= 2) {
            // Two universals forced equivalent: falsifiable by the adversary.
            res_.decided = SolveResult::Unsat;
            return false;
        }

        Lit rep;
        if (universalLits_.size() == 1) {
            rep = universalLits_[0];
            for (Lit ly : existentialLits_) {
                if (!f_.dependsOn(ly.var(), rep.var())) {
                    // s_y would have to equal a universal outside D_y.
                    res_.decided = SolveResult::Unsat;
                    return false;
                }
            }
        } else {
            rep = existentialLits_[0];
            // Merged Skolem function must be expressible over every member's
            // dependency set, hence over their intersection.
            std::vector<Var> inter = f_.dependencies(rep.var());
            for (Lit ly : existentialLits_) {
                const std::vector<Var>& d = f_.dependencies(ly.var());
                std::erase_if(inter,
                              [&](Var x) { return !std::binary_search(d.begin(), d.end(), x); });
            }
            f_.setDependencies(rep.var(), std::move(inter));
        }

        for (Lit ly : existentialLits_) {
            if (ly.var() == rep.var()) continue;
            // ly == rep, so the positive literal of var(ly) maps to
            // rep ^ ly.negative().
            const Lit to = rep ^ ly.negative();
            if (recorder_) recorder_->record(SkolemRecorder::AliasLit{ly.var(), to});
            f_.removeExistential(ly.var());
            subst_[ly.var()] = to;
            ++res_.stats.equivalencesSubstituted;
        }
        return true;
    }

    // ----- gate detection ----------------------------------------------------

    /// Index of the first clause whose literals are exactly @p lits
    /// (distinct literals, two or three of them), or kNone.  The first match
    /// is the smallest index, found through the rarest literal's list.
    std::uint32_t findClause(std::initializer_list<Lit> lits) const
    {
        const std::vector<Clause>& cs = f_.matrix().clauses();
        Lit rarest = *lits.begin();
        for (Lit l : lits) {
            if (occCount(l) < occCount(rarest)) rarest = l;
        }
        for (std::uint32_t j : occurrences(rarest)) {
            const Clause& c = cs[j];
            if (c.size() != lits.size()) continue;
            if (std::all_of(lits.begin(), lits.end(), [&](Lit l) { return c.contains(l); })) {
                return j;
            }
        }
        return kNone;
    }

    /// True iff @p target is reachable from @p from through accepted
    /// definitions (used to keep the definition DAG acyclic).
    bool reaches(Var from, Var target)
    {
        ++epoch_;
        dfs_.clear();
        dfs_.push_back(from);
        while (!dfs_.empty()) {
            const Var v = dfs_.back();
            dfs_.pop_back();
            if (v == target) return true;
            if (visited_[v] == epoch_) continue;
            visited_[v] = epoch_;
            if (defined_[v]) {
                dfs_.insert(dfs_.end(), defInputs_.begin() + defStart_[v],
                            defInputs_.begin() + defEnd_[v]);
            }
        }
        return false;
    }

    bool inputsAdmissible(Var g, std::span<const Lit> inputs)
    {
        if (!f_.isExistential(g)) return false;
        if (defined_[g]) return false; // one definition per output
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
            if (reaches(u, g)) return false; // would close a cycle
        }
        return true;
    }

    void accept(Var g, GateKind kind, Lit target, std::span<const Lit> inputs,
                std::span<const std::uint32_t> defClauses)
    {
        defined_[g] = 1;
        defStart_[g] = static_cast<std::uint32_t>(defInputs_.size());
        for (Lit m : inputs) defInputs_.push_back(m.var());
        defEnd_[g] = static_cast<std::uint32_t>(defInputs_.size());
        for (std::uint32_t idx : defClauses) dead_[idx] = 1;
        // Note: AliasGate records for Skolem reconstruction are emitted
        // at composition time (composeGates) in topological order, not
        // here — reconstruction requires user-before-used chronology.
        res_.gates.push_back(GateDef{target, kind, {inputs.begin(), inputs.end()}});
        ++res_.stats.gatesDetected;
    }

    void detectGates()
    {
        const std::vector<Clause>& cs = clauses();
        // Lookups only ever ask for binary and ternary clauses.
        buildOcc([](const Clause& c) { return c.size() == 2 || c.size() == 3; });
        dead_.assign(cs.size(), 0);
        const Var numVars = f_.numVars();
        defined_.assign(numVars, 0);
        defStart_.assign(numVars, 0);
        defEnd_.assign(numVars, 0);
        defInputs_.clear();
        visited_.assign(numVars, 0);
        epoch_ = 0;

        for (std::uint32_t ci = 0; ci < cs.size(); ++ci) {
            if (dead_[ci]) continue;
            const Clause& c = cs[ci];
            if (c.size() < 3) continue;

            for (std::size_t oi = 0; oi < c.size(); ++oi) {
                const Lit L = c[oi];
                const Var g = L.var();
                others_.clear();
                for (std::size_t k = 0; k < c.size(); ++k) {
                    if (k != oi) others_.push_back(c[k]);
                }

                // AND/OR pattern: big clause (L | m1 | ... | mk) plus the
                // binaries (~L | ~mi)  ==>  ~L == OR(m1..mk).
                defs_.assign(1, ci);
                bool ok = true;
                for (Lit m : others_) {
                    const std::uint32_t bin = findClause({~L, ~m});
                    if (bin == kNone || dead_[bin]) {
                        ok = false;
                        break;
                    }
                    defs_.push_back(bin);
                }
                if (ok && inputsAdmissible(g, others_)) {
                    accept(g, GateKind::Or, ~L, others_, defs_);
                    break; // clause ci consumed
                }

                // XOR pattern (ternary clauses only): (L|u|v) with
                // (L|~u|~v), (~L|~u|v), (~L|u|~v)  ==>  ~L == u XOR v.
                if (c.size() == 3) {
                    const Lit u = others_[0], v = others_[1];
                    const std::uint32_t c2 = findClause({L, ~u, ~v});
                    const std::uint32_t c3 = findClause({~L, ~u, v});
                    const std::uint32_t c4 = findClause({~L, u, ~v});
                    if (c2 != kNone && c3 != kNone && c4 != kNone && !dead_[c2] && !dead_[c3] &&
                        !dead_[c4] && inputsAdmissible(g, others_)) {
                        const std::uint32_t xorDefs[] = {ci, c2, c3, c4};
                        accept(g, GateKind::Xor, ~L, others_, xorDefs);
                        break;
                    }
                }
            }
        }
        compactDead();
    }

    DqbfFormula& f_;
    const PreprocessOptions& opts_;
    SkolemRecorder* recorder_;
    PreprocessResult res_;
    std::array<std::uint64_t, kNumPasses> passNs_{};

    // Buffers reused across passes and rounds.
    std::vector<std::uint32_t> occStart_, occ_; ///< literal -> clause indices
    std::vector<std::uint8_t> dead_;            ///< per clause, for compactDead
    std::vector<std::uint32_t> order_;          ///< renormalize's sorted indices
    std::vector<std::uint32_t> units_;          ///< min-heap of unit clause indices

    // Equivalences.
    struct Frame {
        std::uint32_t node;
        std::uint32_t next; ///< position of the next successor in adj_
    };
    std::vector<std::uint32_t> adjStart_, adj_;
    std::vector<std::uint32_t> index_, low_, comp_, sccStack_;
    std::vector<std::uint8_t> onStack_;
    std::vector<Frame> frames_;
    std::vector<std::uint32_t> compStart_;
    std::vector<Lit> members_, universalLits_, existentialLits_;
    std::vector<Lit> subst_; ///< var -> literal it is replaced by (or undef)

    // Gates: accepted definitions, indexed by output variable.
    std::vector<std::uint8_t> defined_;
    std::vector<std::uint32_t> defStart_, defEnd_;
    std::vector<Var> defInputs_;
    std::vector<std::uint32_t> visited_; ///< epoch stamps of reaches()
    std::uint32_t epoch_ = 0;
    std::vector<Var> dfs_;
    std::vector<Lit> others_;
    std::vector<std::uint32_t> defs_;
};

} // namespace

PreprocessResult preprocess(DqbfFormula& f, const PreprocessOptions& opts,
                            SkolemRecorder* recorder)
{
    Preprocessor pre(f, opts, recorder);
    PreprocessResult res = pre.run();
    OBS_COUNT("preprocess.rounds", res.stats.rounds);
    OBS_COUNT("preprocess.units", static_cast<std::int64_t>(res.stats.unitsPropagated));
    OBS_COUNT("preprocess.universal_reductions",
              static_cast<std::int64_t>(res.stats.universalLiteralsReduced));
    OBS_COUNT("preprocess.equivalences",
              static_cast<std::int64_t>(res.stats.equivalencesSubstituted));
    OBS_COUNT("preprocess.gates_detected",
              static_cast<std::int64_t>(res.stats.gatesDetected));
    OBS_COUNT("preprocess.clauses_subsumed",
              static_cast<std::int64_t>(res.stats.clausesSubsumed));
    // Exclusive per-pass phases, inside phase.preprocess.us.
    const auto& ns = pre.passNs();
    OBS_COUNT("phase.preprocess.units.us", static_cast<std::int64_t>(ns[kUnits] / 1000));
    OBS_COUNT("phase.preprocess.reduce.us", static_cast<std::int64_t>(ns[kReduce] / 1000));
    OBS_COUNT("phase.preprocess.subsume.us", static_cast<std::int64_t>(ns[kSubsume] / 1000));
    OBS_COUNT("phase.preprocess.equiv.us", static_cast<std::int64_t>(ns[kEquiv] / 1000));
    OBS_COUNT("phase.preprocess.gates.us", static_cast<std::int64_t>(ns[kGates] / 1000));
    return res;
}

} // namespace hqs
