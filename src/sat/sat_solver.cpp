#include "src/sat/sat_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/base/fault.hpp"
#include "src/obs/obs.hpp"

namespace hqs {
namespace {

/// Internal clause representation.  Clauses are heap-allocated and referenced
/// by pointer from watch lists and reasons; deletion marks the clause and the
/// watch lists are rebuilt before memory is released.
struct SClause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learnt = false;
    bool deleted = false;

    std::size_t size() const { return lits.size(); }
    Lit& operator[](std::size_t i) { return lits[i]; }
    Lit operator[](std::size_t i) const { return lits[i]; }
};

/// Max-heap over variables ordered by activity, with index positions for
/// decrease/increase-key (the classic MiniSat order heap).
class VarOrderHeap {
public:
    explicit VarOrderHeap(const std::vector<double>& act) : act_(act) {}

    void grow(Var n) { pos_.resize(n, -1); }

    bool contains(Var v) const { return pos_[v] >= 0; }
    bool empty() const { return heap_.empty(); }

    void insert(Var v)
    {
        if (contains(v)) return;
        pos_[v] = static_cast<int>(heap_.size());
        heap_.push_back(v);
        siftUp(pos_[v]);
    }

    Var removeMax()
    {
        Var top = heap_[0];
        heap_[0] = heap_.back();
        pos_[heap_[0]] = 0;
        heap_.pop_back();
        pos_[top] = -1;
        if (!heap_.empty()) siftDown(0);
        return top;
    }

    void increased(Var v)
    {
        if (contains(v)) siftUp(pos_[v]);
    }

private:
    bool lt(Var a, Var b) const { return act_[a] > act_[b]; } // max-heap

    void siftUp(int i)
    {
        Var v = heap_[i];
        while (i > 0) {
            int parent = (i - 1) >> 1;
            if (!lt(v, heap_[parent])) break;
            heap_[i] = heap_[parent];
            pos_[heap_[i]] = i;
            i = parent;
        }
        heap_[i] = v;
        pos_[v] = i;
    }

    void siftDown(int i)
    {
        Var v = heap_[i];
        const int n = static_cast<int>(heap_.size());
        for (;;) {
            int child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && lt(heap_[child + 1], heap_[child])) ++child;
            if (!lt(heap_[child], v)) break;
            heap_[i] = heap_[child];
            pos_[heap_[i]] = i;
            i = child;
        }
        heap_[i] = v;
        pos_[v] = i;
    }

    const std::vector<double>& act_;
    std::vector<Var> heap_;
    std::vector<int> pos_;
};

/// luby(i): the i-th element (1-based) of the Luby restart sequence.
double luby(double y, std::uint64_t x)
{
    std::uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x = x % size;
    }
    return std::pow(y, static_cast<double>(seq));
}

} // namespace

struct SatSolver::Impl {
    // Clause database.
    std::vector<std::unique_ptr<SClause>> clauses; // problem clauses
    std::vector<std::unique_ptr<SClause>> learnts;

    struct Watcher {
        SClause* clause;
        Lit blocker;
    };
    std::vector<std::vector<Watcher>> watches; // indexed by lit code

    // Assignment state.
    std::vector<lbool> assigns;    // per var
    std::vector<SClause*> reason;  // per var
    std::vector<int> level;        // per var
    std::vector<Lit> trail;
    std::vector<std::size_t> trailLim;
    std::size_t qhead = 0;

    // Decision heuristics.
    std::vector<double> activity;
    double varInc = 1.0;
    static constexpr double kVarDecay = 0.95;
    std::vector<bool> polarity; // saved phases; true = assign positive
    VarOrderHeap order{activity};

    double claInc = 1.0;
    static constexpr double kClaDecay = 0.999;

    // Conflict analysis scratch.
    std::vector<std::uint8_t> seen;
    std::vector<Lit> analyzeToClear;

    bool topConflict = false;
    std::vector<lbool> model;
    SatStats stats;

    double maxLearnts = 1000.0;
    /// stats.conflicts value at which the current solve() gives up.
    std::uint64_t conflictStop = UINT64_MAX;

    // ----- basic accessors ---------------------------------------------
    lbool value(Lit l) const { return assigns[l.var()] ^ l.negative(); }
    lbool value(Var v) const { return assigns[v]; }
    int decisionLevel() const { return static_cast<int>(trailLim.size()); }

    Var newVar()
    {
        const Var v = static_cast<Var>(assigns.size());
        assigns.push_back(lbool::Undef);
        reason.push_back(nullptr);
        level.push_back(0);
        activity.push_back(0.0);
        polarity.push_back(false);
        seen.push_back(0);
        watches.emplace_back();
        watches.emplace_back();
        order.grow(v + 1);
        order.insert(v);
        return v;
    }

    void ensureVars(Var n)
    {
        while (assigns.size() < n) newVar();
    }

    // ----- clause attachment -------------------------------------------
    void attach(SClause* c)
    {
        assert(c->size() >= 2);
        watches[(~(*c)[0]).code()].push_back({c, (*c)[1]});
        watches[(~(*c)[1]).code()].push_back({c, (*c)[0]});
    }

    bool locked(const SClause* c) const
    {
        Lit first = (*c)[0];
        return reason[first.var()] == c && value(first).isTrue();
    }

    void uncheckedEnqueue(Lit p, SClause* from)
    {
        assert(value(p).isUndef());
        assigns[p.var()] = lbool(!p.negative());
        reason[p.var()] = from;
        level[p.var()] = decisionLevel();
        trail.push_back(p);
    }

    bool addClause(std::vector<Lit> lits)
    {
        assert(decisionLevel() == 0);
        if (topConflict) return false;
        Clause tmp(std::move(lits));
        if (tmp.normalize()) return true; // tautology: trivially fine
        // Remove literals false at top level; detect satisfied clauses.
        std::vector<Lit> out;
        for (Lit l : tmp) {
            ensureVars(l.var() + 1);
            lbool v = value(l);
            if (v.isTrue()) return true;
            if (v.isUndef()) out.push_back(l);
        }
        if (out.empty()) {
            topConflict = true;
            return false;
        }
        if (out.size() == 1) {
            uncheckedEnqueue(out[0], nullptr);
            if (propagate() != nullptr) {
                topConflict = true;
                return false;
            }
            return true;
        }
        auto c = std::make_unique<SClause>();
        c->lits = std::move(out);
        attach(c.get());
        clauses.push_back(std::move(c));
        return true;
    }

    // ----- propagation ---------------------------------------------------
    SClause* propagate()
    {
        SClause* conflict = nullptr;
        while (qhead < trail.size()) {
            const Lit p = trail[qhead++];
            std::vector<Watcher>& ws = watches[p.code()];
            std::size_t i = 0, j = 0;
            const std::size_t n = ws.size();
            while (i < n) {
                Watcher w = ws[i++];
                if (w.clause->deleted) continue; // lazily dropped
                if (value(w.blocker).isTrue()) {
                    ws[j++] = w;
                    continue;
                }
                SClause& c = *w.clause;
                const Lit falseLit = ~p;
                if (c[0] == falseLit) std::swap(c[0], c[1]);
                assert(c[1] == falseLit);

                const Lit first = c[0];
                if (first != w.blocker && value(first).isTrue()) {
                    ws[j++] = {&c, first};
                    continue;
                }
                // Search for a replacement watch.
                bool found = false;
                for (std::size_t k = 2; k < c.size(); ++k) {
                    if (!value(c[k]).isFalse()) {
                        std::swap(c[1], c[k]);
                        watches[(~c[1]).code()].push_back({&c, first});
                        found = true;
                        break;
                    }
                }
                if (found) continue;

                // Clause is unit or conflicting.
                ws[j++] = {&c, first};
                if (value(first).isFalse()) {
                    conflict = &c;
                    qhead = trail.size();
                    while (i < n) ws[j++] = ws[i++];
                } else {
                    uncheckedEnqueue(first, &c);
                    ++stats.propagations;
                }
            }
            ws.resize(j);
        }
        return conflict;
    }

    // ----- activity management ------------------------------------------
    void varBump(Var v)
    {
        activity[v] += varInc;
        if (activity[v] > 1e100) {
            for (double& a : activity) a *= 1e-100;
            varInc *= 1e-100;
        }
        order.increased(v);
    }
    void varDecay() { varInc /= kVarDecay; }

    void claBump(SClause& c)
    {
        c.activity += claInc;
        if (c.activity > 1e20) {
            for (auto& l : learnts) l->activity *= 1e-20;
            claInc *= 1e-20;
        }
    }
    void claDecay() { claInc /= kClaDecay; }

    // ----- conflict analysis ----------------------------------------------
    void analyze(SClause* conflict, std::vector<Lit>& outLearnt, int& outBtLevel)
    {
        int pathC = 0;
        Lit p = kUndefLit;
        outLearnt.clear();
        outLearnt.push_back(kUndefLit); // slot for the asserting literal
        std::size_t index = trail.size();

        SClause* c = conflict;
        do {
            assert(c != nullptr);
            if (c->learnt) claBump(*c);
            for (std::size_t k = (p.isUndef() ? 0 : 1); k < c->size(); ++k) {
                const Lit q = (*c)[k];
                if (!seen[q.var()] && level[q.var()] > 0) {
                    varBump(q.var());
                    seen[q.var()] = 1;
                    if (level[q.var()] >= decisionLevel()) {
                        ++pathC;
                    } else {
                        outLearnt.push_back(q);
                    }
                }
            }
            // Next literal on the trail to expand.
            while (!seen[trail[index - 1].var()]) --index;
            p = trail[--index];
            c = reason[p.var()];
            seen[p.var()] = 0;
            --pathC;
        } while (pathC > 0);
        outLearnt[0] = ~p;

        // Recursive minimization: drop literals implied by the rest.
        analyzeToClear.assign(outLearnt.begin(), outLearnt.end());
        for (Lit l : outLearnt)
            if (!l.isUndef()) seen[l.var()] = 1;
        std::size_t keep = 1;
        for (std::size_t i = 1; i < outLearnt.size(); ++i) {
            if (reason[outLearnt[i].var()] == nullptr || !litRedundant(outLearnt[i])) {
                outLearnt[keep++] = outLearnt[i];
            }
        }
        outLearnt.resize(keep);
        for (Lit l : analyzeToClear) seen[l.var()] = 0;
        analyzeToClear.clear();

        // Backtrack level: second-highest level in the learnt clause.
        if (outLearnt.size() == 1) {
            outBtLevel = 0;
        } else {
            std::size_t maxI = 1;
            for (std::size_t i = 2; i < outLearnt.size(); ++i) {
                if (level[outLearnt[i].var()] > level[outLearnt[maxI].var()]) maxI = i;
            }
            std::swap(outLearnt[1], outLearnt[maxI]);
            outBtLevel = level[outLearnt[1].var()];
        }
    }

    /// Check whether @p l is implied by the remaining learnt-clause literals
    /// (standard MiniSat litRedundant, iterative).
    bool litRedundant(Lit l)
    {
        std::vector<Lit> stack{l};
        const std::size_t clearStart = analyzeToClear.size();
        while (!stack.empty()) {
            Lit q = stack.back();
            stack.pop_back();
            const SClause* c = reason[q.var()];
            assert(c != nullptr);
            for (std::size_t k = 1; k < c->size(); ++k) {
                const Lit r = (*c)[k];
                if (seen[r.var()] || level[r.var()] == 0) continue;
                if (reason[r.var()] == nullptr) {
                    // Not redundant: undo the marks added in this call.
                    for (std::size_t i = clearStart; i < analyzeToClear.size(); ++i)
                        seen[analyzeToClear[i].var()] = 0;
                    analyzeToClear.resize(clearStart);
                    return false;
                }
                seen[r.var()] = 1;
                analyzeToClear.push_back(r);
                stack.push_back(r);
            }
        }
        return true;
    }

    void cancelUntil(int lvl)
    {
        if (decisionLevel() <= lvl) return;
        for (std::size_t i = trail.size(); i > trailLim[lvl];) {
            --i;
            const Var v = trail[i].var();
            polarity[v] = value(v).isTrue();
            assigns[v] = lbool::Undef;
            reason[v] = nullptr;
            order.insert(v);
        }
        trail.resize(trailLim[lvl]);
        qhead = trail.size();
        trailLim.resize(lvl);
    }

    Lit pickBranchLit()
    {
        while (!order.empty()) {
            const Var v = order.removeMax();
            if (value(v).isUndef()) return Lit(v, !polarity[v]);
        }
        return kUndefLit;
    }

    // ----- learnt DB reduction -------------------------------------------
    void reduceDB()
    {
        std::sort(learnts.begin(), learnts.end(),
                  [](const std::unique_ptr<SClause>& a, const std::unique_ptr<SClause>& b) {
                      if ((a->size() > 2) != (b->size() > 2)) return a->size() > 2;
                      return a->activity < b->activity;
                  });
        const std::size_t half = learnts.size() / 2;
        for (std::size_t i = 0; i < half; ++i) {
            SClause* c = learnts[i].get();
            if (c->size() > 2 && !locked(c)) {
                c->deleted = true;
                ++stats.learnts_deleted;
            }
        }
        // Purge watch lists, then free the deleted clauses.
        for (auto& ws : watches) {
            std::erase_if(ws, [](const Watcher& w) { return w.clause->deleted; });
        }
        std::erase_if(learnts, [](const std::unique_ptr<SClause>& c) { return c->deleted; });
    }

    // ----- search ----------------------------------------------------------
    /// One restart-bounded CDCL search episode.
    /// Returns Sat/Unsat, or Unknown when the conflict budget is exhausted.
    SolveResult search(std::uint64_t conflictBudget, const std::vector<Lit>& assumptions,
                       const Deadline& deadline)
    {
        std::uint64_t conflictsHere = 0;
        std::vector<Lit> learntClause;
        for (;;) {
            SClause* conflict = propagate();
            if (conflict != nullptr) {
                ++stats.conflicts;
                ++conflictsHere;
                if (decisionLevel() == 0) return SolveResult::Unsat;
                int btLevel = 0;
                analyze(conflict, learntClause, btLevel);
                // Never undo assumption decisions below their level unless
                // the learnt clause demands it; cancelUntil handles both.
                cancelUntil(btLevel);
                if (learntClause.size() == 1) {
                    uncheckedEnqueue(learntClause[0], nullptr);
                } else {
                    auto c = std::make_unique<SClause>();
                    c->lits = learntClause;
                    c->learnt = true;
                    claBump(*c);
                    attach(c.get());
                    uncheckedEnqueue(learntClause[0], c.get());
                    learnts.push_back(std::move(c));
                }
                varDecay();
                claDecay();
                if ((stats.conflicts & 0xff) == 0 && deadline.expired())
                    return deadlineExceededResult(deadline);
                if (stats.conflicts >= conflictStop) return SolveResult::Unknown;
            } else {
                if (conflictsHere >= conflictBudget) {
                    cancelUntil(0);
                    return SolveResult::Unknown;
                }
                if (static_cast<double>(learnts.size()) >= maxLearnts) {
                    reduceDB();
                    maxLearnts *= 1.1;
                }
                // Assumption decisions first.
                Lit next = kUndefLit;
                while (decisionLevel() < static_cast<int>(assumptions.size())) {
                    const Lit a = assumptions[decisionLevel()];
                    if (value(a).isTrue()) {
                        trailLim.push_back(trail.size()); // dummy level
                    } else if (value(a).isFalse()) {
                        return SolveResult::Unsat; // conflicts with assumptions
                    } else {
                        next = a;
                        break;
                    }
                }
                if (next.isUndef() && decisionLevel() >= static_cast<int>(assumptions.size())) {
                    next = pickBranchLit();
                    if (next.isUndef()) return SolveResult::Sat; // all assigned
                    ++stats.decisions;
                }
                trailLim.push_back(trail.size());
                uncheckedEnqueue(next, nullptr);
            }
        }
    }

    SolveResult solve(const std::vector<Lit>& assumptions, const Deadline& deadline,
                      std::uint64_t conflictLimit)
    {
        fault::checkpoint("sat");
        if (topConflict) return SolveResult::Unsat;
        for (Lit a : assumptions) ensureVars(a.var() + 1);
        model.clear();
        maxLearnts = std::max<double>(1000.0, static_cast<double>(clauses.size()) / 3.0);
        conflictStop = conflictLimit == 0 ? UINT64_MAX : stats.conflicts + conflictLimit;

        SolveResult res = SolveResult::Unknown;
        for (std::uint64_t restart = 0; res == SolveResult::Unknown; ++restart) {
            const auto budget = static_cast<std::uint64_t>(luby(2.0, restart) * 100.0);
            res = search(budget, assumptions, deadline);
            if (res == SolveResult::Unknown && stats.conflicts >= conflictStop) break;
            if (res == SolveResult::Unknown) ++stats.restarts;
            if (deadline.expired() && res == SolveResult::Unknown) res = deadlineExceededResult(deadline);
        }
        if (res == SolveResult::Sat) {
            model.assign(assigns.begin(), assigns.end());
        }
        cancelUntil(0);
        return res;
    }

};

SatSolver::SatSolver() : impl_(std::make_unique<Impl>()) {}
SatSolver::~SatSolver() = default;

Var SatSolver::newVar() { return impl_->newVar(); }
void SatSolver::ensureVars(Var n) { impl_->ensureVars(n); }
Var SatSolver::numVars() const { return static_cast<Var>(impl_->assigns.size()); }

bool SatSolver::addClause(std::vector<Lit> lits) { return impl_->addClause(std::move(lits)); }

bool SatSolver::addCnf(const Cnf& f)
{
    ensureVars(f.numVars());
    bool ok = true;
    for (const Clause& c : f) ok = addClause(c.lits()) && ok;
    return ok;
}

SolveResult SatSolver::solve(const std::vector<Lit>& assumptions, Deadline deadline,
                             std::uint64_t conflictLimit)
{
    OBS_COUNT("sat.solves", 1);
    return impl_->solve(assumptions, deadline, conflictLimit);
}

lbool SatSolver::modelValue(Var v) const
{
    if (v >= impl_->model.size()) return lbool::Undef;
    return impl_->model[v];
}

lbool SatSolver::modelValue(Lit l) const { return modelValue(l.var()) ^ l.negative(); }

std::vector<bool> SatSolver::modelBools() const
{
    std::vector<bool> out(impl_->model.size());
    for (std::size_t i = 0; i < impl_->model.size(); ++i) out[i] = impl_->model[i].isTrue();
    return out;
}

bool SatSolver::inConflict() const { return impl_->topConflict; }

lbool SatSolver::topLevelValue(Lit l) const
{
    const Var v = l.var();
    if (v >= impl_->assigns.size()) return lbool::Undef;
    if (impl_->assigns[v].isUndef() || impl_->level[v] != 0) return lbool::Undef;
    return impl_->assigns[v] ^ l.negative();
}

const SatStats& SatSolver::stats() const { return impl_->stats; }

bool bruteForceSat(const Cnf& f)
{
    const Var n = f.numVars();
    assert(n <= 24);
    std::vector<bool> assignment(n, false);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) assignment[v] = (bits >> v) & 1u;
        if (f.evaluate(assignment)) return true;
    }
    return false;
}

} // namespace hqs
