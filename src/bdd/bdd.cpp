#include "src/bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hqs {
namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
    h ^= b + 0x7f4a7c15u + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= c + 0x94d049bbu + (h << 6) + (h >> 2);
    h *= 0x94d049bb133111ebull;
    return h ^ (h >> 32); // the tables index by the low bits
}

} // namespace

Bdd::Bdd()
    : unique_(std::size_t{1} << 10, 0u), cache_(kMinCacheSlots, CacheEntry{kEmpty, 0, 0, 0})
{
    nodes_.push_back(Node{kNoVar, BddRef(), BddRef()}); // 0: false
    nodes_.push_back(Node{kNoVar, BddRef(), BddRef()}); // 1: true
}

BddRef Bdd::mkNode(Var v, BddRef low, BddRef high)
{
    if (low == high) return low;
    const std::size_t mask = unique_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(mix(v, low.index(), high.index())) & mask;
    while (const std::uint32_t idx = unique_[slot]) {
        const Node& n = nodes_[idx];
        if (n.var == v && n.low == low && n.high == high) return BddRef(idx);
        slot = (slot + 1) & mask;
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{v, low, high});
    unique_[slot] = idx;
    // Internal nodes = nodes_.size() - 2; keep the load at or below 1/2.
    if ((nodes_.size() - 2) * 2 > unique_.size()) growUnique();
    if (nodes_.size() > cache_.size() && cache_.size() < kMaxCacheSlots) growCache();
    return BddRef(idx);
}

void Bdd::growUnique()
{
    unique_.assign(unique_.size() * 2, 0u);
    const std::size_t mask = unique_.size() - 1;
    for (std::uint32_t idx = 2; idx < nodes_.size(); ++idx) {
        const Node& n = nodes_[idx];
        std::size_t slot =
            static_cast<std::size_t>(mix(n.var, n.low.index(), n.high.index())) & mask;
        while (unique_[slot] != 0) slot = (slot + 1) & mask;
        unique_[slot] = idx;
    }
}

void Bdd::growCache()
{
    std::vector<CacheEntry> old(cache_.size() * 2, CacheEntry{kEmpty, 0, 0, 0});
    old.swap(cache_);
    const std::size_t mask = cache_.size() - 1;
    for (const CacheEntry& e : old) {
        if (e.f != kEmpty) cache_[static_cast<std::size_t>(mix(e.f, e.g, e.h)) & mask] = e;
    }
}

BddRef Bdd::variable(Var v)
{
    return mkNode(v, constFalse(), constTrue());
}

Var Bdd::topVar(BddRef f, BddRef g, BddRef h) const
{
    Var top = kNoVar;
    for (BddRef r : {f, g, h}) {
        if (isConstant(r)) continue;
        const Var v = node(r).var;
        if (top == kNoVar || v < top) top = v;
    }
    return top;
}

void Bdd::checkLimits()
{
    if ((++limitCheckCounter_ & 0x3ff) != 0) return;
    if (nodeLimit_ != 0 && nodes_.size() > nodeLimit_) throw BddLimitExceeded(true);
    if (deadline_.expired()) throw BddLimitExceeded(false);
}

BddRef Bdd::mkIte(BddRef f, BddRef g, BddRef h)
{
    checkLimits();
    // Terminal cases.
    if (f == constTrue()) return g;
    if (f == constFalse()) return h;
    if (g == h) return g;
    if (g == constTrue() && h == constFalse()) return f;

    const std::size_t slot =
        static_cast<std::size_t>(mix(f.index(), g.index(), h.index())) & (cache_.size() - 1);
    if (const CacheEntry& hit = cache_[slot];
        hit.f == f.index() && hit.g == g.index() && hit.h == h.index()) {
        return BddRef(hit.result);
    }

    const Var v = topVar(f, g, h);
    auto branch = [&](BddRef r, bool value) {
        if (isConstant(r) || node(r).var != v) return r;
        return value ? node(r).high : node(r).low;
    };
    const BddRef low = mkIte(branch(f, false), branch(g, false), branch(h, false));
    const BddRef high = mkIte(branch(f, true), branch(g, true), branch(h, true));
    const BddRef result = mkNode(v, low, high);
    // The recursion may have grown the cache: index it afresh.
    cache_[static_cast<std::size_t>(mix(f.index(), g.index(), h.index())) &
           (cache_.size() - 1)] = {f.index(), g.index(), h.index(), result.index()};
    return result;
}

BddRef Bdd::cofactor(BddRef f, Var v, bool value)
{
    // Per-call memo over node indices: the cone is a DAG.
    std::unordered_map<std::uint32_t, BddRef> memo;
    auto rec = [&](auto&& self, BddRef g) -> BddRef {
        if (isConstant(g)) return g;
        const Node n = node(g); // copy: nodes_ may grow below
        if (n.var > v) return g; // v is above this node: g does not mention it
        if (n.var == v) return value ? n.high : n.low;
        auto hit = memo.find(g.index());
        if (hit != memo.end()) return hit->second;
        const BddRef low = self(self, n.low);
        const BddRef high = self(self, n.high);
        const BddRef result = mkNode(n.var, low, high);
        memo.emplace(g.index(), result);
        return result;
    };
    return rec(rec, f);
}

BddRef Bdd::existsVar(BddRef f, Var v)
{
    return mkOr(cofactor(f, v, false), cofactor(f, v, true));
}

BddRef Bdd::forallVar(BddRef f, Var v)
{
    return mkAnd(cofactor(f, v, false), cofactor(f, v, true));
}

BddRef Bdd::fromCnf(const Cnf& cnf)
{
    BddRef acc = constTrue();
    for (const Clause& c : cnf) {
        BddRef clause = constFalse();
        // Build the disjunction from the highest variable down so each mkOr
        // touches a small top region.
        std::vector<Lit> lits = c.lits();
        std::sort(lits.begin(), lits.end(),
                  [](Lit a, Lit b) { return a.var() > b.var(); });
        for (Lit l : lits) {
            const BddRef v = variable(l.var());
            clause = mkOr(clause, l.negative() ? mkNot(v) : v);
        }
        acc = mkAnd(acc, clause);
        if (acc == constFalse()) break;
    }
    return acc;
}

bool Bdd::evaluate(BddRef f, const std::vector<bool>& assignment) const
{
    while (!isConstant(f)) {
        const Node& n = node(f);
        const bool v = n.var < assignment.size() && assignment[n.var];
        f = v ? n.high : n.low;
    }
    return constantValue(f);
}

std::vector<Var> Bdd::support(BddRef f) const
{
    std::vector<Var> out;
    std::vector<std::uint32_t> stack{f.index()};
    std::unordered_map<std::uint32_t, bool> seen;
    while (!stack.empty()) {
        const std::uint32_t idx = stack.back();
        stack.pop_back();
        if (idx <= 1 || seen[idx]) continue;
        seen[idx] = true;
        out.push_back(nodes_[idx].var);
        stack.push_back(nodes_[idx].low.index());
        stack.push_back(nodes_[idx].high.index());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::size_t Bdd::coneSize(BddRef f) const
{
    std::size_t count = 0;
    std::vector<std::uint32_t> stack{f.index()};
    std::unordered_map<std::uint32_t, bool> seen;
    while (!stack.empty()) {
        const std::uint32_t idx = stack.back();
        stack.pop_back();
        if (idx <= 1 || seen[idx]) continue;
        seen[idx] = true;
        ++count;
        stack.push_back(nodes_[idx].low.index());
        stack.push_back(nodes_[idx].high.index());
    }
    return count;
}

double Bdd::satCount(BddRef f, unsigned numVars) const
{
    // Fraction of satisfying minterms, then scale by 2^numVars.
    std::unordered_map<std::uint32_t, double> memo;
    std::vector<std::uint32_t> stack{f.index()};
    memo[0] = 0.0;
    memo[1] = 1.0;
    while (!stack.empty()) {
        const std::uint32_t idx = stack.back();
        if (memo.contains(idx)) {
            stack.pop_back();
            continue;
        }
        const Node& n = nodes_[idx];
        const auto lo = n.low.index();
        const auto hi = n.high.index();
        if (!memo.contains(lo)) {
            stack.push_back(lo);
            continue;
        }
        if (!memo.contains(hi)) {
            stack.push_back(hi);
            continue;
        }
        memo[idx] = 0.5 * (memo[lo] + memo[hi]);
        stack.pop_back();
    }
    double scale = 1.0;
    for (unsigned i = 0; i < numVars; ++i) scale *= 2.0;
    return memo[f.index()] * scale;
}

} // namespace hqs
