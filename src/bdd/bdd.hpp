// Reduced ordered binary decision diagrams (ROBDDs) [23].
//
// The paper motivates AIGs over BDDs: AIGs are non-canonical and can be
// exponentially more compact, while BDDs pay for canonicity.  This package
// provides the counterpart data structure so the claim can be measured: the
// BDD-based QBF elimination backend (bdd_qbf_solver.hpp) is the ablation
// partner of the AIG-based one, and bench_ablation reports the node-count
// and runtime differences.
//
// Implementation: classic unique-table ROBDD with a fixed variable order
// (the Var id order), ITE-based apply with a computed table, cofactor,
// single-variable and set quantification.  Nodes are never freed; a manager
// is intended to live for one problem.  Both tables are flat arrays, so a
// manager of a million nodes is torn down in a few frees:
//
//   * the unique table is a power-of-two open-addressing table of node
//     indices (linear probing, load <= 1/2), like Aig's strash;
//   * the computed table is direct-mapped as in CUDD: one (f, g, h, result)
//     entry per slot, a colliding store overwrites, and it grows with the
//     node pool up to kMaxCacheSlots.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "src/base/literal.hpp"
#include "src/base/timer.hpp"
#include "src/cnf/cnf.hpp"

namespace hqs {

/// Thrown by Bdd operations when the manager's resource limits are hit
/// (node budget or deadline).  Callers translate this into Memout/Timeout.
class BddLimitExceeded : public std::exception {
public:
    explicit BddLimitExceeded(bool byNodes) : byNodes_(byNodes) {}
    bool byNodeLimit() const { return byNodes_; }
    const char* what() const noexcept override
    {
        return byNodes_ ? "BDD node limit exceeded" : "BDD deadline exceeded";
    }

private:
    bool byNodes_;
};

/// A BDD function handle (index into the manager's node pool).
class BddRef {
public:
    constexpr BddRef() : index_(kInvalid) {}
    explicit constexpr BddRef(std::uint32_t index) : index_(index) {}

    constexpr std::uint32_t index() const { return index_; }
    constexpr bool isValid() const { return index_ != kInvalid; }
    constexpr bool operator==(const BddRef&) const = default;

private:
    static constexpr std::uint32_t kInvalid = static_cast<std::uint32_t>(-1);
    std::uint32_t index_;
};

class Bdd {
public:
    Bdd();

    /// Install resource limits: operations throw BddLimitExceeded once the
    /// node pool exceeds @p nodeLimit (0 = unlimited) or @p deadline
    /// expires (checked periodically inside mkIte).
    void setResourceLimits(std::size_t nodeLimit, Deadline deadline)
    {
        nodeLimit_ = nodeLimit;
        deadline_ = deadline;
    }

    BddRef constFalse() const { return BddRef(0); }
    BddRef constTrue() const { return BddRef(1); }
    bool isConstant(BddRef f) const { return f.index() <= 1; }
    bool constantValue(BddRef f) const { return f.index() == 1; }

    /// The function "variable v" (variable order = Var order).
    BddRef variable(Var v);

    BddRef mkNot(BddRef f) { return mkIte(f, constFalse(), constTrue()); }
    BddRef mkAnd(BddRef f, BddRef g) { return mkIte(f, g, constFalse()); }
    BddRef mkOr(BddRef f, BddRef g) { return mkIte(f, constTrue(), g); }
    BddRef mkXor(BddRef f, BddRef g) { return mkIte(f, mkNot(g), g); }
    BddRef mkEquiv(BddRef f, BddRef g) { return mkNot(mkXor(f, g)); }
    BddRef mkImplies(BddRef f, BddRef g) { return mkOr(mkNot(f), g); }
    BddRef mkIte(BddRef f, BddRef g, BddRef h);

    /// Shannon cofactor f|v=value.
    BddRef cofactor(BddRef f, Var v, bool value);
    /// exists v. f  and  forall v. f.
    BddRef existsVar(BddRef f, Var v);
    BddRef forallVar(BddRef f, Var v);

    /// Build the BDD of a CNF (conjunction of clause disjunctions).
    BddRef fromCnf(const Cnf& cnf);

    /// Evaluate under an assignment indexed by Var (missing = false).
    bool evaluate(BddRef f, const std::vector<bool>& assignment) const;

    /// Structural variable support (sorted).
    std::vector<Var> support(BddRef f) const;

    /// Number of internal nodes in the cone of @p f (canonical size).
    std::size_t coneSize(BddRef f) const;
    /// Total allocated nodes (monotone; nodes are not freed).
    std::size_t numNodes() const { return nodes_.size(); }

    /// Number of satisfying assignments over the given variable count.
    double satCount(BddRef f, unsigned numVars) const;

private:
    struct Node {
        Var var;      ///< decision variable (kNoVar for terminals)
        BddRef low;   ///< cofactor var=0
        BddRef high;  ///< cofactor var=1
    };

    /// One computed-table slot; f == kEmpty marks an unused slot.
    struct CacheEntry {
        std::uint32_t f, g, h, result;
    };
    static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
    static constexpr std::size_t kMinCacheSlots = std::size_t{1} << 12;
    static constexpr std::size_t kMaxCacheSlots = std::size_t{1} << 20;

    BddRef mkNode(Var v, BddRef low, BddRef high);
    Var topVar(BddRef f, BddRef g, BddRef h) const;

    const Node& node(BddRef f) const { return nodes_[f.index()]; }

    void checkLimits();
    void growUnique();
    void growCache();

    std::vector<Node> nodes_;
    /// Open addressing over node indices; 0 (the false terminal, never
    /// stored) marks an empty slot.
    std::vector<std::uint32_t> unique_;
    std::vector<CacheEntry> cache_;
    std::size_t nodeLimit_ = 0;
    Deadline deadline_;
    std::uint32_t limitCheckCounter_ = 0;
};

} // namespace hqs
