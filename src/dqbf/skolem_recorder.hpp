// Skolem reconstruction from the HQS elimination trace.
//
// The paper lists the computation of Skolem functions as future work; the
// technique (realized for HQS in follow-up work by Wimmer et al.) is to log
// every prefix-changing step during solving and replay the log BACKWARDS,
// building one AIG function per existential variable:
//
//   * Constant      — unit/pure/unsupported existential y fixed to a value:
//                     s_y = c.
//   * AliasLit      — preprocessing equivalence y == r (literal):
//                     s_y = +-s_r (or +-x for a universal r).
//   * AliasGate     — Tseitin gate output y == gate(inputs):
//                     s_y = gate(inputs with Skolems substituted).
//   * Exists        — Theorem-2/QBF elimination of y from matrix phi:
//                     s_y = phi[1/y] with every later-eliminated existential
//                     replaced by its (already reconstructed) Skolem.  Sound
//                     because Theorem 2 only fires when y depends on all
//                     current universals.
//   * UniversalSplit— Theorem-1 elimination of x copying y -> y':
//                     s_y := ITE(x, s_{y'}, s_y).
//
// Records that reference matrix cofactors hold AigEdges into the solver's
// manager; the recorder therefore exposes its edges as extra GC roots.
#pragma once

#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/aig/aig.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/preprocess.hpp"

namespace hqs {

class SkolemRecorder {
public:
    struct Constant {
        Var var;
        bool value;
    };
    struct AliasLit {
        Var var;
        Lit rep; ///< var == rep (rep over an existential or universal)
    };
    struct AliasGate {
        GateDef def; ///< def.target's variable is the defined output
    };
    struct Exists {
        Var var;
        AigEdge cofactor1; ///< matrix[1/var] at elimination time
    };
    struct UniversalSplit {
        Var universal;
        std::vector<std::pair<Var, Var>> copies; ///< (kept y, fresh y')
    };
    using Record = std::variant<Constant, AliasLit, AliasGate, Exists, UniversalSplit>;

    void record(Record r) { records_.push_back(std::move(r)); }

    /// Edges held by Exists records — must stay valid across garbage
    /// collection of the owning manager.  (Header-only so that the QBF
    /// backend can log without linking against the DQBF library.)
    void appendGcRoots(std::vector<AigEdge*>& roots)
    {
        for (Record& r : records_) {
            if (auto* ex = std::get_if<Exists>(&r)) roots.push_back(&ex->cofactor1);
        }
    }

    const std::vector<Record>& records() const { return records_; }

private:
    std::vector<Record> records_;
};

/// A Skolem certificate with functions kept as AIG cones: the one form
/// every certifying engine hands to cert::extractCertificate, which turns
/// it into the artifact cert::checkCertificate judges.
struct AigSkolemCertificate {
    std::shared_ptr<Aig> aig;
    std::unordered_map<Var, AigEdge> functions; ///< existential -> function

    /// y's function as an explicit truth table over @p deps: entry idx is
    /// the value where deps[i] = bit i of idx (precondition: |deps| <= 20).
    std::vector<bool> toTable(Var y, const std::vector<Var>& deps) const;
};

/// Replay @p recorder backwards inside @p aig, producing a function for
/// every existential of @p original.  @p aig must be the manager the
/// records were created in (shared with the certificate for lifetime).
AigSkolemCertificate reconstructSkolem(const DqbfFormula& original,
                                       std::shared_ptr<Aig> aig,
                                       const SkolemRecorder& recorder);

} // namespace hqs
