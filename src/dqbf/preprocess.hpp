// CNF-level preprocessing for DQBF (Section III-C of the paper, "basic
// preprocessing steps ... adapted to the DQBF setting"):
//
//  * unit literal propagation (existential unit: assign; universal unit:
//    unsatisfied — Theorem 5);
//  * generalized universal reduction: a universal literal u leaves a clause
//    when no existential literal of the clause depends on u [13];
//  * equivalent-variable substitution from binary-clause SCCs, with the
//    DQBF-specific side conditions (existential≙existential merges take the
//    dependency-set intersection; existential≙universal needs the universal
//    in the dependency set; universal≙universal is unsatisfiable);
//  * Tseitin gate detection for AND/OR/XOR gates with arbitrarily negated
//    inputs: defining clauses are removed from the CNF and returned as a
//    gate list to be composed into the AIG.
//
// The first three run in alternation until the CNF stops changing; gate
// detection runs once at the end.
//
// The output is deterministic: clause order, gates, prefix, statistics and
// Skolem records depend only on the input formula and the options, never
// on hash-table iteration order (equivalence classes are merged in Tarjan
// component order, gate clauses are looked up by lowest index).
// When preprocessing decides UNSAT the formula is left unspecified.
#pragma once

#include <vector>

#include "src/base/result.hpp"
#include "src/dqbf/dqbf_formula.hpp"

namespace hqs {

struct PreprocessOptions {
    bool unitPropagation = true;
    bool universalReduction = true;
    bool equivalences = true;
    bool gateDetection = true;
    /// Clause subsumption and self-subsuming resolution (strengthening).
    /// Both are matrix-level equivalences, hence DQBF-sound.  The paper
    /// names "more sophisticated preprocessing techniques" as future work;
    /// these are the standard first additions.
    bool subsumption = true;
    /// Safety bound on alternation rounds.
    int maxRounds = 50;
};

enum class GateKind { Or, Xor };

/// A detected gate definition: `target == OR(inputs)` or
/// `target == inputs[0] XOR inputs[1]`, where target is a literal over the
/// (existential) gate-output variable.  The defining clauses have been
/// removed from the matrix; the matrix conjoined with all definitions is
/// equivalent to the original matrix.
struct GateDef {
    Lit target;
    GateKind kind;
    std::vector<Lit> inputs;
};

struct PreprocessStats {
    std::size_t unitsPropagated = 0;
    std::size_t universalLiteralsReduced = 0;
    std::size_t equivalencesSubstituted = 0;
    std::size_t gatesDetected = 0;
    std::size_t clausesSubsumed = 0;
    std::size_t literalsStrengthened = 0;
    int rounds = 0;
};

struct PreprocessResult {
    /// Sat/Unsat when preprocessing alone decides the formula, else Unknown.
    SolveResult decided = SolveResult::Unknown;
    std::vector<GateDef> gates;
    PreprocessStats stats;
};

class SkolemRecorder;

/// Preprocess @p f in place.  On return (when not decided) the DQBF
/// `prefix(f) : matrix(f) AND gate definitions` is equivalent to the input;
/// gate-output variables remain existential in the prefix and are expected
/// to be composed away when the matrix AIG is built.
/// When @p recorder is non-null, every step that fixes or aliases an
/// existential variable is logged for Skolem reconstruction.
PreprocessResult preprocess(DqbfFormula& f, const PreprocessOptions& opts = {},
                            SkolemRecorder* recorder = nullptr);

} // namespace hqs
