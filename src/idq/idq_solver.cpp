#include "src/idq/idq_solver.hpp"

#include <map>
#include <unordered_map>

#include "src/aig/aig.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {
namespace {

using Assignment = std::vector<bool>; // indexed by universal position

} // namespace

SolveResult IdqSolver::solve(const DqbfFormula& f)
{
    stats_ = IdqStats{};
    skolem_.reset();
    const std::vector<Var>& universals = f.universals();
    const std::size_t n = universals.size();
    std::unordered_map<Var, std::size_t> universalPos;
    for (std::size_t i = 0; i < n; ++i) universalPos.emplace(universals[i], i);

    if (f.matrix().hasEmptyClause()) return SolveResult::Unsat;

    auto depsOf = [&](Var v) -> const std::vector<Var>& {
        static const std::vector<Var> kEmpty;
        return f.isExistential(v) ? f.dependencies(v) : kEmpty;
    };

    // Ground instance (grows monotonically).
    SatSolver ground;
    std::map<std::pair<Var, Assignment>, Var> copyVar; // (y, tau) -> SAT var
    auto copyOf = [&](Var y, Assignment tau) {
        auto [it, inserted] = copyVar.try_emplace({y, std::move(tau)}, 0);
        if (inserted) {
            it->second = ground.newVar();
            ++stats_.existentialCopies;
        }
        return it->second;
    };

    auto restriction = [&](const Assignment& sigma, const std::vector<Var>& deps) {
        Assignment tau(deps.size());
        for (std::size_t i = 0; i < deps.size(); ++i) tau[i] = sigma[universalPos.at(deps[i])];
        return tau;
    };

    /// Instantiate every matrix clause under sigma into the ground solver.
    /// Returns false if the ground instance became trivially UNSAT.
    auto instantiate = [&](const Assignment& sigma) {
        ++stats_.instantiations;
        bool ok = true;
        for (const Clause& c : f.matrix()) {
            std::vector<Lit> inst;
            bool satisfied = false;
            for (Lit l : c) {
                auto pos = universalPos.find(l.var());
                if (pos != universalPos.end()) {
                    if (sigma[pos->second] != l.negative()) {
                        satisfied = true;
                        break;
                    }
                    continue;
                }
                inst.push_back(Lit(copyOf(l.var(), restriction(sigma, depsOf(l.var()))),
                                   l.negative()));
            }
            if (!satisfied) {
                ++stats_.groundClauses;
                ok = ground.addClause(std::move(inst)) && ok;
            }
        }
        return ok;
    };

    // Matrix as an AIG over universal + existential variables, used by the
    // counterexample search.
    const auto manager = std::make_shared<Aig>();
    Aig& aig = *manager;
    AigEdge matrixAig = buildFromCnf(aig, f.matrix());

    /// On Sat: keep the candidate functions the check just validated.
    auto keepCertificate = [&](const Substitution& skolemOf) {
        AigSkolemCertificate cert{manager, {}};
        for (Var y : f.existentials()) cert.functions.emplace(y, skolemOf.image(y));
        skolem_ = std::move(cert);
    };

    std::map<Assignment, bool> seen; // the set A
    for (;;) {
        ++stats_.iterations;
        if (opts_.deadline.expired()) return deadlineExceededResult(opts_.deadline);
        if (opts_.groundClauseLimit != 0 && stats_.groundClauses > opts_.groundClauseLimit) {
            return SolveResult::Memout;
        }

        const SolveResult groundRes = ground.solve({}, opts_.deadline);
        if (groundRes == SolveResult::Timeout || groundRes == SolveResult::Memout) return groundRes;
        if (groundRes == SolveResult::Unsat) return SolveResult::Unsat;

        // Candidate Skolem table from the ground model; unseen entries
        // default to false.  Build val_y(sigma) = OR over true table rows of
        // "sigma|D_y == tau".
        Substitution& skolemOf = aig.scratchSubstitution();
        for (Var y : f.existentials()) skolemOf.set(y, aig.constFalse());
        for (Var v = 0; v < f.matrix().numVars(); ++v) {
            if (f.kindOf(v) == DqbfVarKind::Unquantified) {
                skolemOf.set(v, aig.constFalse());
            }
        }
        for (const auto& [key, satVar] : copyVar) {
            if (!ground.modelValue(satVar).isTrue()) continue;
            const auto& [y, tau] = key;
            const auto& deps = depsOf(y);
            AigEdge match = aig.constTrue();
            for (std::size_t i = 0; i < deps.size(); ++i) {
                match = aig.mkAnd(match, aig.variable(deps[i]) ^ !tau[i]);
            }
            skolemOf.set(y, aig.mkOr(skolemOf.image(y), match));
        }

        // Counterexample search: a universal assignment falsifying the
        // matrix under the candidate table.
        const AigEdge instantiated = aig.substitute(matrixAig, skolemOf);
        const AigEdge cexCondition = ~instantiated;
        if (aig.isConstant(cexCondition) && !aig.constantValue(cexCondition)) {
            keepCertificate(skolemOf); // matrix is a tautology under the table
            return SolveResult::Sat;
        }

        SatSolver cexSat;
        AigCnfBridge bridge(aig, cexSat);
        const Lit cexLit = bridge.litFor(cexCondition);
        const SolveResult cexRes = cexSat.solve({cexLit}, opts_.deadline);
        if (cexRes == SolveResult::Timeout || cexRes == SolveResult::Memout) return cexRes;
        if (cexRes == SolveResult::Unsat) {
            keepCertificate(skolemOf);
            return SolveResult::Sat;
        }

        Assignment sigma(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            if (aig.hasVariable(universals[i])) {
                sigma[i] = cexSat.modelValue(bridge.satVarForInput(universals[i])).isTrue();
            }
        }
        if (seen.contains(sigma)) {
            // Cannot happen for a genuine counterexample; fail safe.
            return SolveResult::Unknown;
        }
        seen.emplace(sigma, true);
        if (!instantiate(sigma)) return SolveResult::Unsat;

        // The per-iteration Skolem expressions are garbage now.
        if (aig.numNodes() > 4 * aig.coneSize(matrixAig) + 50000) {
            aig.garbageCollect({&matrixAig});
        }
    }
}

} // namespace hqs
