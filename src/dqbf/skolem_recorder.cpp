#include "src/dqbf/skolem_recorder.hpp"

#include <algorithm>
#include <cassert>

namespace hqs {

std::vector<bool> AigSkolemCertificate::toTable(Var y, const std::vector<Var>& deps) const
{
    assert(deps.size() <= 20);
    std::vector<bool> table(1ull << deps.size(), false);
    const AigEdge f = functions.at(y);
    std::vector<bool> assignment(
        deps.empty() ? 0 : *std::max_element(deps.begin(), deps.end()) + 1, false);
    for (std::size_t idx = 0; idx < table.size(); ++idx) {
        for (std::size_t i = 0; i < deps.size(); ++i) assignment[deps[i]] = (idx >> i) & 1u;
        table[idx] = aig->evaluate(f, assignment);
    }
    return table;
}

AigSkolemCertificate reconstructSkolem(const DqbfFormula& original, std::shared_ptr<Aig> aig,
                                       const SkolemRecorder& recorder)
{
    AigSkolemCertificate cert;
    cert.aig = std::move(aig);
    Aig& mgr = *cert.aig;
    auto& skolem = cert.functions;

    auto lookup = [&](Var v) -> AigEdge {
        auto it = skolem.find(v);
        // A variable without a record was never constrained; constant false
        // is as good as any function.
        return it != skolem.end() ? it->second : mgr.constFalse();
    };

    const auto& records = recorder.records();
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        std::visit(
            [&](const auto& r) {
                using T = std::decay_t<decltype(r)>;
                if constexpr (std::is_same_v<T, SkolemRecorder::Constant>) {
                    skolem[r.var] = r.value ? mgr.constTrue() : mgr.constFalse();
                } else if constexpr (std::is_same_v<T, SkolemRecorder::AliasLit>) {
                    const Var rep = r.rep.var();
                    const AigEdge base =
                        original.isUniversal(rep) ? mgr.variable(rep) : lookup(rep);
                    skolem[r.var] = base ^ r.rep.negative();
                } else if constexpr (std::is_same_v<T, SkolemRecorder::AliasGate>) {
                    AigEdge def;
                    auto inputEdge = [&](Lit in) {
                        const AigEdge base = original.isUniversal(in.var())
                                                 ? mgr.variable(in.var())
                                                 : lookup(in.var());
                        return base ^ in.negative();
                    };
                    if (r.def.kind == GateKind::Or) {
                        def = mgr.constFalse();
                        for (Lit in : r.def.inputs) def = mgr.mkOr(def, inputEdge(in));
                    } else {
                        def = mgr.mkXor(inputEdge(r.def.inputs[0]), inputEdge(r.def.inputs[1]));
                    }
                    skolem[r.def.target.var()] = def ^ r.def.target.negative();
                } else if constexpr (std::is_same_v<T, SkolemRecorder::Exists>) {
                    // Replace every existential in the stored cofactor by
                    // its (later-eliminated, hence already known) Skolem.
                    Substitution& subst = mgr.scratchSubstitution();
                    for (Var v : mgr.support(r.cofactor1)) {
                        if (!original.isUniversal(v)) subst.set(v, lookup(v));
                    }
                    skolem[r.var] = mgr.substitute(r.cofactor1, subst);
                } else if constexpr (std::is_same_v<T, SkolemRecorder::UniversalSplit>) {
                    const AigEdge x = mgr.variable(r.universal);
                    for (const auto& [kept, copy] : r.copies) {
                        skolem[kept] = mgr.mkIte(x, lookup(copy), lookup(kept));
                        skolem.erase(copy);
                    }
                }
            },
            *it);
    }

    // Guarantee coverage of every original existential.
    for (Var y : original.existentials()) {
        if (!skolem.contains(y)) skolem.emplace(y, mgr.constFalse());
    }
    return cert;
}

} // namespace hqs
