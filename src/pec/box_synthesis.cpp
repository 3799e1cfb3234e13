#include "src/pec/box_synthesis.hpp"

#include "src/dqbf/hqs_solver.hpp"

namespace hqs {

Circuit::BoxFunction SynthesizedBoxes::asBoxFunction() const
{
    return [tables = tables](Circuit::BoxId box, std::size_t outIdx,
                             const std::vector<bool>& ins) {
        std::size_t idx = 0;
        for (std::size_t i = 0; i < ins.size(); ++i) {
            if (ins[i]) idx |= 1ull << i;
        }
        return tables[box][outIdx][idx];
    };
}

SynthesizedBoxes boxesFromSkolem(const PecEncoding& enc, const AigSkolemCertificate& cert)
{
    SynthesizedBoxes out;
    out.tables.resize(enc.boxOutputVars.size());
    for (std::size_t b = 0; b < enc.boxOutputVars.size(); ++b) {
        for (Var y : enc.boxOutputVars[b]) {
            out.tables[b].push_back(cert.toTable(y, enc.boxInputCopies[b]));
        }
    }
    return out;
}

std::optional<SynthesizedBoxes> synthesizeBoxes(const PecInstance& inst, Deadline deadline)
{
    const PecEncoding enc = encodePec(inst);
    HqsOptions opts;
    opts.computeSkolem = true;
    opts.deadline = deadline;
    HqsSolver solver(opts);
    DqbfFormula formula = enc.formula;
    if (solver.solve(std::move(formula)) != SolveResult::Sat) return std::nullopt;
    return boxesFromSkolem(enc, *solver.skolemCertificate());
}

bool boxesRealizeSpec(const PecInstance& inst, const SynthesizedBoxes& boxes)
{
    const std::size_t n = inst.spec.inputs().size();
    const Circuit::BoxFunction boxFn = boxes.asBoxFunction();
    std::vector<bool> ins(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (std::size_t i = 0; i < n; ++i) ins[i] = (bits >> i) & 1u;
        if (inst.impl.evaluateOutputs(ins, boxFn) != inst.spec.evaluateOutputs(ins)) {
            return false;
        }
    }
    return true;
}

} // namespace hqs
