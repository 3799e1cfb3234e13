#include "src/qbf/qbf_prefix.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

namespace hqs {

void QbfPrefix::addBlock(QuantKind kind, std::vector<Var> vars)
{
    if (vars.empty()) return;
    if (blocks_.empty() || blocks_.back().kind != kind) blocks_.push_back(QbfBlock{kind, {}});
    const auto pos = static_cast<std::uint32_t>(blocks_.size());
    for (Var v : vars) {
        if (v >= blockOf_.size()) blockOf_.resize(std::size_t{v} + 1, 0);
        if (blockOf_[v] == 0) blockOf_[v] = pos;
        else repeats_ = true;
    }
    auto& dst = blocks_.back().vars;
    dst.insert(dst.end(), vars.begin(), vars.end());
}

std::size_t QbfPrefix::numVars() const
{
    return std::accumulate(blocks_.begin(), blocks_.end(), std::size_t{0},
                           [](std::size_t acc, const QbfBlock& b) { return acc + b.vars.size(); });
}

bool QbfPrefix::contains(Var v) const { return v < blockOf_.size() && blockOf_[v] != 0; }

QuantKind QbfPrefix::kindOf(Var v) const
{
    // Exists is unreachable under the precondition.
    return contains(v) ? blocks_[blockOf_[v] - 1].kind : QuantKind::Exists;
}

void QbfPrefix::removeVar(Var v)
{
    if (!contains(v)) return;
    const std::size_t i = blockOf_[v] - 1;
    blockOf_[v] = 0;
    auto& vars = blocks_[i].vars;
    vars.erase(std::find(vars.begin(), vars.end(), v));
    if (vars.empty()) {
        blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
        // Merge now-adjacent blocks of the same kind.
        if (i > 0 && i < blocks_.size() && blocks_[i - 1].kind == blocks_[i].kind) {
            auto& dst = blocks_[i - 1].vars;
            dst.insert(dst.end(), blocks_[i].vars.begin(), blocks_[i].vars.end());
            blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        reindex();
    } else if (repeats_) {
        reindex();
    }
}

void QbfPrefix::reindex()
{
    std::fill(blockOf_.begin(), blockOf_.end(), 0);
    for (std::size_t j = 0; j < blocks_.size(); ++j) {
        for (Var v : blocks_[j].vars) {
            if (blockOf_[v] == 0) blockOf_[v] = static_cast<std::uint32_t>(j + 1);
        }
    }
}

QbfProblem qbfFromParsed(const ParsedQdimacs& parsed)
{
    if (!parsed.henkin.empty()) {
        throw ParseError("input contains Henkin dependency lines: it is a DQBF, not a QBF");
    }
    QbfProblem out;
    out.matrix = parsed.matrix;

    std::vector<bool> quantified(parsed.matrix.numVars(), false);
    for (const PrefixBlockSpec& b : parsed.blocks) {
        for (Var v : b.vars) {
            if (v < quantified.size()) quantified[v] = true;
        }
    }
    // Free variables are outermost existentials (QDIMACS convention).
    std::vector<Var> free;
    for (Var v = 0; v < parsed.matrix.numVars(); ++v) {
        if (!quantified[v]) free.push_back(v);
    }
    out.prefix.addBlock(QuantKind::Exists, std::move(free));
    for (const PrefixBlockSpec& b : parsed.blocks) out.prefix.addBlock(b.kind, b.vars);
    return out;
}

std::ostream& operator<<(std::ostream& os, const QbfPrefix& p)
{
    for (const QbfBlock& b : p.blocks()) {
        os << (b.kind == QuantKind::Forall ? "forall" : "exists");
        for (Var v : b.vars) os << " v" << v;
        os << ". ";
    }
    return os;
}

} // namespace hqs
