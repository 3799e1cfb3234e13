#include "inputs.hpp"

#include <algorithm>
#include <cstdlib>

#include "bench.hpp"
#include "src/base/rng.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/pec/pec_encoder.hpp"

namespace perfbench {

using hqs::Family;

std::string PecSpec::name() const
{
    return hqs::toString(family) + "_w" + std::to_string(width) +
           (realizable ? "_sat" : "_unsat");
}

namespace {

void addWidths(std::vector<PecSpec>& out, Family f, unsigned lo, unsigned hi)
{
    for (unsigned w = lo; w <= hi; ++w) {
        out.push_back({f, w, false});
        out.push_back({f, w, true});
    }
}

} // namespace

std::vector<PecSpec> sweepSpecs()
{
    // Widths 3..10 of every family, minus the variants that take longer than
    // ~0.6 s (z4 w6/w7 sat, z4 w8+, c432 w6+), padded with the cheap
    // bitcell/pec_xor widths 11..12 so p90 has ten instances beyond it.
    std::vector<PecSpec> out;
    for (Family f : {Family::Adder, Family::Bitcell, Family::Lookahead, Family::PecXor,
                     Family::Comp})
        addWidths(out, f, 3, 10);
    addWidths(out, Family::Z4, 3, 5);
    out.push_back({Family::Z4, 6, false});
    out.push_back({Family::Z4, 7, false});
    addWidths(out, Family::C432, 3, 5);
    addWidths(out, Family::Bitcell, 11, 12);
    addWidths(out, Family::PecXor, 11, 12);
    return out;
}

std::string encodePecText(const PecSpec& spec)
{
    const hqs::PecInstance inst = hqs::makeInstance(spec.family, spec.width, spec.realizable);
    return hqs::toDqdimacsString(hqs::encodePec(inst).formula.toParsed());
}

std::string renumberedText(const std::string& text, std::uint64_t seed)
{
    const hqs::ParsedQdimacs in = hqs::parseDqdimacsString(text);
    hqs::Var n = in.matrix.numVars();
    for (const auto& b : in.blocks)
        for (hqs::Var v : b.vars) n = std::max(n, v + 1);
    for (const auto& d : in.henkin) n = std::max(n, d.var + 1);
    const std::vector<std::size_t> perm = shuffledOrder(n, seed);
    const auto map = [&](hqs::Var v) { return static_cast<hqs::Var>(perm[v]); };

    hqs::ParsedQdimacs out;
    out.matrix = hqs::Cnf(n);
    for (const hqs::Clause& c : in.matrix) {
        hqs::Clause mapped;
        for (std::size_t i = 0; i < c.size(); ++i)
            mapped.push(hqs::Lit(map(c[i].var()), c[i].negative()));
        out.matrix.addClause(std::move(mapped));
    }
    for (const auto& b : in.blocks) {
        hqs::PrefixBlockSpec nb{b.kind, {}};
        for (hqs::Var v : b.vars) nb.vars.push_back(map(v));
        out.blocks.push_back(std::move(nb));
    }
    for (const auto& d : in.henkin) {
        hqs::DependencySpec nd{map(d.var), {}};
        for (hqs::Var v : d.deps) nd.deps.push_back(map(v));
        out.henkin.push_back(std::move(nd));
    }
    return hqs::toDqdimacsString(out);
}

const std::string& ServiceSchedule::text(const Slot& slot) const
{
    static const std::string none;
    switch (slot.kind) {
        case SlotKind::Cold:
        case SlotKind::Repeat: return poolText[slot.instance];
        case SlotKind::Renumbered: return poolRenumbered[slot.instance];
        case SlotKind::SessionOpen: return sessionBase;
        default: return none;
    }
}

const char* toString(SlotKind k)
{
    switch (k) {
        case SlotKind::Cold: return "cold";
        case SlotKind::Repeat: return "repeat";
        case SlotKind::Renumbered: return "renumbered";
        case SlotKind::SessionOpen: return "session_open";
        case SlotKind::SessionDelta: return "session_delta";
        case SlotKind::SessionSolve: return "session_solve";
        case SlotKind::SessionClose: return "session_close";
    }
    return "?";
}

std::uint64_t fnv1a(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------- service_mix --

namespace {

constexpr int kSessionComponents = 6;
constexpr int kCompVars = 11; ///< universals 1..6, chain existentials 7..11
constexpr int kSessionDeltas = 90;
constexpr int kSessionSolves = 12;
/// Byte-identical and renumbered repeats per pool instance.  The counts are
/// fixed so every seed sends the same multiset of requests.
constexpr int kIdenticalRepeats = 9;
constexpr int kRenumberedRepeats = 9;

/// Small PEC instances (widths 3..6) that each decide in about 0.1 s or less.
std::vector<PecSpec> servicePool()
{
    std::vector<PecSpec> out;
    for (Family f : {Family::Adder, Family::Bitcell, Family::Lookahead, Family::PecXor,
                     Family::Comp})
        addWidths(out, f, 3, 6);
    addWidths(out, Family::Z4, 3, 5);
    out.push_back({Family::Z4, 6, false});
    addWidths(out, Family::C432, 3, 4);
    return out;
}

/// The four clauses of z = x XOR y (XNOR when @p flip), as signed DIMACS ints.
std::vector<std::vector<int>> xorClauses(int z, int x, int y, bool flip)
{
    const int zp = flip ? -z : z;
    return {{-x, -y, -zp}, {x, y, -zp}, {x, -y, zp}, {-x, y, zp}};
}

/// Definition k (7..11) of the session component at variable offset @p o:
/// e7 = x1 ^ x2, e_k = e_{k-1} ^ x_{k-5}; e_k (k < 11) depends on every
/// component universal except x_{k-4}, e11 on all of them, so each chain
/// value is expressible and every component is SAT.
std::vector<std::vector<int>> definition(int o, int k, bool flip)
{
    if (k == 7) return xorClauses(o + 7, o + 1, o + 2, flip);
    return xorClauses(o + k, o + k - 1, o + k - 5, flip);
}

/// " <v>" appended to @p s (prefix lines).
void appendVar(std::string& s, int v)
{
    s += ' ';
    s += std::to_string(v);
}

std::string groupName(int k)
{
    std::string s = "g";
    s += std::to_string(k);
    return s;
}

std::string clauseText(const std::vector<int>& lits)
{
    std::string s;
    for (int l : lits) s += std::to_string(l) + " ";
    return s + "0";
}

struct SessionFamily {
    std::string baseText;
    bool flips[kSessionComponents][5];
};

SessionFamily sessionFamily(hqs::Rng& rng)
{
    SessionFamily fam;
    std::string prefix = "a";
    for (int c = 0; c < kSessionComponents; ++c)
        for (int u = 1; u <= 6; ++u) appendVar(prefix, c * kCompVars + u);
    prefix += " 0\n";
    std::string matrix;
    int clauses = 0;
    for (int c = 0; c < kSessionComponents; ++c) {
        const int o = c * kCompVars;
        for (int k = 7; k <= 11; ++k) {
            prefix += "d " + std::to_string(o + k);
            for (int u = 1; u <= 6; ++u)
                if (k == 11 || u != k - 4) appendVar(prefix, o + u);
            prefix += " 0\n";
            fam.flips[c][k - 7] = rng.flip();
            for (const auto& cl : definition(o, k, fam.flips[c][k - 7])) {
                matrix += clauseText(cl) + "\n";
                ++clauses;
            }
        }
    }
    fam.baseText = "p cnf " + std::to_string(kSessionComponents * kCompVars) + " " +
                   std::to_string(clauses) + "\n" + prefix + matrix;
    return fam;
}

/// Two weakenings of definition clauses of one component: each is a base
/// clause plus one more literal of the same component, so it is implied
/// (the formula stays SAT) and dirties exactly that component.
std::string sessionDeltaClauses(const SessionFamily& fam, hqs::Rng& rng)
{
    const int c = static_cast<int>(rng.below(kSessionComponents));
    const int k = 7 + static_cast<int>(rng.below(5));
    const int o = c * kCompVars;
    const auto defs = definition(o, k, fam.flips[c][k - 7]);
    const std::size_t first = rng.below(4);
    const std::size_t second = (first + 1 + rng.below(3)) % 4;
    std::string out;
    for (std::size_t idx : {first, second}) {
        std::vector<int> cl = defs[idx];
        int w = 0;
        do {
            w = o + 1 + static_cast<int>(rng.below(6));
        } while (std::any_of(cl.begin(), cl.end(), [&](int l) { return std::abs(l) == w; }));
        cl.push_back(rng.flip() ? w : -w);
        if (!out.empty()) out += " ";
        out += clauseText(cl);
    }
    return out;
}

} // namespace

ServiceSchedule makeServiceSchedule(std::uint64_t seed)
{
    ServiceSchedule s;
    s.pool = servicePool();
    for (const PecSpec& p : s.pool) {
        s.poolText.push_back(encodePecText(p));
        s.poolRenumbered.push_back(renumberedText(s.poolText.back(), fnv1a(p.name())));
    }

    hqs::Rng rng(streamSeed(seed, 2));
    // Each instance belongs to one connection, so its first sight always
    // precedes its repeats and the hit/miss sequence is the same on every
    // replay whatever the interleaving of the two connections.  Connection 1,
    // which also carries the session, gets every third instance; the split
    // is fixed so each connection's share of the work is the same for every
    // seed.
    std::vector<int> events[2]; // pool index per request, in send order once shuffled
    std::vector<std::vector<SlotKind>> repeatKinds(s.pool.size());
    for (std::size_t i = 0; i < s.pool.size(); ++i) {
        const int conn = i % 3 == 2 ? 1 : 0;
        events[conn].insert(events[conn].end(), 1 + kIdenticalRepeats + kRenumberedRepeats,
                            static_cast<int>(i));
        std::vector<SlotKind> kinds(kIdenticalRepeats, SlotKind::Repeat);
        kinds.insert(kinds.end(), kRenumberedRepeats, SlotKind::Renumbered);
        for (std::size_t k : shuffledOrder(kinds.size(), rng.next()))
            repeatKinds[i].push_back(kinds[k]);
    }
    for (int conn = 0; conn < 2; ++conn) {
        std::vector<std::size_t> sent(s.pool.size());
        for (std::size_t pos : shuffledOrder(events[conn].size(), rng.next())) {
            const int inst = events[conn][pos];
            const std::size_t nth = sent[inst]++;
            Slot slot;
            slot.instance = inst;
            slot.expectSat = s.pool[inst].realizable;
            slot.kind = nth == 0 ? SlotKind::Cold : repeatKinds[inst][nth - 1];
            // Every SAT request asks for a certificate, except renumbered
            // repeats: a cached certificate is bound to the bytes it was
            // issued for.
            slot.certify = slot.expectSat && slot.kind != SlotKind::Renumbered;
            s.conn[conn].push_back(std::move(slot));
        }
    }

    // Connection 1 interleaves the session stream with its PEC requests.
    const SessionFamily fam = sessionFamily(rng);
    s.sessionBase = fam.baseText;
    std::vector<Slot> session;
    int group = 0;
    std::vector<bool> isSolve(kSessionDeltas + kSessionSolves);
    std::fill(isSolve.begin(), isSolve.begin() + kSessionSolves, true);
    for (std::size_t pos : shuffledOrder(isSolve.size(), rng.next())) {
        Slot slot;
        if (isSolve[pos]) {
            slot.kind = SlotKind::SessionSolve;
        } else {
            slot.kind = SlotKind::SessionDelta;
            if (group > 0) slot.retractGroup = groupName(group - 1);
            slot.addGroup = groupName(group++);
            slot.clauses = sessionDeltaClauses(fam, rng);
        }
        session.push_back(std::move(slot));
    }
    std::vector<Slot> merged;
    Slot open;
    open.kind = SlotKind::SessionOpen;
    merged.push_back(std::move(open));
    std::size_t si = 0, pi = 0;
    std::vector<Slot>& pec = s.conn[1];
    while (si < session.size() || pi < pec.size()) {
        const std::size_t left = (session.size() - si) + (pec.size() - pi);
        if (si < session.size() && rng.below(left) < session.size() - si)
            merged.push_back(std::move(session[si++]));
        else
            merged.push_back(std::move(pec[pi++]));
    }
    Slot close;
    close.kind = SlotKind::SessionClose;
    merged.push_back(std::move(close));
    s.conn[1] = std::move(merged);
    return s;
}

} // namespace perfbench
