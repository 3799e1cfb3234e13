#include "src/cache/canonical.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cert/certificate.hpp"

namespace hqs::cache {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvOffsetAlt = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// Order-preserving nonzero 32-bit rank of a row element; 0 stands for
/// "past the row's end", which sorts before every element.
std::uint32_t rank(Lit l)
{
    return l.code() + 1; // the undefined literal never sits in a clause
}
std::uint32_t rank(std::uint32_t x)
{
    return x; // rendered rows hold positive numbers only (see below)
}

/// Variable-length rows stored flat (CSR): row i is
/// flat[off[i] .. off[i+1]).  Append a row's elements, then close() it.
template <typename T>
struct Ranges {
    std::vector<T> flat;
    std::vector<std::uint32_t> off{0};

    void close() { off.push_back(static_cast<std::uint32_t>(flat.size())); }
    std::size_t size() const { return off.size() - 1; }
    std::size_t size(std::uint32_t i) const { return off[i + 1] - off[i]; }
    const T* begin(std::uint32_t i) const { return flat.data() + off[i]; }
    const T* end(std::uint32_t i) const { return flat.data() + off[i + 1]; }

    /// Row indices in lexicographic row order; with @p unique, all but the
    /// first of equal rows are dropped.
    std::vector<std::uint32_t> sortedOrder(bool unique = false) const
    {
        // Order by a key packing the ranks of the first two elements, which
        // decides almost every comparison; rows sharing a key compare tails.
        struct Keyed {
            std::uint64_t key;
            std::uint32_t row;
        };
        std::vector<Keyed> keyed(size());
        for (std::uint32_t i = 0; i < keyed.size(); ++i) {
            const std::size_t len = size(i);
            const std::uint64_t r0 = len > 0 ? rank(begin(i)[0]) : 0;
            const std::uint64_t r1 = len > 1 ? rank(begin(i)[1]) : 0;
            keyed[i] = {r0 << 32 | r1, i};
        }
        const auto tail = [this](std::uint32_t i) {
            return begin(i) + std::min<std::size_t>(size(i), 2);
        };
        const auto tailLess = [&](const Keyed& a, const Keyed& b) {
            return std::lexicographical_compare(tail(a.row), end(a.row), tail(b.row), end(b.row));
        };
        // Stable LSD radix sort on the key, a byte per pass, skipping the
        // bytes every key shares; then each run of equal keys by tails.
        std::vector<Keyed> scratch(keyed.size());
        std::array<std::array<std::uint32_t, 256>, 8> count{};
        for (const Keyed& k : keyed)
            for (int b = 0; b < 8; ++b) ++count[b][(k.key >> (8 * b)) & 0xff];
        for (int b = 0; b < 8; ++b) {
            std::array<std::uint32_t, 256>& c = count[b];
            if (keyed.empty() || c[(keyed[0].key >> (8 * b)) & 0xff] == keyed.size()) continue;
            std::uint32_t sum = 0;
            for (std::uint32_t& x : c) sum += std::exchange(x, sum);
            for (const Keyed& k : keyed) scratch[c[(k.key >> (8 * b)) & 0xff]++] = k;
            keyed.swap(scratch);
        }
        for (std::size_t i = 0, j; i < keyed.size(); i = j) {
            for (j = i + 1; j < keyed.size() && keyed[j].key == keyed[i].key; ++j) {
            }
            if (j - i > 1) std::sort(keyed.begin() + i, keyed.begin() + j, tailLess);
        }
        std::vector<std::uint32_t> order;
        order.reserve(keyed.size());
        for (std::size_t i = 0; i < keyed.size(); ++i) {
            if (unique && i > 0 && keyed[i].key == keyed[i - 1].key &&
                !tailLess(keyed[i - 1], keyed[i]))
                continue;
            order.push_back(keyed[i].row);
        }
        return order;
    }
};

/// Order-dependent 64-bit mixer for the refinement colors: a sequential
/// combiner (splitmix-style finalizer keeps adjacent integer inputs from
/// producing adjacent colors).
std::uint64_t mix(std::uint64_t h, std::uint64_t v)
{
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    v ^= v >> 31;
    return (h ^ v) * kFnvPrime;
}

/// An element's term in an unordered multiset hash: the bag is the sum of
/// its elements' terms.  Addition is commutative and associative, so the
/// bag depends only on the multiset, never on the order elements arrive in.
std::uint64_t term(std::uint64_t element)
{
    return mix(0, element);
}

} // namespace

std::string toHex(const CanonicalKey& key)
{
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(key.hi),
                  static_cast<unsigned long long>(key.lo));
    return std::string(buf, 32);
}

bool keyFromHex(const std::string& text, CanonicalKey* out)
{
    if (text.size() != 32) return false;
    std::uint64_t words[2] = {0, 0};
    for (std::size_t i = 0; i < 32; ++i) {
        const char c = text[i];
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
        words[i / 16] = (words[i / 16] << 4) | digit;
    }
    if (out) *out = {words[0], words[1]};
    return true;
}

CanonicalForm canonicalize(const ParsedQdimacs& parsed)
{
    return canonicalize(parsed, cert::normalizePrefix(parsed));
}

CanonicalForm canonicalize(const ParsedQdimacs& parsed, const cert::NormalizedPrefix& prefix)
{
    Var maxVar = parsed.matrix.numVars();
    for (Var v : prefix.universals) maxVar = std::max<Var>(maxVar, v + 1);
    for (Var v : prefix.existentials) maxVar = std::max<Var>(maxVar, v + 1);
    const std::size_t n = maxVar;

    // Per-variable structure that is invariant under renaming: quantifier
    // kind (0 free, 1 existential, 2 universal) and dependency set.
    std::vector<std::uint8_t> kind(n, 0);
    std::vector<std::uint32_t> depsOf(n, kNone); // index into prefix.deps
    for (Var v : prefix.universals) kind[v] = 2;
    for (std::size_t i = 0; i < prefix.existentials.size(); ++i) {
        const Var v = prefix.existentials[i];
        if (kind[v] == 0) kind[v] = 1;
        depsOf[v] = static_cast<std::uint32_t>(i);
    }

    // Normalize the clause list before anything looks at it: literals
    // sorted and deduplicated within each clause, exact duplicate clauses
    // dropped.  Doing this up front keeps the occurrence profile (and with
    // it the refinement colors) independent of duplicates that the rendered
    // form would discard anyway.
    Ranges<Lit> input;
    input.off.reserve(parsed.matrix.numClauses() + 1);
    for (const Clause& c : parsed.matrix.clauses()) {
        const std::size_t begin = input.flat.size();
        input.flat.insert(input.flat.end(), c.begin(), c.end());
        const auto first = input.flat.begin() + static_cast<std::ptrdiff_t>(begin);
        if (!std::is_sorted(first, input.flat.end())) std::sort(first, input.flat.end());
        input.flat.erase(std::unique(first, input.flat.end()), input.flat.end());
        input.close();
    }
    Ranges<Lit> clauses;
    clauses.flat.reserve(input.flat.size());
    clauses.off.reserve(input.off.size());
    for (const std::uint32_t ci : input.sortedOrder(true)) {
        clauses.flat.insert(clauses.flat.end(), input.begin(ci), input.end(ci));
        clauses.close();
    }
    const std::size_t m = clauses.size();
    std::vector<std::uint64_t> sizeMix(m); // a clause's size, mixed once for all rounds
    for (std::uint32_t ci = 0; ci < m; ++ci) sizeMix[ci] = mix(0, clauses.size(ci));

    // Occurrence lists in CSR form: the clauses of variable v are
    // occ[occOff[v] .. occOff[v+1]), one entry per literal occurrence.
    std::vector<std::uint32_t> posOcc(n, 0), negOcc(n, 0);
    for (Lit l : clauses.flat) (l.negative() ? negOcc : posOcc)[l.var()]++;
    std::vector<std::uint32_t> occOff(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) occOff[v + 1] = occOff[v] + posOcc[v] + negOcc[v];
    std::vector<std::uint32_t> occ(clauses.flat.size());
    {
        std::vector<std::uint32_t> fill(occOff.begin(), occOff.end() - 1);
        for (std::uint32_t ci = 0; ci < m; ++ci)
            for (const Lit* l = clauses.begin(ci); l != clauses.end(ci); ++l)
                occ[fill[l->var()]++] = ci;
    }

    // Color refinement.  Initial colors see only local structure; each
    // round folds in the colors of the clauses a variable occurs in (as an
    // unordered multiset keyed by sign) and of its dependency set, so after
    // a few rounds the color captures the variable's neighborhood.  Three
    // rounds separate everything the cache cares about in practice; deeper
    // symmetric ties degrade to first-occurrence tie-breaks (false miss at
    // worst, see canonical.hpp).
    std::vector<std::uint64_t> color(n), next(n);
    for (std::size_t v = 0; v < n; ++v) {
        std::uint64_t h = mix(0, kind[v]);
        h = mix(h, depsOf[v] != kNone ? prefix.deps[depsOf[v]].size() + 1 : 0);
        h = mix(h, posOcc[v]);
        h = mix(h, negOcc[v]);
        color[v] = h;
    }
    // A multiset folds to the sum of its elements' terms (see term()).  Each
    // element's term is mixed once per round and shared by every bag it
    // enters: a literal's by its clauses, a clause's by its variables, a
    // variable's by the dependency sets that name it.
    std::vector<std::uint64_t> litTerm(2 * n), varTerm(n), clauseTerm(m);
    for (int round = 0; round < 3; ++round) {
        for (std::size_t v = 0; v < n; ++v) {
            litTerm[Lit::pos(static_cast<Var>(v)).code()] = term(mix(color[v], 2));
            litTerm[Lit::neg(static_cast<Var>(v)).code()] = term(mix(color[v], 1));
            varTerm[v] = term(color[v]);
        }
        for (std::uint32_t ci = 0; ci < m; ++ci) {
            std::uint64_t bag = 0;
            for (const Lit* l = clauses.begin(ci); l != clauses.end(ci); ++l)
                bag += litTerm[l->code()];
            clauseTerm[ci] = term(mix(sizeMix[ci], bag));
        }
        for (std::size_t v = 0; v < n; ++v) {
            std::uint64_t bag = 0;
            for (std::uint32_t k = occOff[v]; k < occOff[v + 1]; ++k) bag += clauseTerm[occ[k]];
            std::uint64_t h = mix(color[v], bag);
            if (depsOf[v] != kNone) {
                std::uint64_t depBag = 0;
                for (Var d : prefix.deps[depsOf[v]]) depBag += varTerm[d];
                h = mix(h, depBag);
            }
            next[v] = h;
        }
        color.swap(next);
    }

    // Dense renaming: order variables by color, then first occurrence in
    // the matrix (occurrence order is itself presentation-dependent, but
    // only reached for color ties).
    std::vector<std::uint32_t> firstOcc(n, kNone);
    std::uint32_t tick = 0;
    for (Lit l : clauses.flat)
        if (firstOcc[l.var()] == kNone) firstOcc[l.var()] = tick++;
    std::vector<Var> order(n);
    std::iota(order.begin(), order.end(), Var{0});
    std::sort(order.begin(), order.end(), [&](Var a, Var b) {
        if (color[a] != color[b]) return color[a] < color[b];
        if (firstOcc[a] != firstOcc[b]) return firstOcc[a] < firstOcc[b];
        return a < b;
    });
    std::vector<Var> rename(n, kNoVar);
    for (std::size_t pos = 0; pos < order.size(); ++pos)
        rename[order[pos]] = static_cast<Var>(pos);

    // Render: sorted prefix lines, then sorted deduplicated clauses, all
    // under the dense renaming and 1-based like DQDIMACS.  Clause rows sort
    // their literals by variable, positive first — ascending literal code
    // under the renaming — and rows compare as signed DIMACS integers.  Row
    // elements are stored offset by n + 1, so they are positive and compare
    // as unsigned numbers in the same order.
    const std::uint32_t bias = static_cast<std::uint32_t>(n) + 1;
    std::vector<std::uint32_t> universals;
    universals.reserve(prefix.universals.size());
    for (Var v : prefix.universals) universals.push_back(rename[v] + 1);
    std::sort(universals.begin(), universals.end());

    Ranges<std::uint32_t> depLines;
    for (std::size_t i = 0; i < prefix.existentials.size(); ++i) {
        depLines.flat.push_back(rename[prefix.existentials[i]] + 1);
        const std::size_t depsBegin = depLines.flat.size();
        for (Var d : prefix.deps[i]) depLines.flat.push_back(rename[d] + 1);
        std::sort(depLines.flat.begin() + static_cast<std::ptrdiff_t>(depsBegin),
                  depLines.flat.end());
        depLines.close();
    }

    Ranges<std::uint32_t> rows;
    rows.flat.reserve(clauses.flat.size());
    rows.off.reserve(m + 1);
    std::vector<Lit> renamed;
    for (std::uint32_t ci = 0; ci < m; ++ci) {
        renamed.clear();
        for (const Lit* l = clauses.begin(ci); l != clauses.end(ci); ++l) {
            // Insertion sort: clauses are short.
            const Lit r(rename[l->var()], l->negative());
            renamed.push_back(r);
            auto j = renamed.end() - 1;
            for (; j != renamed.begin() && r < *(j - 1); --j) *j = *(j - 1);
            *j = r;
        }
        for (Lit l : renamed) rows.flat.push_back(static_cast<std::uint32_t>(l.toDimacs()) + bias);
        rows.close();
    }
    const std::vector<std::uint32_t> rowOrder = rows.sortedOrder(true);

    CanonicalForm form;
    form.numVars = n;
    form.numClauses = rowOrder.size();
    // Every int renders in at most digits(n) + 1 bytes plus its separator,
    // every line end in 4; the header and to_chars' bound take the constant.
    std::size_t width = 3;
    for (std::size_t x = n; x >= 10; x /= 10) ++width;
    std::string& text = form.text;
    text.resize(96 + width * (universals.size() + depLines.flat.size() + rows.flat.size()) +
                4 * (1 + depLines.size() + rowOrder.size()));
    char* w = text.data();
    const auto put = [&w](std::string_view s) { w = std::copy(s.begin(), s.end(), w); };
    const auto putInt = [&w](auto x) { w = std::to_chars(w, w + 24, x).ptr; };
    const auto putLine = [&](const std::uint32_t* b, const std::uint32_t* e) {
        for (const std::uint32_t* x = b; x != e; ++x) {
            *w++ = ' ';
            putInt(*x);
        }
        put(" 0\n");
    };
    put("dqbf-canon 1\np cnf ");
    putInt(n);
    *w++ = ' ';
    putInt(rowOrder.size());
    *w++ = '\n';
    if (!universals.empty()) {
        *w++ = 'a';
        putLine(universals.data(), universals.data() + universals.size());
    }
    for (const std::uint32_t i : depLines.sortedOrder()) {
        *w++ = 'd';
        putLine(depLines.begin(i), depLines.end(i));
    }
    for (const std::uint32_t r : rowOrder) {
        for (const std::uint32_t* x = rows.begin(r); x != rows.end(r); ++x) {
            if (x != rows.begin(r)) *w++ = ' ';
            putInt(static_cast<long long>(*x) - bias);
        }
        put(" 0\n");
    }
    text.resize(static_cast<std::size_t>(w - text.data()));

    // Both 64-bit FNV-1a streams in one pass over the text.
    std::uint64_t hi = kFnvOffset, lo = kFnvOffsetAlt;
    for (unsigned char c : text) {
        hi = (hi ^ c) * kFnvPrime;
        lo = (lo ^ c) * kFnvPrime;
    }
    form.key = {hi, lo};
    return form;
}

CanonicalKey canonicalKey(const ParsedQdimacs& parsed)
{
    return canonicalize(parsed).key;
}

CanonicalKey canonicalKey(const ParsedQdimacs& parsed, const cert::NormalizedPrefix& prefix)
{
    return canonicalize(parsed, prefix).key;
}

} // namespace hqs::cache
