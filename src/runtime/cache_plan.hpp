// The one front door to the result cache (DESIGN.md §10).  dqbf_solve, the
// batch scheduler and the service's stateless and session solves decide
// through planCache() whether a request may read or write the cache and
// under which key, then read through lookupCache() and write through
// storeCache().  Cache-layer exceptions (real or injected at the
// `cache-load`/`cache-store` checkpoints) never escape: a failed read is a
// miss, a failed write is reported, and neither taints the verdict.  What
// to do with a hit, including a certify request whose cached certificate
// cannot be served, stays with each front end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/base/result.hpp"
#include "src/cache/result_cache.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/strategy/spec.hpp"

namespace hqs::api {

/// What one request may do with the result cache, and under which key.
struct CachePlan {
    cache::ResultCache* cache = nullptr; ///< nullptr unless read or write
    bool read = false;
    bool write = false;
    bool circuitBypassed = false; ///< circuit input turned a live cache off
    bool keyed = false;           ///< key/formulaHash are set
    cache::CanonicalKey key;
    std::uint64_t formulaHash = 0; ///< cert::formulaHash, for the cert binding

    bool active() const { return read || write; }

    /// One canonicalKey and one formulaHash of @p parsed over one
    /// normalized prefix; no-op when the plan neither reads nor writes.
    void keyBy(const ParsedQdimacs& parsed);
    /// Key by an already computed key and formula hash.
    void keyBy(const cache::CanonicalKey& k, std::uint64_t hash);
};

/// The result-cache configuration of a front end: persisted under @p dir
/// ("" = in memory only), with @p spec's byte budget and entry lifetime
/// when a strategy is loaded and the cache defaults otherwise.
cache::CacheConfig cacheConfig(const std::string& dir, const strategy::StrategySpec* spec);

/// The effective mode is @p spec's (On without one), overridden by
/// @p cacheControl when it names a mode ("on" | "off" | "bypass").  On
/// reads and writes, Bypass only writes, Off does neither, and nothing
/// happens without a @p cache.  Circuit input is never cached (the key is
/// defined over the canonical CNF, not a lowering's Tseitin numbering); it
/// counts cache.bypass.format once when the mode was live.
CachePlan planCache(cache::ResultCache* cache, const strategy::StrategySpec* spec,
                    const std::string& cacheControl, bool circuit);

struct CacheHit {
    cache::CacheEntry entry;
    /// vetCachedCertificate's outcome when a certificate was wanted for a
    /// Sat verdict; nullopt otherwise.
    std::optional<cache::CertReuse> cert;
};

/// Read the plan's entry when it reads and is keyed; only a conclusive
/// entry is a hit.  A cache-layer failure is a miss with its what() in
/// @p error.
std::optional<CacheHit> lookupCache(const CachePlan& plan, bool wantCertificate,
                                    std::string* error = nullptr);

/// Store a conclusive verdict when the plan writes and is keyed, binding
/// @p certificate to the plan's formula hash.  True when stored; a
/// swallowed cache-layer failure leaves its what() in @p error.
bool storeCache(const CachePlan& plan, SolveResult result, const std::string& engine,
                double solveMilliseconds, const std::string& certificate,
                std::string* error = nullptr);

} // namespace hqs::api
