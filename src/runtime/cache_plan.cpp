#include "src/runtime/cache_plan.hpp"

#include <exception>

#include "src/cache/canonical.hpp"
#include "src/cert/certificate.hpp"
#include "src/obs/obs.hpp"

namespace hqs::api {

void CachePlan::keyBy(const ParsedQdimacs& parsed)
{
    if (!active()) return;
    const cert::NormalizedPrefix prefix = cert::normalizePrefix(parsed);
    keyBy(cache::canonicalKey(parsed, prefix), cert::formulaHash(parsed, prefix));
}

void CachePlan::keyBy(const cache::CanonicalKey& k, std::uint64_t hash)
{
    key = k;
    formulaHash = hash;
    keyed = true;
}

cache::CacheConfig cacheConfig(const std::string& dir, const strategy::StrategySpec* spec)
{
    cache::CacheConfig cfg;
    cfg.dir = dir;
    if (spec) {
        cfg.maxBytes = spec->cache.maxBytes;
        cfg.ttlSeconds = spec->cache.ttlSeconds;
    }
    return cfg;
}

CachePlan planCache(cache::ResultCache* cache, const strategy::StrategySpec* spec,
                    const std::string& cacheControl, bool circuit)
{
    using Mode = strategy::CachePolicy::Mode;
    Mode mode = spec ? spec->cache.mode : Mode::On;
    strategy::cacheModeFromString(cacheControl, &mode); // "" keeps the strategy's
    CachePlan plan;
    if (!cache || mode == Mode::Off) return plan;
    if (circuit) {
        OBS_COUNT("cache.bypass.format", 1);
        plan.circuitBypassed = true;
        return plan;
    }
    plan.cache = cache;
    plan.read = mode == Mode::On;
    plan.write = true;
    return plan;
}

std::optional<CacheHit> lookupCache(const CachePlan& plan, bool wantCertificate,
                                    std::string* error)
{
    if (!plan.read || !plan.keyed) return std::nullopt;
    try {
        std::optional<cache::CacheEntry> entry = plan.cache->lookup(plan.key);
        if (!entry || !isConclusive(entry->result)) return std::nullopt;
        CacheHit hit;
        if (wantCertificate && entry->result == SolveResult::Sat)
            hit.cert = cache::vetCachedCertificate(*entry, plan.formulaHash);
        hit.entry = std::move(*entry);
        return hit;
    } catch (const std::exception& e) {
        if (error) *error = e.what();
        return std::nullopt;
    }
}

bool storeCache(const CachePlan& plan, SolveResult result, const std::string& engine,
                double solveMilliseconds, const std::string& certificate, std::string* error)
{
    if (!plan.write || !plan.keyed || !isConclusive(result)) return false;
    try {
        plan.cache->store(plan.key, {.result = result,
                                     .engine = engine,
                                     .solveMilliseconds = solveMilliseconds,
                                     .certFormulaHash = plan.formulaHash,
                                     .certificate = certificate});
        return true;
    } catch (const std::exception& e) {
        if (error) *error = e.what();
        return false;
    }
}

} // namespace hqs::api
