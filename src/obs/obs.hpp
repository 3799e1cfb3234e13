// Observability macros: the one header instrumented code includes.
//
//   OBS_SPAN(var, "hqs.fraig");            // RAII trace span (trace.hpp)
//   var.arg("nodes_before", n);            // optional span arguments
//   OBS_PHASE(var, "hqs.preprocess", "phase.preprocess.us");
//                                          // span + duration counter
//   OBS_COUNT("hqs.elim.universal", 1);    // counter add
//   OBS_GAUGE_MAX("aig.peak_cone", cone);  // high-water-mark gauge
//   OBS_OBSERVE("pool.queue_latency_us", us); // histogram observation
//
// Cost discipline (same budget as the fault.hpp checkpoints):
//   * counters/gauges/histograms: one function-local-static guard load,
//     one thread-local read, one relaxed atomic RMW — a few ns, always on;
//   * spans: a few thread-local writes when tracing is off, two clock
//     reads and one buffer append when it is on;
//   * phase scopes: a span plus two clock reads and one counter add (phase
//     granularity only — never put one on a per-node path).
//
// Configure with -DHQS_OBS=OFF (CMake) to compile every macro to a no-op:
// arguments are not evaluated, no atomics, no clock reads.  The obs
// *runtime* (registry, tracer, reports) stays linkable either way, so code
// reading metrics does not need its own #ifdefs — with the macros off it
// simply sees empty registries and traces.
#pragma once

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

#ifndef HQS_OBS_ENABLED
#define HQS_OBS_ENABLED 1
#endif

namespace hqs::obs {

/// A SpanScope that additionally accumulates its wall-clock duration (in
/// microseconds) into a counter, so per-phase timing is available from the
/// metrics registry even when tracing is off.
class PhaseScope {
public:
    PhaseScope(const char* spanName, MetricId usCounter) noexcept
        : span_(spanName), id_(usCounter), startNs_(detail::nowNs())
    {
    }
    ~PhaseScope()
    {
        currentRegistry().add(
            id_, static_cast<std::int64_t>((detail::nowNs() - startNs_) / 1000));
    }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

    void arg(const char* key, std::int64_t value) noexcept { span_.arg(key, value); }
    void arg(const char* key, const char* value) noexcept { span_.arg(key, value); }

private:
    SpanScope span_;
    MetricId id_;
    std::uint64_t startNs_;
};

} // namespace hqs::obs

#if HQS_OBS_ENABLED

#define OBS_SPAN(var, name) ::hqs::obs::SpanScope var{(name)}

#define OBS_PHASE(var, spanName, usCounterName)                                   \
    static const ::hqs::obs::MetricId var##_obs_id = ::hqs::obs::metric(          \
        (usCounterName), ::hqs::obs::MetricKind::Counter);                        \
    ::hqs::obs::PhaseScope var{(spanName), var##_obs_id}

#define OBS_COUNT(name, delta)                                                    \
    do {                                                                          \
        static const ::hqs::obs::MetricId obs_id_ =                               \
            ::hqs::obs::metric((name), ::hqs::obs::MetricKind::Counter);          \
        ::hqs::obs::currentRegistry().add(obs_id_, (delta));                      \
    } while (0)

#define OBS_GAUGE_MAX(name, value)                                                \
    do {                                                                          \
        static const ::hqs::obs::MetricId obs_id_ =                               \
            ::hqs::obs::metric((name), ::hqs::obs::MetricKind::Gauge);            \
        ::hqs::obs::currentRegistry().setMax(obs_id_,                             \
                                             static_cast<std::int64_t>(value));   \
    } while (0)

#define OBS_GAUGE_SET(name, value)                                                \
    do {                                                                          \
        static const ::hqs::obs::MetricId obs_id_ =                               \
            ::hqs::obs::metric((name), ::hqs::obs::MetricKind::Gauge);            \
        ::hqs::obs::currentRegistry().set(obs_id_,                                \
                                          static_cast<std::int64_t>(value));      \
    } while (0)

#define OBS_OBSERVE(name, value)                                                  \
    do {                                                                          \
        static const ::hqs::obs::MetricId obs_id_ =                               \
            ::hqs::obs::metric((name), ::hqs::obs::MetricKind::Histogram);        \
        ::hqs::obs::currentRegistry().observe(obs_id_,                            \
                                              static_cast<std::int64_t>(value));  \
    } while (0)

#else // HQS_OBS_ENABLED

// No-op expansions: arguments are referenced unevaluated (sizeof) so the
// disabled build neither runs them nor warns about unused variables.
#define OBS_SPAN(var, name) ::hqs::obs::NullSpan var{(name)}
#define OBS_PHASE(var, spanName, usCounterName) \
    ::hqs::obs::NullSpan var{(spanName), (usCounterName)}
#define OBS_COUNT(name, delta) \
    do { (void)sizeof(char[1]); (void)sizeof((delta)); } while (0)
#define OBS_GAUGE_MAX(name, value) \
    do { (void)sizeof(char[1]); (void)sizeof((value)); } while (0)
#define OBS_GAUGE_SET(name, value) \
    do { (void)sizeof(char[1]); (void)sizeof((value)); } while (0)
#define OBS_OBSERVE(name, value) \
    do { (void)sizeof(char[1]); (void)sizeof((value)); } while (0)

#endif // HQS_OBS_ENABLED
