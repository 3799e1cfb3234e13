// Span tracer: RAII scopes recording wall-clock intervals into lock-free
// per-thread buffers, exported as Chrome trace_event JSON so a whole
// portfolio race is viewable in Perfetto / chrome://tracing.
//
// A SpanScope stamps the start time on construction and appends one
// SpanRecord to its thread's buffer on destruction.  Buffers are
// single-producer chunk lists: the owning thread appends wait-free and
// publishes each record with a release store of the chunk count, so
// writeChromeTrace() — called after the traced work completes — observes
// fully written records without ever locking a writer.
//
// Tracing is off by default; a disarmed SpanScope costs a few thread-local
// pointer writes and one relaxed atomic load (no clock reads, no buffer
// traffic), cheap enough to leave span scopes in the pipeline permanently.
// Even disarmed, scopes maintain the per-thread stack of open spans, which
// the guard layer uses to tag FailureInfo records with the innermost span
// an exception unwound out of (see deathSite()).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <iosfwd>

namespace hqs::obs {

/// Span names longer than this are truncated in the exported trace.  With
/// four arguments this keeps a SpanRecord at 128 bytes (the longest span
/// name in the tree has 18 characters).
inline constexpr std::size_t kSpanNameCapacity = 32;
inline constexpr std::uint32_t kSpanMaxArgs = 4;

/// A span argument's value: an integer, or a string literal.
union SpanArg {
    std::int64_t num;
    const char* str;
};

/// One closed span, as stored in the per-thread trace buffers.
struct SpanRecord {
    char name[kSpanNameCapacity];
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0;   ///< small per-thread ordinal, not the OS tid
    std::uint32_t depth = 0; ///< nesting depth at record time (root = 0)
    const char* argKey[kSpanMaxArgs] = {};
    SpanArg argVal[kSpanMaxArgs] = {};
    std::uint32_t numArgs = 0;
    std::uint32_t strArgs = 0; ///< bit i set: argVal[i] holds a string
};
static_assert(sizeof(SpanRecord) == 128, "a trace record is two cache lines");

class SpanScope;

namespace detail {
extern std::atomic<bool> tracingOn;
/// Monotonic nanoseconds since the process trace epoch.
std::uint64_t nowNs();
void record(const SpanRecord& r);
std::uint32_t threadOrdinal();
/// Out-of-line copy of @p name into tlDeathSite (keeps <cstring> out of the
/// inline destructor).
void noteDeathSite(const char* name) noexcept;
// Inline thread_locals so the SpanScope fast path compiles to direct TLS
// slot accesses instead of calls through cross-TU thread_local wrappers.
inline thread_local SpanScope* tlOpenSpan = nullptr;
inline thread_local char tlDeathSite[kSpanNameCapacity] = {};

/// Cached address of this thread's uncaught-exception counter inside the
/// C++ runtime's per-thread EH globals (Itanium ABI).  std::
/// uncaught_exceptions() is a ~6 ns libstdc++ call and a SpanScope needs
/// the count twice (entry and exit); through the cached pointer each query
/// is a single load, which is what keeps a disarmed span in the
/// single-digit-ns budget.  Null until the first query on this thread.
inline thread_local const unsigned int* tlUncaughtPtr = nullptr;
/// First-call path of uncaughtExceptions(): resolves and caches the counter
/// address, or falls back to std::uncaught_exceptions() when the runtime's
/// layout does not match the Itanium ABI.
int uncaughtExceptionsSlow() noexcept;

inline int uncaughtExceptions() noexcept
{
    if (const unsigned int* p = tlUncaughtPtr) return static_cast<int>(*p);
    return uncaughtExceptionsSlow();
}
} // namespace detail

/// Turn span recording on/off.  Records survive toggling; clearTrace()
/// drops them.
void enableTracing(bool on);
inline bool tracingEnabled()
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

/// Drop every recorded span.  Only call while no traced work is in flight
/// (between runs / in tests): buffers of live threads are reset in place.
void clearTrace();

/// Number of recorded (closed) spans across all threads.
std::size_t traceSpanCount();

/// Export all recorded spans in Chrome trace_event JSON ("X" complete
/// events, microsecond timestamps).  Loadable by Perfetto and
/// chrome://tracing.
void writeChromeTrace(std::ostream& os);

class SpanScope;

/// Innermost open span on the calling thread ("" when none).
const char* currentSpanName();

/// The innermost span an exception unwound out of on this thread since the
/// last clearDeathSite() — the guard layer stamps this into
/// FailureInfo.site when the exception itself carries no site.
const char* deathSite();
void clearDeathSite();

/// RAII traced scope.  @p name must outlive the scope (a string literal, or
/// a buffer that lives at least as long — the exported record holds a
/// copy).  Construction order defines nesting; scopes must close on the
/// thread that opened them.
class SpanScope {
public:
    explicit SpanScope(const char* name) noexcept
        : name_(name),
          parent_(detail::tlOpenSpan),
          startNs_(0),
          depth_(parent_ ? parent_->depth_ + 1 : 0),
          uncaughtOnEntry_(detail::uncaughtExceptions())
    {
        detail::tlOpenSpan = this;
        if (detail::tracingOn.load(std::memory_order_relaxed)) {
            startNs_ = detail::nowNs();
            if (startNs_ == 0) startNs_ = 1; // 0 is the "not tracing" sentinel
        }
    }

    ~SpanScope()
    {
        // During unwinding the innermost scope destructs first: the first
        // scope to notice a new exception names the span it died in.
        if (detail::uncaughtExceptions() > uncaughtOnEntry_ &&
            detail::tlDeathSite[0] == '\0')
            detail::noteDeathSite(name_);
        detail::tlOpenSpan = parent_;
        if (startNs_ != 0) close();
    }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /// Attach a small integer argument, shown under "args" in the trace
    /// viewer.  Keys beyond kSpanMaxArgs are dropped; no-op while tracing
    /// is off.  @p key must be a string literal.
    void arg(const char* key, std::int64_t value) noexcept
    {
        if (startNs_ == 0 || numArgs_ >= kSpanMaxArgs) return;
        argKey_[numArgs_] = key;
        argVal_[numArgs_].num = value;
        ++numArgs_;
    }
    /// A string argument; @p value must be a string literal too.
    void arg(const char* key, const char* value) noexcept
    {
        if (startNs_ == 0 || numArgs_ >= kSpanMaxArgs) return;
        argKey_[numArgs_] = key;
        argVal_[numArgs_].str = value;
        strArgs_ |= 1u << numArgs_;
        ++numArgs_;
    }

    const char* name() const { return name_; }

private:
    friend const char* currentSpanName();

    /// Slow path: build the SpanRecord and append it to this thread's
    /// buffer.  Only reached while tracing was on at construction.
    void close() noexcept;

    const char* name_;
    SpanScope* parent_;
    std::uint64_t startNs_; ///< 0 while tracing is off (no record on close)
    std::uint32_t depth_;
    int uncaughtOnEntry_;
    const char* argKey_[kSpanMaxArgs];
    SpanArg argVal_[kSpanMaxArgs];
    std::uint32_t numArgs_ = 0;
    std::uint32_t strArgs_ = 0;
};

/// Always-available no-op stand-in the OBS_* macros expand to under
/// -DHQS_OBS=OFF; accepts and ignores any constructor arguments.
struct NullSpan {
    template <typename... Args>
    explicit NullSpan(const Args&...) noexcept
    {
    }
    void arg(const char*, std::int64_t) noexcept {}
    void arg(const char*, const char*) noexcept {}
};

} // namespace hqs::obs
