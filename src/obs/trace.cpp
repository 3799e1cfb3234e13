#include "src/obs/trace.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <ostream>
#include <vector>

#if defined(__GLIBCXX__) || defined(_LIBCPP_VERSION)
// Not exposed by <cxxabi.h>; the Itanium C++ ABI entry point behind
// std::uncaught_exceptions().  See detail::uncaughtExceptionsSlow().
namespace __cxxabiv1 {
struct __cxa_eh_globals;
extern "C" __cxa_eh_globals* __cxa_get_globals() noexcept;
} // namespace __cxxabiv1
#endif

namespace hqs::obs {
namespace detail {

std::atomic<bool> tracingOn{false};

std::uint64_t nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
            .count());
}

namespace {

/// Fixed-size chunk of a single-producer trace buffer.  The owner thread
/// writes items[count] and then publishes with a release store of count;
/// readers load count with acquire and only touch published slots.
struct Chunk {
    static constexpr std::uint32_t kCapacity = 256;
    SpanRecord items[kCapacity];
    std::atomic<std::uint32_t> count{0};
    std::atomic<Chunk*> next{nullptr};
};

struct ThreadBuffer {
    Chunk head;
    Chunk* tail = &head; ///< owner thread only
};

/// All thread buffers ever created.  Buffers outlive their threads (the
/// records must survive a join) and are reclaimed only by clearTrace();
/// they are allocated lazily, on a thread's first *recorded* span, so
/// untraced runs allocate nothing.
struct BufferRegistry {
    std::mutex mu;
    std::vector<ThreadBuffer*> buffers;

    static BufferRegistry& instance()
    {
        static BufferRegistry* r = new BufferRegistry();
        return *r;
    }
};

thread_local ThreadBuffer* tlBuffer = nullptr;
std::atomic<std::uint32_t> nextThreadOrdinal{0};
thread_local std::uint32_t tlOrdinal = ~0u;

} // namespace

std::uint32_t threadOrdinal()
{
    if (tlOrdinal == ~0u)
        tlOrdinal = nextThreadOrdinal.fetch_add(1, std::memory_order_relaxed);
    return tlOrdinal;
}

void record(const SpanRecord& r)
{
    ThreadBuffer* buf = tlBuffer;
    if (!buf) {
        buf = new ThreadBuffer();
        BufferRegistry& reg = BufferRegistry::instance();
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.buffers.push_back(buf);
        tlBuffer = buf;
    }
    Chunk* tail = buf->tail;
    std::uint32_t n = tail->count.load(std::memory_order_relaxed);
    if (n == Chunk::kCapacity) {
        Chunk* fresh = new Chunk();
        tail->next.store(fresh, std::memory_order_release);
        buf->tail = tail = fresh;
        n = 0;
    }
    tail->items[n] = r;
    tail->count.store(n + 1, std::memory_order_release);
}

} // namespace detail

void enableTracing(bool on)
{
    detail::nowNs(); // pin the trace epoch before the first span
    detail::tracingOn.store(on, std::memory_order_relaxed);
}

void clearTrace()
{
    using detail::Chunk;
    detail::BufferRegistry& reg = detail::BufferRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (detail::ThreadBuffer* buf : reg.buffers) {
        // Live threads keep their (reset) head chunk; overflow chunks die.
        Chunk* overflow = buf->head.next.exchange(nullptr, std::memory_order_acquire);
        while (overflow) {
            Chunk* next = overflow->next.load(std::memory_order_acquire);
            delete overflow;
            overflow = next;
        }
        buf->tail = &buf->head;
        buf->head.count.store(0, std::memory_order_release);
    }
}

namespace {

template <typename Fn>
void forEachRecord(Fn&& fn)
{
    using detail::Chunk;
    detail::BufferRegistry& reg = detail::BufferRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (detail::ThreadBuffer* buf : reg.buffers) {
        for (Chunk* c = &buf->head; c; c = c->next.load(std::memory_order_acquire)) {
            const std::uint32_t n = c->count.load(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < n; ++i) fn(c->items[i]);
        }
    }
}

} // namespace

std::size_t traceSpanCount()
{
    std::size_t n = 0;
    forEachRecord([&](const SpanRecord&) { ++n; });
    return n;
}

void writeChromeTrace(std::ostream& os)
{
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"hqs-trace/v1\"},"
          "\"traceEvents\":[";
    bool first = true;
    forEachRecord([&](const SpanRecord& r) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"";
        for (const char* p = r.name; *p; ++p) {
            // Names are code-controlled identifiers; escape defensively.
            if (*p == '"' || *p == '\\') os << '\\';
            os << *p;
        }
        // Timestamps are microseconds (Chrome's unit); keep ns precision
        // via three decimals.
        os << "\",\"cat\":\"hqs\",\"ph\":\"X\",\"ts\":" << (r.startNs / 1000) << '.'
           << static_cast<char>('0' + (r.startNs % 1000) / 100)
           << static_cast<char>('0' + (r.startNs % 100) / 10)
           << static_cast<char>('0' + r.startNs % 10) << ",\"dur\":" << (r.durNs / 1000)
           << '.' << static_cast<char>('0' + (r.durNs % 1000) / 100)
           << static_cast<char>('0' + (r.durNs % 100) / 10)
           << static_cast<char>('0' + r.durNs % 10) << ",\"pid\":1,\"tid\":" << r.tid;
        if (r.numArgs > 0) {
            os << ",\"args\":{";
            for (std::uint32_t i = 0; i < r.numArgs; ++i) {
                if (i) os << ',';
                os << '"' << r.argKey[i] << "\":";
                if (r.strArgs & (1u << i)) os << '"' << r.argVal[i].str << '"';
                else os << r.argVal[i].num;
            }
            os << '}';
        }
        os << '}';
    });
    os << "]}\n";
}

const char* currentSpanName()
{
    const SpanScope* top = detail::tlOpenSpan;
    return top ? top->name() : "";
}

const char* deathSite() { return detail::tlDeathSite; }

void clearDeathSite() { detail::tlDeathSite[0] = '\0'; }

namespace detail {

void noteDeathSite(const char* name) noexcept
{
    std::strncpy(tlDeathSite, name, kSpanNameCapacity - 1);
    tlDeathSite[kSpanNameCapacity - 1] = '\0';
}

int uncaughtExceptionsSlow() noexcept
{
#if defined(__GLIBCXX__) || defined(_LIBCPP_VERSION)
    // Itanium ABI: __cxa_eh_globals is { __cxa_exception* caughtExceptions;
    // unsigned int uncaughtExceptions; }.  __cxa_get_globals() allocates the
    // per-thread structure on first use, so the address is stable for the
    // thread's lifetime.  Verify against the standard call before caching —
    // on a runtime with a different layout we simply never cache and every
    // query takes the (correct, slower) standard path.
    const char* globals = reinterpret_cast<const char*>(__cxxabiv1::__cxa_get_globals());
    const auto* fast = reinterpret_cast<const unsigned int*>(globals + sizeof(void*));
    const int std_count = std::uncaught_exceptions();
    if (static_cast<int>(*fast) == std_count) {
        tlUncaughtPtr = fast;
        return std_count;
    }
#endif
    return std::uncaught_exceptions();
}

} // namespace detail

void SpanScope::close() noexcept
{
    SpanRecord r;
    std::strncpy(r.name, name_, kSpanNameCapacity - 1);
    r.name[kSpanNameCapacity - 1] = '\0';
    r.startNs = startNs_;
    r.durNs = detail::nowNs() - startNs_;
    r.tid = detail::threadOrdinal();
    r.depth = depth_;
    r.numArgs = numArgs_;
    r.strArgs = strArgs_;
    for (std::uint32_t i = 0; i < numArgs_; ++i) {
        r.argKey[i] = argKey_[i];
        r.argVal[i] = argVal_[i];
    }
    detail::record(r);
}

} // namespace hqs::obs
