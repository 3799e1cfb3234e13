// Wall-clock timing and deadline helpers used by solvers and the bench
// harness.  All solvers accept a Deadline so per-instance timeouts can be
// enforced without signals.  A Deadline can additionally carry a CancelToken
// (see cancel.hpp): expired() then also reports true once the token fires,
// which makes every deadline-checking solver loop cooperatively cancellable
// from another thread.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "src/base/cancel.hpp"
#include "src/base/result.hpp"

namespace hqs {

/// Stopwatch measuring wall-clock time since construction or reset().
class Timer {
public:
    Timer() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    double elapsedMilliseconds() const { return elapsedSeconds() * 1e3; }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// A point in time after which a solver should abort with Timeout.
/// A default-constructed Deadline never expires.
class Deadline {
public:
    Deadline() : expiry_(Clock::time_point::max()) {}

    /// Deadline @p seconds from now; non-positive values mean "no limit".
    static Deadline in(double seconds)
    {
        Deadline d;
        if (seconds > 0) {
            d.expiry_ = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
        }
        return d;
    }

    static Deadline unlimited() { return Deadline(); }

    /// This deadline, additionally expiring as soon as @p token fires.  The
    /// time budget is unchanged; copies share the token's flag.
    Deadline withCancel(const CancelToken& token) const
    {
        Deadline d = *this;
        d.cancel_ = token.state();
        return d;
    }

    bool expired() const
    {
        if (cancelled()) return true;
        return Clock::now() >= expiry_;
    }

    /// Does this deadline carry a CancelToken (fired or not)?
    bool hasCancel() const { return cancel_ != nullptr; }

    /// Expired specifically because an attached CancelToken fired (the time
    /// budget may or may not also be gone).
    bool cancelled() const
    {
        return cancel_ && cancel_->fired.load(std::memory_order_acquire);
    }

    /// Why the attached token fired; None without a token or while unfired.
    CancelReason cancelReason() const
    {
        if (!cancelled()) return CancelReason::None;
        return static_cast<CancelReason>(cancel_->reason.load(std::memory_order_relaxed));
    }

    bool isUnlimited() const
    {
        return expiry_ == Clock::time_point::max() && !cancel_;
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point expiry_;
    std::shared_ptr<const CancelToken::State> cancel_;
};

/// The SolveResult a solver should return when @p d has expired: Memout when
/// a resource watchdog fired the attached token with CancelReason::Memout,
/// Timeout for the time budget and every other cancellation.  Every
/// deadline-polling solver loop reports expiry through this helper so the
/// guard layer's cooperative memout is visible end to end.
inline SolveResult deadlineExceededResult(const Deadline& d)
{
    return d.cancelReason() == CancelReason::Memout ? SolveResult::Memout
                                                    : SolveResult::Timeout;
}

} // namespace hqs
