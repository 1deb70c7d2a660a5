#pragma once

// Per-query cancellation and deadline primitives for the serving layer.
//
// CancelWatermark (support/scheduler.hpp) cancels *within* one cover run:
// "first accepting index wins" lowers a monotone index mark and queued work
// above it skips itself. A CancelToken generalizes that across a whole
// query: any thread may flip it, every cooperative checkpoint (slice tasks,
// path tasks, per-node DP loops, between-runs budget checks) observes it,
// and the query returns StatusCode::kCancelled carrying whatever partial
// result the deterministic replay had already accounted — the same shape
// as a work/deadline interruption.
//
// DeadlineClock is the wall-clock twin: armed once with an absolute
// deadline, then polled from the same checkpoints, so an exceeded
// QueryOptions::deadline_seconds preempts *mid-cover* instead of only
// between cover runs. Both are monotone (once cancelled/expired, forever
// cancelled/expired), which keeps interrupted runs replayable: a
// checkpoint that observed "keep going" can never be contradicted by an
// earlier one.
//
// ParkGate is the third, *resumable* signal: the pool-side scheduler asks a
// running query to suspend (request_park), the query acknowledges at its
// next slice-boundary checkpoint (park blocks until resume) and continues
// afterwards with all state retained. Unlike token/deadline it is not a
// cancellation — nothing is discarded, the query's results are unchanged —
// so it is deliberately NOT part of CancelScope::cancelled(): parked work
// pauses between slices, it never skips them.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>

namespace ppsi::support {

/// One query's cancellation flag. cancel() may be called from any thread,
/// any number of times; cancelled() is a cheap acquire-load, safe to poll
/// from hot loops. Monotone: never resets.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// An absolute wall-clock deadline. arm() before publishing to other
/// threads (armed_ is intentionally plain: it is written once, before the
/// clock becomes shared, and read-only afterwards); expired() is then safe
/// to poll concurrently. Unarmed clocks never expire.
class DeadlineClock {
 public:
  DeadlineClock() = default;

  using Clock = std::chrono::steady_clock;

  /// Sets the deadline `seconds` from now. Call at most once, before the
  /// clock is shared with other threads. A duration that is zero (or
  /// rounds to zero in the clock's resolution — the deadline is exactly
  /// "now") expires *at arm time*, deterministically: expired() is true
  /// from the first poll, independent of whether the clock has advanced a
  /// tick between arm and poll.
  void arm(double seconds) {
    const Clock::time_point now = Clock::now();
    deadline_ = after(now, seconds);
    expired_at_arm_ = deadline_ <= now;
    armed_ = true;
  }

  bool armed() const { return armed_; }
  /// The armed deadline (time_point::max() when it never expires).
  Clock::time_point expires_at() const { return deadline_; }
  bool expired() const {
    return armed_ && (expired_at_arm_ || Clock::now() >= deadline_);
  }

  /// Pushes the deadline `seconds` later. Serving-layer use only: credits
  /// time a parked query spent suspended back to its execution budget
  /// ("the budget clock pauses while parked"). Call from the query's own
  /// thread while no other thread polls the clock (the parked query's
  /// checkpoints are all quiescent between slice rounds). A clock that
  /// expired at arm stays expired — there was never time to give back.
  void extend(double seconds) { deadline_ = after(deadline_, seconds); }

  /// Seconds until expiry (negative once expired); +inf when unarmed.
  double remaining_seconds() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    if (expired_at_arm_) return 0.0;
    return std::chrono::duration<double>(deadline_ - Clock::now()).count();
  }

 private:
  /// `from` plus `seconds` (truncated to the clock's resolution),
  /// saturating at the end of the clock's range: a deadline beyond it
  /// (e.g. 1e12 s or +inf) never expires instead of overflowing into the
  /// past.
  static Clock::time_point after(Clock::time_point from, double seconds) {
    const Clock::duration room = Clock::time_point::max() - from;
    if (!(std::chrono::duration<double>(seconds) < room))
      return Clock::time_point::max();
    const auto step = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    return step < room ? from + step : Clock::time_point::max();
  }

  Clock::time_point deadline_{};
  bool armed_ = false;
  bool expired_at_arm_ = false;  ///< written with armed_, read-only after
};

/// Cooperative suspend/resume rendezvous of one running query. One side
/// (the pool's admission scheduler) requests the park and later resumes
/// it; the other (the query, on its serving thread) polls park_requested()
/// from slice-boundary checkpoints and, at a safe point, calls park() to
/// block until resume(). One query, one parker: park() must never be
/// reentered or called from two threads (the serving layer runs one query
/// per serving thread, so the slice loop's single park() call satisfies
/// this by construction).
///
/// The request is advisory and best-effort: a query that completes without
/// ever reaching a checkpoint simply finishes, and the requester must not
/// block on the park happening — it learns about an acknowledged park only
/// through the on_parked callback.
class ParkGate {
 public:
  using Callback = std::function<void()>;

  /// `on_parked` runs on the query's thread inside park(), after the query
  /// committed to suspending and before it blocks. The pool uses it to
  /// give the admission slot back; it must not call back into this gate
  /// from the same stack (resume() from *another* thread is fine and may
  /// even land before park() starts waiting — the wakeup is latched).
  explicit ParkGate(Callback on_parked = {})
      : on_parked_(std::move(on_parked)) {}
  ParkGate(const ParkGate&) = delete;
  ParkGate& operator=(const ParkGate&) = delete;

  /// Asks the query to suspend at its next checkpoint. Any thread.
  void request_park() { requested_.store(true, std::memory_order_release); }

  /// Cheap acquire-load; poll from slice-boundary checkpoints.
  bool park_requested() const {
    return requested_.load(std::memory_order_acquire);
  }

  /// Acknowledges the request: runs on_parked, blocks until resume(), and
  /// returns the seconds spent suspended (for budget-clock crediting).
  /// Clears the request on wakeup, so the gate is reusable for the next
  /// park cycle of the same query.
  double park() {
    const auto t0 = std::chrono::steady_clock::now();
    if (on_parked_) on_parked_();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      resumed_cv_.wait(lock, [&] { return resumed_; });
      resumed_ = false;  // consume the latched wakeup
    }
    requested_.store(false, std::memory_order_release);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Releases a parked query (or pre-latches the wakeup when the query has
  /// not reached park() yet, so the park returns immediately). Any thread.
  void resume() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      resumed_ = true;
    }
    resumed_cv_.notify_all();
  }

 private:
  std::atomic<bool> requested_{false};
  std::mutex mutex_;
  std::condition_variable resumed_cv_;
  bool resumed_ = false;  // guarded by mutex_
  Callback on_parked_;
};

}  // namespace ppsi::support
