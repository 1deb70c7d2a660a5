#pragma once

// PendingResult<T> — the future-like handle of one asynchronous query.
//
// SolverPool::submit and its find_async / list_async / count_async
// wrappers return one immediately; the query itself runs detached on
// the shared serving pool (support::Scheduler::submit) and fulfills the
// handle exactly once. The handle owns the query's CancelToken, so
// cancel() is always safe:
//   * before the query starts: it returns kCancelled without doing work,
//   * mid-query: the cooperative checkpoints preempt it mid-cover and it
//     returns kCancelled carrying the partial result accounted so far,
//   * after completion: a no-op — the stored result is never overwritten.
// Handles share state (shallow copies observe the same result), and the
// state outlives both producer and consumer via shared_ptr, so dropping a
// handle without get() leaks nothing and blocks nobody.

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "api/status.hpp"
#include "support/cancel.hpp"

namespace ppsi {

namespace detail {

/// Producer/consumer rendezvous of one async query. The producer calls
/// set() exactly once; consumers wait on the condition variable. The
/// mutex+cv pair carries the publication edge, so get()'s reference is
/// safe to read lock-free afterwards (nothing writes again).
template <typename T>
struct PendingShared {
  std::mutex mutex;
  std::condition_variable ready;
  std::optional<Result<T>> result;
  support::CancelToken token;

  void set(Result<T> value) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      result.emplace(std::move(value));
    }
    ready.notify_all();
  }
};

}  // namespace detail

template <typename T>
class PendingResult {
 public:
  /// Invalid handle (valid() == false); every SolverPool submission
  /// returns a valid one.
  PendingResult() = default;
  explicit PendingResult(std::shared_ptr<detail::PendingShared<T>> shared)
      : shared_(std::move(shared)) {}

  bool valid() const { return shared_ != nullptr; }

  /// True once the result is available (get() will not block).
  bool ready() const {
    const std::lock_guard<std::mutex> lock(shared_->mutex);
    return shared_->result.has_value();
  }

  /// Blocks until the result is available.
  void wait() const {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    shared_->ready.wait(lock, [&] { return shared_->result.has_value(); });
  }

  /// Blocks up to `seconds`; true when the result became available.
  bool wait_for(double seconds) const {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    return shared_->ready.wait_for(
        lock, std::chrono::duration<double>(seconds),
        [&] { return shared_->result.has_value(); });
  }

  /// Requests cooperative cancellation (see the header comment). Never
  /// blocks; safe in every state.
  void cancel() { shared_->token.cancel(); }

  /// Waits and returns the result. The reference stays valid as long as
  /// any handle to this query lives.
  const Result<T>& get() const {
    wait();
    return *shared_->result;
  }

  /// Waits and moves the result out (call at most once across handles).
  Result<T> take() {
    wait();
    return std::move(*shared_->result);
  }

 private:
  std::shared_ptr<detail::PendingShared<T>> shared_;
};

}  // namespace ppsi
