#pragma once

// Budget — the work/deadline/cancellation envelope of one Solver query.
//
// Constructed once per query from its QueryOptions, then consulted from two
// kinds of checkpoint:
//   * coarse: Budget::check between cover runs / listing iterations (and
//     once at query entry, so a pre-cancelled token or pre-expired deadline
//     never starts work), mapping each exhausted resource to its status;
//   * fine: the armed DeadlineClock and the CancelToken are threaded into
//     every slice/path CancelScope and the per-node DP loops, so a deadline
//     or cancellation preempts *mid-cover* instead of overshooting by up to
//     one full cover run (the work budget stays coarse by design: work is
//     only known after the deterministic replay accounts it).
//
// Forwarding to sub-queries (find_disconnected components,
// vertex_connectivity probes, both through Budget::forward) must respect
// the option sentinels: both `max_work = 0` and `deadline_seconds = 0`
// mean "unlimited", so an exhausted budget forwards the smallest
// *positive* remainder (1 unit of work / 1 ns) instead of rounding to the
// sentinel and granting the sub-query unlimited room. Pinned by the Budget
// tests in tests/test_solver.cpp. Lives in a header (not solver.cpp)
// precisely so those boundary semantics stay unit-testable.
//
// Serving-layer extras: the budget also carries the query's ParkGate
// (cooperative suspend/resume at slice boundaries) and can credit parked
// time back to the deadline clock — suspension pauses the wall-clock
// budget instead of silently consuming it.

#include <cstdint>

#include "api/solver.hpp"
#include "api/status.hpp"
#include "support/arena.hpp"
#include "support/cancel.hpp"
#include "support/metrics.hpp"

namespace ppsi {

class Budget {
 public:
  explicit Budget(const QueryOptions& options)
      : max_work_(options.max_work),
        max_memory_(options.max_memory_bytes),
        token_(options.cancel),
        park_(options.park) {
    if (options.deadline_seconds > 0) deadline_.arm(options.deadline_seconds);
  }
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Cancellation outranks the work budget outranks the memory budget
  /// outranks the deadline (a cancelled query reports kCancelled even if
  /// its deadline also passed while it wound down). The work bound is
  /// exclusive: spending exactly max_work is within budget. The memory
  /// bound compares the process-wide tracked scratch residency (see
  /// QueryOptions::max_memory_bytes for the softness caveats).
  Status check(const support::Metrics& spent) const {
    if (token_ != nullptr && token_->cancelled())
      return {StatusCode::kCancelled,
              "query cancelled through its CancelToken"};
    if (max_work_ > 0 && spent.work() > max_work_)
      return {StatusCode::kWorkBudgetExceeded,
              "instrumented work exceeded QueryOptions::max_work"};
    if (max_memory_ > 0 && support::scratch_residency_bytes() > max_memory_)
      return {StatusCode::kResourceExhausted,
              "scratch residency exceeded QueryOptions::max_memory_bytes"};
    if (deadline_.expired())
      return {StatusCode::kDeadlineExceeded,
              "wall clock exceeded QueryOptions::deadline_seconds"};
    return {};
  }

  /// Work budget left to forward to a sub-query (0 keeps the "unlimited"
  /// sentinel; an exhausted budget forwards 1 so the sub-query trips on
  /// its first check instead of running unbounded).
  std::uint64_t remaining_work(const support::Metrics& spent) const {
    if (max_work_ == 0) return 0;
    const std::uint64_t used = spent.work();
    return used >= max_work_ ? 1 : max_work_ - used;
  }

  /// Deadline left to forward to a sub-query (0 keeps "none"; clamped to a
  /// positive epsilon once expired — a remainder that rounded to 0 would
  /// collide with the "no deadline" sentinel and grant unlimited time).
  double remaining_seconds() const {
    if (!deadline_.armed()) return 0.0;
    const double left = deadline_.remaining_seconds();
    return left > 1e-9 ? left : 1e-9;
  }

  /// The options of a sub-query (find_disconnected components,
  /// vertex_connectivity probes): `options` with the work and deadline
  /// left after `spent`, against the sub-solver's own single version.
  QueryOptions forward(const QueryOptions& options,
                       const support::Metrics& spent) const {
    QueryOptions sub = options;
    sub.max_work = remaining_work(spent);
    sub.deadline_seconds = remaining_seconds();
    sub.at = nullptr;
    return sub;
  }

  /// The query's cancellation token (nullptr when it has none) and armed
  /// deadline (nullptr when none): what solve_all_slices threads into the
  /// slice/path/DP-node cancellation scopes for mid-cover preemption.
  const support::CancelToken* token() const { return token_; }
  const support::DeadlineClock* deadline() const {
    return deadline_.armed() ? &deadline_ : nullptr;
  }

  /// The serving layer's suspend/resume gate (nullptr for blocking
  /// queries): solve_all_slices polls it at slice boundaries and parks the
  /// whole query between slice rounds when the pool asked for the slot.
  support::ParkGate* park() const { return park_; }

  /// Credits `seconds` spent parked back to the execution deadline — the
  /// budget clock pauses while a query is suspended, so a parked query is
  /// not charged wall time it never had. No-op without an armed deadline.
  /// Called from the query's own thread right after its park() returns,
  /// while every checkpoint that could poll the clock is quiescent (the
  /// slice graph has drained; the next round has not started).
  void credit_parked(double seconds) const {
    if (deadline_.armed() && seconds > 0) deadline_.extend(seconds);
  }

 private:
  std::uint64_t max_work_;
  std::uint64_t max_memory_;
  const support::CancelToken* token_;
  support::ParkGate* park_ = nullptr;
  mutable support::DeadlineClock deadline_;  // mutable: credit_parked
};

}  // namespace ppsi
