#pragma once

// Admission — the query-class options of the asynchronous serving layer.
//
// One shared struct, accepted uniformly by every SolverPool submission,
// replacing ad-hoc per-call knobs. It describes how
// a query should be *scheduled*, never what it computes:
//   * priority  — strict-priority class (kInteractive > kNormal > kBulk);
//     a higher class dispatches before any lower one, and may park a
//     running bulk query at its next slice boundary to take its slot.
//   * deadline_seconds — queueing deadline, relative to submission. It
//     orders queries earliest-deadline-first within their class and sheds
//     those whose deadline already passed before execution could start
//     (StatusCode::kShed, empty value, zero accounted work). Distinct from
//     QueryOptions::deadline_seconds, which budgets *execution* and arms
//     when the query starts — an admitted query's results stay bit-identical
//     to its blocking run no matter how long it queued.
//   * tenant_weight — weighted fair share of the submitting tenant
//     (SolverPool tracks one tenant per TargetId); accounted work units are
//     charged at 1/weight, and dispatch favors the least-charged tenant
//     within a class.
// Defaults reproduce the old behavior: kNormal, no deadline, weight 1.

#include "api/status.hpp"

namespace ppsi {

/// Strict-priority admission classes, lowest first (the numeric order is
/// part of the contract: higher enumerator = dispatched earlier).
enum class Priority : int {
  kBulk = 0,
  kNormal = 1,
  kInteractive = 2,
};

const char* to_string(Priority priority);

struct Admission {
  Priority priority = Priority::kNormal;
  /// Queueing deadline relative to submission; 0 disables shedding and
  /// EDF ordering for this query (it sorts after every deadlined peer of
  /// its class). Must be non-negative and finite.
  double deadline_seconds = 0.0;
  /// Fair-share weight of the submitting tenant; must be positive and
  /// finite. A tenant with weight 2 is charged half as much per unit of
  /// accounted work as one with weight 1.
  double tenant_weight = 1.0;
  /// SolverPool only: re-execute the query up to this many extra times
  /// when an attempt resolves to a transient failure (kInternal or
  /// kResourceExhausted — contained exceptions, allocation failures,
  /// tripped memory budgets). Retries reuse the admission slot (no
  /// re-queueing); work is accounted from the final attempt only. A
  /// cancelled query is never retried. 0 (default) reports the first
  /// failure as-is.
  std::uint32_t max_retries = 0;
  /// Sleep before the first retry, in seconds, doubling per subsequent
  /// retry. Must be non-negative and finite; 0 retries immediately.
  double retry_backoff_seconds = 0.0;
};

/// Eager validation; every SolverPool submission calls this
/// before enqueueing (a rejected Admission resolves the handle to
/// kInvalidOptions immediately).
Status validate(const Admission& admission);

}  // namespace ppsi
