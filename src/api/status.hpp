#pragma once

// Unified error model of the ppsi::Solver query API.
//
// Queries return Result<T>: a Status plus, when one exists, a value. Errors
// come in two flavours:
//   * rejections (invalid options / pattern, unsupported query) carry no
//     value — nothing was computed;
//   * interruptions (listing cap, work budget, deadline, cancellation)
//     carry the partial result computed so far, so callers can decide
//     whether a truncated answer is still useful.
// Every blocking query funnels through one skeleton (validate, input
// checks, version pin, budget entry check, one containment boundary), so
// the taxonomy below applies uniformly.

#include <optional>
#include <string>
#include <utility>

namespace ppsi {

enum class StatusCode {
  kOk = 0,
  /// QueryOptions (or an Admission) failed validation.
  kInvalidOptions,
  /// The pattern is unusable for this query (e.g. disconnected pattern
  /// passed to a connected-only driver, or larger than kMaxPatternSize).
  kInvalidPattern,
  /// The query needs state this Solver does not have (e.g.
  /// vertex_connectivity on a Solver built without an embedding).
  kUnsupported,
  /// Listing stopped at QueryOptions::list_limit; the value holds the
  /// (possibly incomplete) occurrences found so far.
  kListLimitReached,
  /// QueryOptions::max_work instrumented-work budget exhausted; the value
  /// holds the partial result.
  kWorkBudgetExceeded,
  /// QueryOptions::deadline_seconds wall-clock budget exhausted; the value
  /// holds the partial result.
  kDeadlineExceeded,
  /// The query was cancelled through its CancelToken (QueryOptions::cancel
  /// or PendingResult::cancel()); the value holds the partial result.
  kCancelled,
  /// Load shedding: the query's Admission::deadline_seconds had already
  /// passed when the serving layer would have started it, so it completed
  /// immediately with an empty value and zero accounted work instead of
  /// being admitted. Only SolverPool queries can shed.
  kShed,
  /// An exception escaped the query's execution (an internal invariant
  /// fired, or a fault was injected) and was contained at the query
  /// boundary: the value holds the partial result accounted before the
  /// failure, the owning Solver stays consistent and queryable, and
  /// SolverPool may transparently retry (Admission::max_retries).
  kInternal,
  /// A resource limit was hit: an allocation failed during execution, the
  /// query's QueryOptions::max_memory_bytes soft limit tripped, or the
  /// pool shed a bulk query over PoolOptions::memory_high_watermark_bytes.
  /// Carries the partial result (empty for a pool memory shed). Retryable
  /// like kInternal.
  kResourceExhausted,
  /// Graph IO (io::try_read_*) rejected hostile or malformed input:
  /// truncated/garbage lines, overflow-sized counts, out-of-range
  /// endpoints, self-loops, duplicate edges. Never carries a value.
  kMalformedInput,
  /// Default-constructed Result placeholder; never returned by a query.
  kEmpty,
};

const char* to_string(StatusCode code);

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return {}; }
  static Status InvalidOptions(std::string message) {
    return {StatusCode::kInvalidOptions, std::move(message)};
  }
  static Status InvalidPattern(std::string message) {
    return {StatusCode::kInvalidPattern, std::move(message)};
  }
  static Status Unsupported(std::string message) {
    return {StatusCode::kUnsupported, std::move(message)};
  }
  static Status Internal(std::string message) {
    return {StatusCode::kInternal, std::move(message)};
  }
  static Status ResourceExhausted(std::string message) {
    return {StatusCode::kResourceExhausted, std::move(message)};
  }
  static Status MalformedInput(std::string message) {
    return {StatusCode::kMalformedInput, std::move(message)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// "<code>: <message>" for logs and test failure output.
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Maps the currently-handled exception to the containment Status:
/// std::bad_alloc -> kResourceExhausted, anything else -> kInternal (the
/// message carries e.what(), e.g. an InjectedFault's point name). Must be
/// called from inside a catch block; every thread-boundary containment
/// site (Solver queries, find_batch, SolverPool jobs) funnels
/// through it so the status taxonomy stays uniform.
Status contained_status();

/// A Status plus, when available, a value of type T. An ok() Result always
/// has a value; an interrupted query (limit / budget / deadline) has a
/// non-ok status AND a partial value; a rejected query has neither.
template <typename T>
class Result {
 public:
  /// Placeholder state (status kEmpty); overwritten before use, e.g. by
  /// find_batch filling a pre-sized vector.
  Result() : status_(StatusCode::kEmpty, "empty result") {}
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT
  Result(Status status, T partial)
      : status_(std::move(status)), value_(std::move(partial)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  bool has_value() const { return value_.has_value(); }

  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }
  const T& operator*() const { return *value_; }
  T& operator*() { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace ppsi
