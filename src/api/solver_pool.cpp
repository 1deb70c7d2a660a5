#include "api/solver_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/dynamic.hpp"
#include "support/arena.hpp"
#include "support/scheduler.hpp"
#include "support/types.hpp"

namespace ppsi {

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kBulk: return "bulk";
    case Priority::kNormal: return "normal";
    case Priority::kInteractive: return "interactive";
  }
  return "unknown";
}

Status validate(const Admission& admission) {
  switch (admission.priority) {
    case Priority::kBulk:
    case Priority::kNormal:
    case Priority::kInteractive:
      break;
    default:
      return Status::InvalidOptions("Admission::priority: unknown class");
  }
  if (!(admission.deadline_seconds >= 0) ||
      !std::isfinite(admission.deadline_seconds))
    return Status::InvalidOptions(
        "Admission::deadline_seconds must be non-negative and finite "
        "(0 disables shedding)");
  if (!(admission.tenant_weight > 0) || !std::isfinite(admission.tenant_weight))
    return Status::InvalidOptions(
        "Admission::tenant_weight must be positive and finite");
  if (!(admission.retry_backoff_seconds >= 0) ||
      !std::isfinite(admission.retry_backoff_seconds))
    return Status::InvalidOptions(
        "Admission::retry_backoff_seconds must be non-negative and finite");
  return Status::Ok();
}

namespace {

/// One queued query, type-erased. `run` executes the query (or, when its
/// token was cancelled while queued, builds the kCancelled short-circuit)
/// outside the pool mutex and returns the outcome; `publish` then fulfills
/// the PendingResult and is called *under* the pool mutex after the
/// counters update, so a consumer that observed a ready handle also
/// observes consistent PoolStats. `shed_publish` is the zero-work kShed
/// completion (also called under the mutex); `cancel` flips the token and
/// `cancelled` reads it.
struct Job {
  struct Outcome {
    std::function<void()> publish;
    bool ran = false;  ///< false: skipped at admission (cancelled queued)
    std::uint64_t work = 0;  ///< accounted work units (fair-share charge)
    /// Attempts that resolved to kInternal/kResourceExhausted (PoolStats::
    /// contained), re-executions performed (PoolStats::retried), and
    /// whether the *final* result is such a failure (PoolStats::failed).
    std::uint64_t contained = 0;
    std::uint64_t retried = 0;
    bool failed = false;
  };
  std::function<Outcome(support::ParkGate*)> run;
  std::function<void()> shed_publish;
  /// kResourceExhausted completion for a bulk query shed over the pool's
  /// memory high watermark (empty value, zero work; under the mutex like
  /// shed_publish).
  std::function<void()> memory_shed_publish;
  std::function<void()> cancel;
  std::function<bool()> cancelled;
};

/// A queued query plus its admission metadata (the policy engine's view).
struct Queued {
  Job job;
  TargetId tenant = 0;
  Priority priority = Priority::kNormal;
  double weight = 1.0;
  std::uint64_t seq = 0;  ///< submission order (FIFO tiebreak)
  /// Armed at submission when the admission has a deadline: the EDF key,
  /// shed once expired.
  support::DeadlineClock deadline;
};

/// One running (or parked) query's bookkeeping. The gate outlives the
/// record's residence in either list via shared_ptr: the serving thread
/// holds one ref for the duration of the query.
struct Running {
  std::uint64_t seq = 0;
  TargetId tenant = 0;
  Priority priority = Priority::kNormal;
  double weight = 1.0;
  std::shared_ptr<support::ParkGate> gate;
  bool park_requested = false;  ///< requested, not yet acknowledged
};

/// Already-resolved rejection handle.
template <typename T>
PendingResult<T> rejected(Status status) {
  auto shared = std::make_shared<detail::PendingShared<T>>();
  shared->set(Result<T>(std::move(status)));
  return PendingResult<T>(std::move(shared));
}

Status unknown_target() {
  return Status::InvalidOptions("SolverPool: unknown TargetId");
}

template <typename T>
constexpr Query::Kind kind_of();
template <>
constexpr Query::Kind kind_of<cover::DecisionResult>() {
  return Query::Kind::kFind;
}
template <>
constexpr Query::Kind kind_of<cover::ListingResult>() {
  return Query::Kind::kList;
}
template <>
constexpr Query::Kind kind_of<cover::CountResult>() {
  return Query::Kind::kCount;
}

}  // namespace

struct SolverPool::Impl {
  PoolOptions options;

  mutable std::mutex mutex;
  std::condition_variable drained;
  std::vector<std::unique_ptr<Solver>> targets;  // stable shard addresses
  std::deque<Queued> queue;
  std::vector<std::shared_ptr<Running>> running_list;
  std::vector<std::shared_ptr<Running>> parked_list;
  std::uint32_t running = 0;
  bool shutting_down = false;
  std::uint64_t next_seq = 0;
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled_before_start = 0;
  std::uint64_t shed = 0;
  std::uint64_t park_events = 0;
  std::uint64_t contained_count = 0;
  std::uint64_t retried_count = 0;
  std::uint64_t failed_count = 0;
  /// Per-tenant cumulative fair-share charge (accounted work / weight),
  /// indexed by TargetId. Grows with targets.
  std::vector<double> tenant_charge;

  bool priority_policy() const {
    return options.policy == AdmissionPolicy::kPriority;
  }

  /// Outstanding parks (acknowledged + requested). Capped below
  /// serving_threads(): every parked query occupies a blocked serving
  /// thread, so at least one thread must stay unparkable or the dispatched
  /// waiters could find no thread to run on.
  std::size_t parks_outstanding() const {
    std::size_t requested = 0;
    for (const auto& r : running_list)
      if (r->park_requested) ++requested;
    return parked_list.size() + requested;
  }
  std::size_t park_cap() const {
    const std::size_t threads = support::Scheduler::serving_threads();
    return threads > 1 ? threads - 1 : 0;
  }

  /// Picks the next queued query under the active policy. Caller holds
  /// `mutex`; the queue is non-empty. kPriority order: class desc, tenant
  /// charge asc, EDF (deadline-less last), seq asc. kFifo: seq asc.
  std::size_t pick_locked() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      const Queued& a = queue[i];
      const Queued& b = queue[best];
      if (options.policy == AdmissionPolicy::kFifo) {
        if (a.seq < b.seq) best = i;
        continue;
      }
      if (a.priority != b.priority) {
        if (static_cast<int>(a.priority) > static_cast<int>(b.priority))
          best = i;
        continue;
      }
      const double charge_a = tenant_charge[a.tenant];
      const double charge_b = tenant_charge[b.tenant];
      if (charge_a != charge_b) {
        if (charge_a < charge_b) best = i;
        continue;
      }
      if (a.deadline.armed() != b.deadline.armed()) {
        if (a.deadline.armed()) best = i;  // deadlined before open-ended
        continue;
      }
      if (a.deadline.armed() &&
          a.deadline.expires_at() != b.deadline.expires_at()) {
        if (a.deadline.expires_at() < b.deadline.expires_at()) best = i;
        continue;
      }
      if (a.seq < b.seq) best = i;
    }
    return best;
  }

  /// The best queued priority, or nullopt on an empty queue. Skips
  /// cancelled entries (they dispatch as zero-work skips regardless of
  /// class, so they must not trigger parks).
  int best_queued_class_locked() const {
    int best = -1;
    for (const Queued& q : queue) {
      if (q.job.cancelled()) continue;
      best = std::max(best, static_cast<int>(q.priority));
    }
    return best;
  }

  /// Sheds every queued query whose admission deadline has passed (and
  /// whose token is not cancelled — cancellation outranks shedding and
  /// resolves through the normal skip path). Caller holds `mutex`.
  /// Publishing under the mutex follows the same discipline as dispatch
  /// completion: counters first, then the handle, then the cv.
  void shed_expired_locked() {
    if (!priority_policy() || shutting_down) return;
    for (std::size_t i = 0; i < queue.size();) {
      Queued& q = queue[i];
      if (!q.deadline.expired() || q.job.cancelled()) {
        ++i;
        continue;
      }
      Job::Outcome outcome{q.job.shed_publish, false, 0};
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
      ++started;
      ++shed;
      outcome.publish();
      drained.notify_all();
    }
  }

  /// Memory governance: while the process-wide tracked scratch residency
  /// sits above the configured high watermark, queued kBulk queries are
  /// shed to kResourceExhausted (empty value, zero work) instead of being
  /// admitted — bulk admissions are the load the pool can refuse without
  /// breaking interactive traffic. Cancellation outranks the shed (the
  /// normal skip path reports kCancelled). Caller holds `mutex`.
  void shed_over_memory_locked() {
    if (!priority_policy() || shutting_down) return;
    const std::uint64_t watermark = options.memory_high_watermark_bytes;
    if (watermark == 0) return;
    if (support::scratch_residency_bytes() <= watermark) return;
    for (std::size_t i = 0; i < queue.size();) {
      Queued& q = queue[i];
      if (q.priority != Priority::kBulk || q.job.cancelled()) {
        ++i;
        continue;
      }
      Job::Outcome outcome{q.job.memory_shed_publish, false, 0};
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
      ++started;
      ++shed;
      ++contained_count;
      ++failed_count;
      outcome.publish();
      drained.notify_all();
    }
  }

  /// Requests a park on the lowest-class running victim when a strictly
  /// higher class waits and every slot is busy. Caller holds `mutex`.
  void maybe_request_park_locked() {
    if (!priority_policy() || shutting_down) return;
    if (running < options.max_concurrent) return;  // a slot will free anyway
    const int waiter = best_queued_class_locked();
    if (waiter < 0) return;
    if (parks_outstanding() >= park_cap()) return;
    // Victim: strictly lower class than the waiter; lowest class first,
    // then the most recently admitted (least sunk work to suspend).
    std::shared_ptr<Running> victim;
    for (const auto& r : running_list) {
      if (r->park_requested) continue;
      if (static_cast<int>(r->priority) >= waiter) continue;
      if (!victim || static_cast<int>(r->priority) <
                         static_cast<int>(victim->priority) ||
          (r->priority == victim->priority && r->seq > victim->seq))
        victim = r;
    }
    if (!victim) return;
    victim->park_requested = true;
    victim->gate->request_park();
  }

  /// A parked query's slice loop acknowledged the park (runs on the
  /// query's serving thread, inside ParkGate::park, before it blocks):
  /// give the admission slot back and fill it.
  void on_parked(const std::shared_ptr<Running>& record) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto it =
        std::find(running_list.begin(), running_list.end(), record);
    support::require(it != running_list.end(),
                     "SolverPool: parked query not in running list");
    running_list.erase(it);
    record->park_requested = false;
    parked_list.push_back(record);
    --running;
    ++park_events;
    dispatch_locked();
    // ~SolverPool waits for parked queries too (it resumes them first, but
    // the resume/park handshake may interleave with shutdown).
    drained.notify_all();
  }

  /// Resumes the best parked query (running slot already reserved by the
  /// caller). Caller holds `mutex`.
  void resume_locked(std::size_t parked_index) {
    std::shared_ptr<Running> record = parked_list[parked_index];
    parked_list.erase(parked_list.begin() +
                      static_cast<std::ptrdiff_t>(parked_index));
    running_list.push_back(record);
    ++running;
    record->gate->resume();
  }

  /// Admits work up to max_concurrent: sheds expired entries, then fills
  /// free slots from {queued, parked}, preferring the higher class and —
  /// on class ties — the parked query (it holds partial state and a
  /// serving thread; finishing it releases both). Caller holds `mutex`.
  /// Scheduler::submit only enqueues (it never runs the job inline), so
  /// holding the pool mutex across it cannot deadlock.
  void dispatch_locked() {
    shed_expired_locked();
    shed_over_memory_locked();
    while (running < options.max_concurrent &&
           (!queue.empty() || !parked_list.empty())) {
      // Best parked candidate (shutdown resumes them unconditionally).
      std::size_t parked_best = parked_list.size();
      for (std::size_t i = 0; i < parked_list.size(); ++i) {
        if (parked_best == parked_list.size() ||
            static_cast<int>(parked_list[i]->priority) >
                static_cast<int>(parked_list[parked_best]->priority))
          parked_best = i;
      }
      if (!queue.empty()) {
        const std::size_t qi = pick_locked();
        const bool parked_wins =
            parked_best < parked_list.size() &&
            (shutting_down ||
             !priority_policy() ||
             static_cast<int>(parked_list[parked_best]->priority) >=
                 static_cast<int>(queue[qi].priority));
        if (!parked_wins) {
          dispatch_queued_locked(qi);
          continue;
        }
      }
      if (parked_best < parked_list.size()) {
        resume_locked(parked_best);
        continue;
      }
      break;  // queue empty, nothing parked
    }
    // Slots full with a higher-class waiter still queued: try to park.
    maybe_request_park_locked();
  }

  /// Moves queue[index] into a running slot and hands it to the serving
  /// threads. Caller holds `mutex` and has checked the slot bound.
  void dispatch_queued_locked(std::size_t index) {
    Queued entry = std::move(queue[index]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
    ++running;
    ++started;
    auto record = std::make_shared<Running>();
    record->seq = entry.seq;
    record->tenant = entry.tenant;
    record->priority = entry.priority;
    record->weight = entry.weight;
    // weak_ptr: the gate lives inside the record, so a strong capture
    // would cycle and leak both. The serving closure below keeps the
    // record alive for as long as the gate can possibly fire.
    std::weak_ptr<Running> weak = record;
    record->gate = std::make_shared<support::ParkGate>([this, weak] {
      if (auto rec = weak.lock()) on_parked(rec);
    });
    running_list.push_back(record);
    support::Scheduler::submit(
        [this, record, job = std::move(entry.job)] {
          Job::Outcome outcome = job.run(record->gate.get());
          const std::lock_guard<std::mutex> lock(mutex);
          const auto it =
              std::find(running_list.begin(), running_list.end(), record);
          support::require(it != running_list.end(),
                           "SolverPool: completed query not in running list");
          running_list.erase(it);
          --running;
          contained_count += outcome.contained;
          retried_count += outcome.retried;
          if (outcome.failed) ++failed_count;
          if (outcome.ran) {
            ++completed;
            // Deficit round-robin charge: accounted work at 1/weight.
            // Skipped/shed queries charge nothing by construction.
            tenant_charge[record->tenant] +=
                static_cast<double>(outcome.work) / record->weight;
          } else {
            ++cancelled_before_start;
          }
          dispatch_locked();
          // Publish after the counters, still under the mutex: once a
          // consumer sees the handle ready, stats() reflects the query,
          // and ~SolverPool cannot return before a running query's result
          // is visible. (Lock order is pool mutex -> PendingShared mutex;
          // consumers never take them in the other order.)
          outcome.publish();
          // Notify under the mutex too: ~SolverPool destroys this Impl as
          // soon as its predicate holds, so the notify must not straddle
          // the unlock (the cv would die under it).
          drained.notify_all();
        },
        static_cast<int>(entry.priority));
  }

  /// Enqueues one query. `query` receives the handle's CancelToken plus
  /// the dispatch-time ParkGate and returns the finished Result<T>.
  template <typename T, typename QueryFn>
  PendingResult<T> enqueue(TargetId tenant, const Admission& admission,
                           QueryFn query) {
    auto shared = std::make_shared<detail::PendingShared<T>>();
    Queued entry;
    entry.tenant = tenant;
    entry.priority = admission.priority;
    entry.weight = admission.tenant_weight;
    // A sub-tick deadline sheds deterministically (DeadlineClock's
    // expired-at-arm rule); one beyond the clock's range never sheds.
    if (admission.deadline_seconds > 0)
      entry.deadline.arm(admission.deadline_seconds);
    entry.job.cancel = [shared] { shared->token.cancel(); };
    entry.job.cancelled = [shared] { return shared->token.cancelled(); };
    entry.job.shed_publish = [shared] {
      shared->set(Result<T>(
          Status(StatusCode::kShed,
                 "Admission::deadline_seconds passed while queued; the query "
                 "was shed without doing work"),
          T{}));
    };
    entry.job.memory_shed_publish = [shared] {
      shared->set(Result<T>(
          Status::ResourceExhausted(
              "pool scratch residency above "
              "PoolOptions::memory_high_watermark_bytes; bulk query shed "
              "without doing work"),
          T{}));
    };
    entry.job.run = [shared, query = std::move(query),
                     max_retries = admission.max_retries,
                     backoff = admission.retry_backoff_seconds](
                        support::ParkGate* gate) -> Job::Outcome {
      if (shared->token.cancelled()) {
        Result<T> skipped(
            Status(StatusCode::kCancelled,
                   "query cancelled before admission; no work was done"),
            T{});
        return {[shared, skipped = std::move(skipped)]() mutable {
                  shared->set(std::move(skipped));
                },
                false, 0};
      }
      const auto transient = [](const Status& status) {
        return status.code() == StatusCode::kInternal ||
               status.code() == StatusCode::kResourceExhausted;
      };
      // Backstop containment: the Solver queries contain their own
      // failures, but the handle must resolve even if something escapes
      // (or a result move throws) — an unresolved PendingResult deadlocks
      // its waiter and ~SolverPool.
      const auto attempt = [&]() -> Result<T> {
        try {
          return query(shared->token, gate);
        } catch (...) {
          return Result<T>(contained_status(), T{});
        }
      };
      Job::Outcome outcome;
      Result<T> result = attempt();
      // Transparent retry (Admission::max_retries): transient failures
      // re-execute in the same admission slot after an exponential
      // backoff. Deterministic results make this sound: a retried query
      // re-runs against the same pinned version with the same seed, so a
      // successful retry is bit-identical to a fault-free run. Work is
      // accounted from the final attempt only.
      double sleep_seconds = backoff;
      for (std::uint32_t r = 0; r < max_retries &&
                                transient(result.status()) &&
                                !shared->token.cancelled();
           ++r) {
        ++outcome.contained;
        if (sleep_seconds > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(sleep_seconds));
          sleep_seconds *= 2;
        }
        ++outcome.retried;
        result = attempt();
      }
      if (transient(result.status())) {
        ++outcome.contained;
        outcome.failed = true;
      }
      outcome.ran = true;
      outcome.work = result.has_value() ? result->metrics.work() : 0;
      outcome.publish = [shared, result = std::move(result)]() mutable {
        shared->set(std::move(result));
      };
      return outcome;
    };
    {
      const std::lock_guard<std::mutex> lock(mutex);
      // During shutdown new queries short-circuit like queued ones.
      if (shutting_down) entry.job.cancel();
      entry.seq = next_seq++;
      ++submitted;
      queue.push_back(std::move(entry));
      dispatch_locked();
    }
    return PendingResult<T>(std::move(shared));
  }

  TargetId add(std::unique_ptr<Solver> solver) {
    solver->set_cache_capacity(options.cache_capacity_per_target);
    const std::lock_guard<std::mutex> lock(mutex);
    targets.push_back(std::move(solver));
    tenant_charge.push_back(0.0);
    return static_cast<TargetId>(targets.size() - 1);
  }

  Solver* shard(TargetId id) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (id >= targets.size()) return nullptr;
    return targets[id].get();
  }
};

SolverPool::SolverPool(PoolOptions options)
    : impl_(std::make_unique<Impl>()) {
  support::require(options.max_concurrent > 0,
                   "SolverPool: max_concurrent must be positive");
  impl_->options = options;
}

SolverPool::~SolverPool() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->shutting_down = true;
  // Queued queries resolve to kCancelled at admission; running ones finish
  // (their owners may still be waiting on the results); parked ones resume
  // into free slots as the running ones drain (dispatch_locked resumes
  // unconditionally during shutdown).
  for (Queued& entry : impl_->queue) entry.job.cancel();
  impl_->dispatch_locked();
  impl_->drained.wait(lock, [&] {
    return impl_->running == 0 && impl_->queue.empty() &&
           impl_->parked_list.empty();
  });
}

TargetId SolverPool::add_target(Graph target) {
  return impl_->add(std::make_unique<Solver>(std::move(target)));
}

TargetId SolverPool::add_target(planar::EmbeddedGraph target) {
  return impl_->add(std::make_unique<Solver>(std::move(target)));
}

std::size_t SolverPool::num_targets() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->targets.size();
}

Solver& SolverPool::solver(TargetId id) {
  Solver* shard = impl_->shard(id);
  support::require(shard != nullptr, "SolverPool::solver: unknown TargetId");
  return *shard;
}

TargetVersion SolverPool::current_version(TargetId id) {
  return solver(id).current_version();
}

Result<TargetVersion> SolverPool::apply(TargetId id,
                                        const EditScript& script) {
  Solver* shard = impl_->shard(id);
  if (shard == nullptr) return Result<TargetVersion>(unknown_target());
  return shard->apply(script);
}

MutableTarget SolverPool::mutate(TargetId id) { return solver(id).mutate(); }

Result<TargetVersion> SolverPool::insert_edge(TargetId id, Vertex u,
                                              Vertex v) {
  Solver* shard = impl_->shard(id);
  if (shard == nullptr) return Result<TargetVersion>(unknown_target());
  return shard->insert_edge(u, v);
}

Result<TargetVersion> SolverPool::remove_edge(TargetId id, Vertex u,
                                              Vertex v) {
  Solver* shard = impl_->shard(id);
  if (shard == nullptr) return Result<TargetVersion>(unknown_target());
  return shard->remove_edge(u, v);
}

Result<TargetVersion> SolverPool::insert_vertex(TargetId id) {
  Solver* shard = impl_->shard(id);
  if (shard == nullptr) return Result<TargetVersion>(unknown_target());
  return shard->insert_vertex();
}

template <typename T>
PendingResult<T> SolverPool::submit(TargetId id, Query query,
                                    const Admission& admission) {
  Solver* shard = impl_->shard(id);
  if (shard == nullptr) return rejected<T>(unknown_target());
  if (Status status = ppsi::validate(admission); !status.ok())
    return rejected<T>(std::move(status));
  if (query.kind != kind_of<T>())
    return rejected<T>(Status::InvalidOptions(
        "SolverPool::submit: Query kind does not match the requested "
        "result type"));
  // Pin the target version *now*, not at dispatch: an edit that commits
  // while this query waits in the admission queue (or while it is parked)
  // must not change what it sees. The closure holds the pin, so the
  // version cannot be reclaimed before the query runs.
  const TargetVersion pinned = query.options.at != nullptr
                                   ? *query.options.at
                                   : shard->current_version();
  return impl_->enqueue<T>(
      id, admission,
      [shard, pinned, query = std::move(query)](
          const support::CancelToken& token, support::ParkGate* gate) {
        QueryOptions opts = query.options;
        opts.cancel = &token;
        opts.park = gate;
        opts.at = &pinned;
        if constexpr (std::is_same_v<T, cover::DecisionResult>) {
          return shard->find(query.pattern, opts);
        } else if constexpr (std::is_same_v<T, cover::ListingResult>) {
          return shard->list(query.pattern, opts);
        } else {
          return shard->count(query.pattern, opts);
        }
      });
}

template PendingResult<cover::DecisionResult> SolverPool::submit(
    TargetId, Query, const Admission&);
template PendingResult<cover::ListingResult> SolverPool::submit(
    TargetId, Query, const Admission&);
template PendingResult<cover::CountResult> SolverPool::submit(
    TargetId, Query, const Admission&);

PendingResult<cover::DecisionResult> SolverPool::find_async(
    TargetId id, iso::Pattern pattern, const QueryOptions& options,
    const Admission& admission) {
  return submit<cover::DecisionResult>(
      id, Query::Find(std::move(pattern), options), admission);
}

PendingResult<cover::ListingResult> SolverPool::list_async(
    TargetId id, iso::Pattern pattern, const QueryOptions& options,
    const Admission& admission) {
  return submit<cover::ListingResult>(
      id, Query::List(std::move(pattern), options), admission);
}

PendingResult<cover::CountResult> SolverPool::count_async(
    TargetId id, iso::Pattern pattern, const QueryOptions& options,
    const Admission& admission) {
  return submit<cover::CountResult>(
      id, Query::Count(std::move(pattern), options), admission);
}

PoolStats SolverPool::stats() const {
  PoolStats stats;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  stats.submitted = impl_->submitted;
  stats.started = impl_->started;
  stats.completed = impl_->completed;
  stats.cancelled_before_start = impl_->cancelled_before_start;
  stats.shed = impl_->shed;
  stats.queued = impl_->queue.size();
  stats.running = impl_->running;
  stats.parked = impl_->parked_list.size();
  stats.park_events = impl_->park_events;
  stats.contained = impl_->contained_count;
  stats.retried = impl_->retried_count;
  stats.failed = impl_->failed_count;
  return stats;
}

}  // namespace ppsi
