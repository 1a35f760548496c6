#include "serve/quantification_service.h"

#include <chrono>
#include <limits>
#include <utility>

#include <algorithm>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/quantification_batch.h"

namespace fairjob {
namespace {

// Deadline sentinel: "no deadline" compares later than any clock reading.
constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

// Queued waiters re-check the deadline on this cadence. Short enough that a
// virtual-clock advance is observed promptly in tests, long enough not to
// thrash the admission mutex under real load.
constexpr std::chrono::microseconds kAdmissionPoll{200};

struct ServeMetrics {
  Counter* requests;
  Counter* computations;
  Counter* coalesced;
  Counter* errors;
  Counter* batch_calls;
  Counter* batch_requests;
  Counter* batch_deduped;
  Counter* snapshot_flips;
  Counter* admitted;
  Counter* admission_rejected;
  Counter* shed_deadline;
  Counter* shed_followers;
  Counter* stale_hits;
  Counter* stale_refreshes;
  Counter* stale_ttl_expired;
  Counter* batch_windows;
  Counter* batch_parked;
  Counter* batch_window_shed;
  Counter* batch_exec_groups;
  Counter* batch_exec_lanes;
  Counter* batch_lists_gathered;
  Counter* batch_lists_demanded;
  Gauge* snapshot_version;
  Gauge* admission_queue_depth;
  LatencyHistogram* answer_us;
  LatencyHistogram* batch_us;
  LatencyHistogram* admission_wait_us;
  LatencyHistogram* batch_occupancy;
  LatencyHistogram* batch_window_wait_us;
};

// Shared across all services (metric objects are process-wide anyway);
// resolved once, cached like every other hot path (docs/observability.md).
const ServeMetrics& Metrics() {
  static const ServeMetrics metrics = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    ServeMetrics m;
    m.requests = registry.counter("serve.requests");
    m.computations = registry.counter("serve.computations");
    m.coalesced = registry.counter("serve.singleflight.coalesced");
    m.errors = registry.counter("serve.errors");
    m.batch_calls = registry.counter("serve.batch.calls");
    m.batch_requests = registry.counter("serve.batch.requests");
    m.batch_deduped = registry.counter("serve.batch.deduped");
    m.snapshot_flips = registry.counter("serve.snapshot.flips");
    m.admitted = registry.counter("serve.admission.admitted");
    m.admission_rejected = registry.counter("serve.admission.rejected");
    m.shed_deadline = registry.counter("serve.shed.deadline");
    m.shed_followers = registry.counter("serve.shed.followers");
    m.stale_hits = registry.counter("serve.stale.hits");
    m.stale_refreshes = registry.counter("serve.stale.refreshes");
    m.stale_ttl_expired = registry.counter("serve.stale.ttl_expired");
    m.batch_windows = registry.counter("serve.batch.windows");
    m.batch_parked = registry.counter("serve.batch.parked");
    m.batch_window_shed = registry.counter("serve.batch.window_shed");
    m.batch_exec_groups = registry.counter("serve.batch.exec_groups");
    m.batch_exec_lanes = registry.counter("serve.batch.exec_lanes");
    m.batch_lists_gathered = registry.counter("serve.batch.lists_gathered");
    m.batch_lists_demanded = registry.counter("serve.batch.lists_demanded");
    m.snapshot_version = registry.gauge("serve.snapshot.version");
    m.admission_queue_depth = registry.gauge("serve.admission.queue_depth");
    m.answer_us = registry.histogram("serve.answer_us");
    m.batch_us = registry.histogram("serve.batch_us");
    m.admission_wait_us = registry.histogram("serve.admission.wait_us");
    m.batch_occupancy = registry.histogram("serve.batch.occupancy");
    m.batch_window_wait_us = registry.histogram("serve.batch.window_wait_us");
    return m;
  }();
  return metrics;
}

}  // namespace

QuantificationService::QuantificationService(
    std::shared_ptr<const CubeSnapshot> snapshot)
    : QuantificationService(std::move(snapshot), Options()) {}

QuantificationService::QuantificationService(
    std::shared_ptr<const CubeSnapshot> snapshot, Options options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()),
      snapshot_(std::move(snapshot)),
      cache_(options_.cache_capacity, options_.cache_shards, "serve.cache") {}

QuantificationService::QuantificationService(const UnfairnessCube* cube,
                                             const IndexSet* indices)
    : QuantificationService(CubeSnapshot::Borrow(cube, indices), Options()) {}

QuantificationService::QuantificationService(const UnfairnessCube* cube,
                                             const IndexSet* indices,
                                             Options options)
    : QuantificationService(CubeSnapshot::Borrow(cube, indices),
                            std::move(options)) {}

void QuantificationService::SetSnapshot(
    std::shared_ptr<const CubeSnapshot> snapshot) {
  Metrics().snapshot_version->Set(static_cast<double>(snapshot->version()));
  snapshot_.Publish(std::move(snapshot));
  snapshot_flips_.fetch_add(1, std::memory_order_relaxed);
  Metrics().snapshot_flips->Add(1);
}

void QuantificationService::SetBackend(const UnfairnessCube* cube,
                                       const IndexSet* indices) {
  // Borrow re-fingerprints (O(cells)) before publishing, so requests are
  // never paused behind the hash — the flip itself is one pointer swap.
  SetSnapshot(CubeSnapshot::Borrow(cube, indices));
}

std::shared_ptr<const CubeSnapshot> QuantificationService::snapshot() const {
  return snapshot_.Acquire();
}

uint64_t QuantificationService::cube_fingerprint() const {
  return snapshot_.Acquire()->lineage();
}

Result<QuantificationResult> QuantificationService::Answer(
    const QuantificationRequest& request) {
  return AnswerInternal(request, /*from_batch=*/false,
                        /*deadline_budget_micros=*/0, snapshot_.Acquire());
}

Result<QuantificationResult> QuantificationService::Answer(
    const QuantificationRequest& request, int64_t deadline_budget_micros) {
  return AnswerInternal(request, /*from_batch=*/false, deadline_budget_micros,
                        snapshot_.Acquire());
}

QuantificationService::Probe QuantificationService::ProbeCache(
    const RequestCacheKey& key, int64_t now,
    std::shared_ptr<const QuantificationResult>* answer) {
  if (options_.cache_capacity == 0) return Probe::kDisabled;
  std::optional<CachedAnswer> cached = cache_.Get(key);
  if (!cached.has_value()) return Probe::kMiss;
  if (options_.cache_ttl_micros > 0 &&
      now - cached->inserted_micros >= options_.cache_ttl_micros) {
    return Probe::kTtlExpired;
  }
  if (cached->epoch_digest == key.epoch_digest) {
    *answer = std::move(cached->result);
    return Probe::kFresh;
  }
  // Stale-while-revalidate: the entry predates an upsert that bumped an
  // epoch this request reads. fetch_add hands out budget slots exactly
  // once each across concurrent serves (all value copies share the
  // counter), so the entry is served at most stale_budget times.
  if (options_.stale_budget > 0 &&
      cached->stale_served->fetch_add(1, std::memory_order_acq_rel) <
          options_.stale_budget) {
    *answer = std::move(cached->result);
    return Probe::kStaleServed;
  }
  return Probe::kStaleExhausted;
}

Status QuantificationService::AcquirePermit(int64_t deadline_abs_micros,
                                            bool* waited) {
  std::unique_lock<std::mutex> lock(admission_mutex_);
  if (inflight_ < options_.max_inflight) {
    ++inflight_;
    return Status::OK();
  }
  if (queued_ >= options_.max_queue_depth) {
    return Status::Unavailable("admission queue full");
  }
  *waited = true;
  ++queued_;
  Metrics().admission_queue_depth->Set(static_cast<double>(queued_));
  ScopedTimer wait_timer(Metrics().admission_wait_us);
  for (;;) {
    // wait_for (not wait-until-deadline) because the deadline is measured
    // on an abstract Clock: a virtual clock advanced by a test thread has
    // no relation to the condvar's steady_clock, so waiters poll it.
    admission_cv_.wait_for(lock, kAdmissionPoll);
    if (inflight_ < options_.max_inflight) {
      --queued_;
      ++inflight_;
      Metrics().admission_queue_depth->Set(static_cast<double>(queued_));
      return Status::OK();
    }
    if (clock_->NowMicros() >= deadline_abs_micros) {
      --queued_;
      Metrics().admission_queue_depth->Set(static_cast<double>(queued_));
      return Status::DeadlineExceeded("deadline passed in admission queue");
    }
  }
}

void QuantificationService::ReleasePermit() {
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    --inflight_;
  }
  // notify_all: waiters race for the permit and the losers re-check their
  // deadlines, which is exactly the poll the virtual clock relies on.
  admission_cv_.notify_all();
}

size_t QuantificationService::admission_queue_depth() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return queued_;
}

Result<QuantificationResult> QuantificationService::AnswerInternal(
    const QuantificationRequest& request, bool from_batch,
    int64_t deadline_budget_micros,
    const std::shared_ptr<const CubeSnapshot>& snapshot) {
  TraceSpan span("QuantificationService::Answer", "serve");
  ScopedTimer timer(Metrics().answer_us);
  Metrics().requests->Add(1);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (from_batch) batch_requests_.fetch_add(1, std::memory_order_relaxed);

  // Deadline resolution: explicit budget wins, 0 falls back to the
  // configured default, negative means the request was already late on
  // arrival (an open-loop generator running behind schedule) — shed it
  // before spending anything on it, cache probe included.
  int64_t budget = deadline_budget_micros != 0 ? deadline_budget_micros
                                               : options_.default_deadline_micros;
  if (budget < 0) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed_deadline->Add(1);
    return Status::DeadlineExceeded("deadline passed before arrival");
  }
  const bool needs_time = budget > 0 || options_.cache_ttl_micros > 0;
  const int64_t now = needs_time ? clock_->NowMicros() : 0;
  const int64_t deadline_abs = budget > 0 ? now + budget : kNoDeadline;

  // `snapshot` was pinned once by the caller; everything below — key,
  // cache probe, computation — sees that one immutable state. The one key
  // serves every layer: the cache looks it up by shape (digest ignored),
  // single flight and the window by its full identity.
  RequestCacheKey key(request, *snapshot);

  // Cache probe runs before the admission gate: hits (fresh or bounded
  // stale) cost no permit, so a warm cache keeps absorbing load even when
  // the compute path is saturated.
  std::shared_ptr<const QuantificationResult> cached_answer;
  Probe probe = ProbeCache(key, now, &cached_answer);
  switch (probe) {
    case Probe::kFresh:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      Metrics().admitted->Add(1);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached_answer;
    case Probe::kStaleServed:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      Metrics().admitted->Add(1);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      stale_hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale_hits->Add(1);
      return *cached_answer;
    case Probe::kTtlExpired:
      ttl_expired_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale_ttl_expired->Add(1);
      break;
    case Probe::kDisabled:
    case Probe::kMiss:
    case Probe::kStaleExhausted:
      break;
  }
  // Misses past this point either compute or coalesce; remember whether
  // the computation will replace an outdated entry (for stale_refreshes).
  const bool refreshing =
      probe == Probe::kTtlExpired || probe == Probe::kStaleExhausted;

  // Admission gate (miss path only). A permit bounds concurrent compute;
  // followers give theirs back before blocking on the leader's future.
  const bool admission_on = options_.max_inflight > 0;
  if (admission_on) {
    bool waited = false;
    Status admit = AcquirePermit(deadline_abs, &waited);
    if (!admit.ok()) {
      if (admit.code() == StatusCode::kDeadlineExceeded) {
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        Metrics().shed_deadline->Add(1);
      } else {
        rejected_queue_.fetch_add(1, std::memory_order_relaxed);
        Metrics().admission_rejected->Add(1);
      }
      return admit;
    }
    if (waited) {
      // The answer may have been computed and cached while this request
      // was parked; serving it now avoids a duplicate computation.
      Probe reprobe = ProbeCache(key, needs_time ? clock_->NowMicros() : 0,
                                 &cached_answer);
      if (reprobe == Probe::kFresh || reprobe == Probe::kStaleServed) {
        ReleasePermit();
        admitted_.fetch_add(1, std::memory_order_relaxed);
        Metrics().admitted->Add(1);
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (reprobe == Probe::kStaleServed) {
          stale_hits_.fetch_add(1, std::memory_order_relaxed);
          Metrics().stale_hits->Add(1);
        }
        return *cached_answer;
      }
    }
  }

  // Micro-batched execution: park the miss in the window collector instead
  // of the single-flight layer — the window both coalesces duplicate keys
  // (same role as a flight) and lets distinct keys share one batched pass.
  if (options_.batch_window_micros > 0) {
    return AnswerViaWindow(key, request, snapshot, refreshing, deadline_abs,
                           admission_on);
  }

  // Single flight: the first thread to claim `key` computes; every thread
  // that finds an in-flight future waits on it instead of recomputing.
  // Keys embed the epoch digest, so requests pinned to different snapshots
  // with differing read sets never coalesce onto each other's flight.
  std::shared_ptr<std::promise<FlightOutcome>> promise;
  std::shared_future<FlightOutcome> flight_future;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      if (options_.max_followers_per_flight > 0 &&
          it->second.followers->fetch_add(1, std::memory_order_acq_rel) >=
              options_.max_followers_per_flight) {
        // Bounded follower queue: refuse to pile a further duplicate onto
        // this computation. Typed rejection, no miss/coalesce counted.
        if (admission_on) ReleasePermit();
        rejected_followers_.fetch_add(1, std::memory_order_relaxed);
        Metrics().shed_followers->Add(1);
        return Status::Unavailable("single-flight follower bound reached");
      }
      flight_future = it->second.future;
    } else {
      promise = std::make_shared<std::promise<FlightOutcome>>();
      Flight flight;
      flight.future = promise->get_future().share();
      flight.followers = std::make_shared<std::atomic<uint32_t>>(0);
      flight_future = flight.future;
      flights_.emplace(key, std::move(flight));
    }
  }

  if (promise == nullptr) {
    // Follower: give the compute permit back before blocking — a parked
    // follower must not starve the computations it is waiting on.
    if (admission_on) ReleasePermit();
    admitted_.fetch_add(1, std::memory_order_relaxed);
    Metrics().admitted->Add(1);
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    Metrics().coalesced->Add(1);
    FlightOutcome outcome = flight_future.get();
    if (!outcome.status.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      Metrics().errors->Add(1);
      return outcome.status;
    }
    return *outcome.result;
  }

  // Leader: compute, publish to cache, resolve the flight, retire it.
  if (options_.compute_started_hook) options_.compute_started_hook();
  admitted_.fetch_add(1, std::memory_order_relaxed);
  Metrics().admitted->Add(1);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  computations_.fetch_add(1, std::memory_order_relaxed);
  Metrics().computations->Add(1);
  FlightOutcome outcome;
  {
    TraceSpan compute_span("serve.compute", "serve");
    Result<QuantificationResult> computed =
        SolveQuantification(snapshot->cube(), snapshot->indices(), request);
    if (computed.ok()) {
      outcome.result = std::make_shared<const QuantificationResult>(
          std::move(*computed));
    } else {
      outcome.status = computed.status();
    }
  }
  if (outcome.status.ok() && options_.cache_capacity > 0) {
    CachedAnswer entry;
    entry.result = outcome.result;
    entry.epoch_digest = key.epoch_digest;
    entry.inserted_micros =
        options_.cache_ttl_micros > 0 ? clock_->NowMicros() : now;
    entry.stale_served = std::make_shared<std::atomic<uint32_t>>(0);
    cache_.Put(key, std::move(entry));
    if (refreshing) {
      stale_refreshes_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale_refreshes->Add(1);
    }
  }
  promise->set_value(outcome);
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    flights_.erase(key);
  }
  if (admission_on) ReleasePermit();
  if (!outcome.status.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().errors->Add(1);
    return outcome.status;
  }
  return *outcome.result;
}

Result<QuantificationResult> QuantificationService::AnswerViaWindow(
    const RequestCacheKey& key, const QuantificationRequest& request,
    const std::shared_ptr<const CubeSnapshot>& snapshot, bool refreshing,
    int64_t deadline_abs, bool admission_on) {
  std::shared_future<BatchOutcome> future;
  bool leader = false;
  std::vector<BatchEntry> drained;
  {
    std::unique_lock<std::mutex> lock(batch_mutex_);
    auto it = batch_pending_index_.find(key);
    if (it != batch_pending_index_.end()) {
      BatchEntry& entry = batch_pending_[it->second];
      if (options_.max_followers_per_flight > 0 &&
          entry.waiters - 1 >= options_.max_followers_per_flight) {
        // Same bound as a single-flight follower queue: refuse to pile a
        // further duplicate onto this window entry.
        lock.unlock();
        if (admission_on) ReleasePermit();
        rejected_followers_.fetch_add(1, std::memory_order_relaxed);
        Metrics().shed_followers->Add(1);
        return Status::Unavailable("batch window follower bound reached");
      }
      ++entry.waiters;
      entry.max_deadline_abs = std::max(entry.max_deadline_abs, deadline_abs);
      entry.refreshing = entry.refreshing || refreshing;
      future = entry.future;
    } else {
      BatchEntry entry;
      entry.key = key;
      entry.request = request;
      entry.snapshot = snapshot;
      entry.refreshing = refreshing;
      entry.max_deadline_abs = deadline_abs;
      entry.parked_micros = clock_->NowMicros();
      entry.promise = std::make_shared<std::promise<BatchOutcome>>();
      entry.future = entry.promise->get_future().share();
      future = entry.future;
      batch_pending_index_.emplace(key, batch_pending_.size());
      batch_pending_.push_back(std::move(entry));
      // While a leader is active every new entry lands in the list it will
      // drain; otherwise this thread leads the window it just opened.
      if (!batch_leader_active_) {
        batch_leader_active_ = true;
        batch_window_end_ =
            clock_->NowMicros() + options_.batch_window_micros;
        leader = true;
      }
    }
    batch_parked_.fetch_add(1, std::memory_order_relaxed);
    Metrics().batch_parked->Add(1);
    if (options_.max_batch_size > 0 &&
        batch_pending_.size() >= options_.max_batch_size) {
      batch_cv_.notify_all();
    }

    if (leader) {
      // Lead the window: wait for the size trigger or expiry, polling the
      // abstract clock (wait_until cannot see a VirtualClock advance).
      for (;;) {
        if (options_.max_batch_size > 0 &&
            batch_pending_.size() >= options_.max_batch_size) {
          break;
        }
        const int64_t now = clock_->NowMicros();
        if (now >= batch_window_end_) break;
        const auto remaining = std::chrono::microseconds(
            batch_window_end_ - now);
        batch_cv_.wait_for(lock, std::min(remaining, kAdmissionPoll));
      }
      drained.swap(batch_pending_);
      batch_pending_index_.clear();
      batch_leader_active_ = false;
    }
  }

  if (leader) {
    DrainBatchWindow(&drained);
    // The leader held its compute permit through park + drain: with
    // admission on, one window occupies one compute slot end to end.
    if (admission_on) ReleasePermit();
  } else if (admission_on) {
    // Parked followers give their permit back before blocking, exactly
    // like single-flight followers — a parked request must not starve the
    // window leader (or unrelated computations) out of compute slots.
    ReleasePermit();
  }

  BatchOutcome outcome = future.get();
  if (deadline_abs != kNoDeadline && outcome.drained_micros >= deadline_abs) {
    // The window outlived this request's deadline: shed it with the same
    // typed error the admission queue uses. Requests that parked and then
    // shed never count as admitted, keeping the accounting identity exact.
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed_deadline->Add(1);
    batch_window_shed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().batch_window_shed->Add(1);
    return Status::DeadlineExceeded("deadline passed in batch window");
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  Metrics().admitted->Add(1);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // Exactly one surviving waiter per computed entry claims the computation
  // (a computed entry always has one: the drain only runs when the latest
  // waiter deadline is still live); the rest coalesced onto it.
  if (!outcome.computation_claimed->exchange(true,
                                             std::memory_order_acq_rel)) {
    computations_.fetch_add(1, std::memory_order_relaxed);
    Metrics().computations->Add(1);
  } else {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    Metrics().coalesced->Add(1);
  }
  if (!outcome.status.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().errors->Add(1);
    return outcome.status;
  }
  return *outcome.result;
}

void QuantificationService::DrainBatchWindow(std::vector<BatchEntry>* entries) {
  const int64_t drain_now = clock_->NowMicros();
  batch_windows_.fetch_add(1, std::memory_order_relaxed);
  Metrics().batch_windows->Add(1);
  Metrics().batch_occupancy->Record(static_cast<double>(entries->size()));

  // Resolve entries every waiter of which has already expired without
  // computing them; waiters do their own (exact) per-deadline shed against
  // drained_micros, so an entry computes iff someone can still use it.
  std::vector<BatchEntry*> live;
  live.reserve(entries->size());
  for (BatchEntry& entry : *entries) {
    Metrics().batch_window_wait_us->Record(
        static_cast<double>(drain_now - entry.parked_micros));
    if (entry.max_deadline_abs != kNoDeadline &&
        drain_now >= entry.max_deadline_abs) {
      BatchOutcome outcome;
      outcome.status = Status::DeadlineExceeded("deadline passed in batch window");
      outcome.drained_micros = drain_now;
      outcome.computation_claimed = std::make_shared<std::atomic<bool>>(false);
      entry.promise->set_value(std::move(outcome));
      continue;
    }
    live.push_back(&entry);
  }

  // Group by pinned snapshot: entries usually share one, but a flip mid-
  // window may split the batch — each request must still see exactly the
  // snapshot it pinned.
  std::stable_sort(live.begin(), live.end(),
                   [](const BatchEntry* a, const BatchEntry* b) {
                     return a->snapshot.get() < b->snapshot.get();
                   });
  size_t start = 0;
  while (start < live.size()) {
    size_t end = start;
    while (end < live.size() &&
           live[end]->snapshot.get() == live[start]->snapshot.get()) {
      ++end;
    }
    const CubeSnapshot& snap = *live[start]->snapshot;
    std::vector<QuantificationRequest> requests;
    requests.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      requests.push_back(live[i]->request);
    }
    BatchExecStats exec;
    std::vector<Result<QuantificationResult>> results;
    {
      TraceSpan span("serve.batch.compute", "serve");
      results = SolveQuantificationBatch(snap.cube(), snap.indices(),
                                         requests, &exec);
    }
    Metrics().batch_exec_groups->Add(exec.groups);
    Metrics().batch_exec_lanes->Add(exec.requests);
    Metrics().batch_lists_gathered->Add(exec.lists_gathered);
    Metrics().batch_lists_demanded->Add(exec.lists_demanded);
    for (size_t i = start; i < end; ++i) {
      BatchEntry& entry = *live[i];
      BatchOutcome outcome;
      outcome.drained_micros = drain_now;
      outcome.computation_claimed = std::make_shared<std::atomic<bool>>(false);
      Result<QuantificationResult>& computed = results[i - start];
      if (computed.ok()) {
        outcome.result = std::make_shared<const QuantificationResult>(
            std::move(*computed));
        if (options_.cache_capacity > 0) {
          CachedAnswer cached;
          cached.result = outcome.result;
          cached.epoch_digest = entry.key.epoch_digest;
          cached.inserted_micros =
              options_.cache_ttl_micros > 0 ? clock_->NowMicros() : drain_now;
          cached.stale_served = std::make_shared<std::atomic<uint32_t>>(0);
          cache_.Put(entry.key, std::move(cached));
          if (entry.refreshing) {
            stale_refreshes_.fetch_add(1, std::memory_order_relaxed);
            Metrics().stale_refreshes->Add(1);
          }
        }
      } else {
        outcome.status = computed.status();
      }
      entry.promise->set_value(std::move(outcome));
    }
    start = end;
  }
}

std::vector<Result<QuantificationResult>> QuantificationService::AnswerBatch(
    const std::vector<QuantificationRequest>& requests) {
  TraceSpan span("QuantificationService::AnswerBatch", "serve");
  ScopedTimer timer(Metrics().batch_us);
  Metrics().batch_calls->Add(1);
  Metrics().batch_requests->Add(requests.size());

  // Pin ONE snapshot for the whole batch: dedup and every fanned-out answer
  // run against the same state, so a concurrent flip cannot split a batch
  // across two cubes (dedup-equal requests stay answer-equal).
  std::shared_ptr<const CubeSnapshot> snapshot = snapshot_.Acquire();

  // Group duplicate requests by canonical key; only the first of each group
  // (the representative) is answered, everyone else copies its result.
  std::vector<size_t> representative_of(requests.size());
  std::vector<size_t> representatives;
  {
    std::unordered_map<RequestCacheKey, size_t, RequestCacheKeyHash> seen;
    for (size_t i = 0; i < requests.size(); ++i) {
      RequestCacheKey key(requests[i], *snapshot);
      auto [it, inserted] = seen.emplace(std::move(key), i);
      representative_of[i] = it->second;
      if (inserted) representatives.push_back(i);
    }
  }
  const size_t deduped = requests.size() - representatives.size();
  batch_deduped_.fetch_add(deduped, std::memory_order_relaxed);
  Metrics().batch_deduped->Add(deduped);

  std::vector<std::optional<Result<QuantificationResult>>> answered(
      requests.size());
  size_t parallelism = options_.batch_parallelism > 0
                           ? options_.batch_parallelism
                           : ThreadPool::Shared().num_threads() + 1;
  // The body only writes disjoint slots; AnswerInternal is thread-safe. The
  // fan-out itself cannot fail, so the ParallelFor status is always OK.
  ThreadPool::Shared()
      .ParallelFor(representatives.size(), parallelism,
                   [&](size_t r) {
                     size_t i = representatives[r];
                     answered[i] = AnswerInternal(requests[i],
                                                  /*from_batch=*/true,
                                                  /*deadline_budget_micros=*/0,
                                                  snapshot);
                     return Status::OK();
                   });

  std::vector<Result<QuantificationResult>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.push_back(*answered[representative_of[i]]);
  }
  return results;
}

QuantificationService::Stats QuantificationService::stats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  stats.batch_deduped = batch_deduped_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected_queue = rejected_queue_.load(std::memory_order_relaxed);
  stats.rejected_followers =
      rejected_followers_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  stats.stale_refreshes = stale_refreshes_.load(std::memory_order_relaxed);
  stats.ttl_expired = ttl_expired_.load(std::memory_order_relaxed);
  stats.computations = computations_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.snapshot_flips = snapshot_flips_.load(std::memory_order_relaxed);
  stats.batch_windows = batch_windows_.load(std::memory_order_relaxed);
  stats.batch_parked = batch_parked_.load(std::memory_order_relaxed);
  stats.batch_window_shed =
      batch_window_shed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace fairjob
