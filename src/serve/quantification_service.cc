#include "serve/quantification_service.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace fairjob {
namespace {

// Deadline sentinel: "no deadline" compares later than any clock reading.
constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

// Queued waiters re-check the deadline on this cadence. Short enough that a
// virtual-clock advance is observed promptly in tests, long enough not to
// thrash the admission mutex under real load.
constexpr std::chrono::microseconds kAdmissionPoll{200};

// The serve metrics with no per-instance count; CollectMetrics exports the
// counted ones.
struct ServeMetrics {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* snapshot_version = registry.gauge("serve.snapshot.version");
  Gauge* admission_queue_depth = registry.gauge("serve.admission.queue_depth");
  LatencyHistogram* answer_us = registry.histogram("serve.answer_us");
  LatencyHistogram* batch_us = registry.histogram("serve.batch_us");
  LatencyHistogram* admission_wait_us =
      registry.histogram("serve.admission.wait_us");
};

// Shared across all services (metric objects are process-wide anyway);
// resolved once, cached like every other hot path (docs/observability.md).
const ServeMetrics& Metrics() {
  static const ServeMetrics metrics;
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
      cache_(options_.cache_capacity, options_.cache_shards),
      metrics_collector_(MetricsRegistry::Global().AddCollector(
          [this] { return CollectMetrics(); })) {}

void QuantificationService::SetSnapshot(
    std::shared_ptr<const CubeSnapshot> snapshot) {
  Metrics().snapshot_version->Set(static_cast<double>(snapshot->version()));
  snapshot_.Publish(std::move(snapshot));
  snapshot_flips_.fetch_add(1, std::memory_order_relaxed);
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
    return Status::DeadlineExceeded("deadline passed before arrival");
  }
  const bool needs_time = budget > 0 || options_.cache_ttl_micros > 0;
  const int64_t now = needs_time ? clock_->NowMicros() : 0;
  const int64_t deadline_abs = budget > 0 ? now + budget : kNoDeadline;

  // `snapshot` was pinned once by the caller; everything below — key,
  // cache probe, computation — sees that one immutable state. The one key
  // serves both layers: the cache looks it up by shape (digest ignored),
  // single flight by its full identity.
  RequestCacheKey key(request, *snapshot);

  // Cache probe runs before the admission gate: hits (fresh or bounded
  // stale) cost no permit, so a warm cache keeps absorbing load even when
  // the compute path is saturated.
  std::shared_ptr<const QuantificationResult> cached_answer;
  Probe probe = ProbeCache(key, now, &cached_answer);
  switch (probe) {
    case Probe::kFresh:
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached_answer;
    case Probe::kStaleServed:
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      stale_hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached_answer;
    case Probe::kTtlExpired:
      ttl_expired_.fetch_add(1, std::memory_order_relaxed);
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
      } else {
        rejected_queue_.fetch_add(1, std::memory_order_relaxed);
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
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (reprobe == Probe::kStaleServed) {
          stale_hits_.fetch_add(1, std::memory_order_relaxed);
        }
        return *cached_answer;
      }
    }
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
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    FlightOutcome outcome = flight_future.get();
    if (!outcome.status.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return outcome.status;
    }
    return *outcome.result;
  }

  // Leader: compute, publish to cache, resolve the flight, retire it.
  if (options_.compute_started_hook) options_.compute_started_hook();
  computations_.fetch_add(1, std::memory_order_relaxed);
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
    if (refreshing) stale_refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
  promise->set_value(outcome);
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    flights_.erase(key);
  }
  if (admission_on) ReleasePermit();
  if (!outcome.status.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return outcome.status;
  }
  return *outcome.result;
}

std::vector<Result<QuantificationResult>> QuantificationService::AnswerBatch(
    const std::vector<QuantificationRequest>& requests) {
  TraceSpan span("QuantificationService::AnswerBatch", "serve");
  ScopedTimer timer(Metrics().batch_us);
  batch_calls_.fetch_add(1, std::memory_order_relaxed);

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

  std::vector<std::optional<Result<QuantificationResult>>> answered(
      requests.size());
  // The body only writes disjoint slots; AnswerInternal is thread-safe. The
  // fan-out itself cannot fail, so the ParallelFor status is always OK.
  ThreadPool& pool = ThreadPool::Shared();
  pool.ParallelFor(representatives.size(), pool.num_threads() + 1,
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
  stats.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  stats.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  stats.batch_deduped = batch_deduped_.load(std::memory_order_relaxed);
  stats.rejected_queue = rejected_queue_.load(std::memory_order_relaxed);
  stats.rejected_followers =
      rejected_followers_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  stats.stale_refreshes = stale_refreshes_.load(std::memory_order_relaxed);
  stats.ttl_expired = ttl_expired_.load(std::memory_order_relaxed);
  stats.computations = computations_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.snapshot_flips = snapshot_flips_.load(std::memory_order_relaxed);
  // Every miss computes or coalesces, and every admitted request hits or
  // misses, so these are sums rather than second counts of one event.
  stats.cache_misses = stats.computations + stats.coalesced;
  stats.admitted = stats.cache_hits + stats.cache_misses;
  return stats;
}

CollectedMetrics QuantificationService::CollectMetrics() const {
  const Stats s = stats();
  const AnswerCache::Stats cache = cache_.stats();
  CollectedMetrics collected;
  collected.counters = {
      {"serve.requests", s.requests},
      {"serve.computations", s.computations},
      {"serve.singleflight.coalesced", s.coalesced},
      {"serve.errors", s.errors},
      {"serve.batch.calls", s.batch_calls},
      {"serve.batch.requests", s.batch_requests + s.batch_deduped},
      {"serve.batch.deduped", s.batch_deduped},
      {"serve.snapshot.flips", s.snapshot_flips},
      {"serve.admission.admitted", s.admitted},
      {"serve.admission.rejected", s.rejected_queue},
      {"serve.shed.deadline", s.shed_deadline},
      {"serve.shed.followers", s.rejected_followers},
      {"serve.stale.hits", s.stale_hits},
      {"serve.stale.refreshes", s.stale_refreshes},
      {"serve.stale.ttl_expired", s.ttl_expired},
      {"serve.cache.hits", cache.hits},
      {"serve.cache.misses", cache.misses},
      {"serve.cache.evictions", cache.evictions},
      {"serve.cache.insertions", cache.insertions},
  };
  collected.gauges = {
      {"serve.cache.entries", static_cast<double>(cache_.size())}};
  return collected;
}

}  // namespace fairjob
