#ifndef FAIRJOB_SERVE_QUANTIFICATION_SERVICE_H_
#define FAIRJOB_SERVE_QUANTIFICATION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "core/quantification.h"
#include "serve/cache_key.h"
#include "serve/cube_snapshot.h"

namespace fairjob {

// Thread-safe query-serving front end for Problem 1 (docs/serving.md): wraps
// an immutable CubeSnapshot (cube + indices + per-column epochs) behind
//  * a sharded LRU answer cache keyed by the canonical request shape; each
//    entry remembers the epoch digest of the columns the request read, so an
//    incremental upsert invalidates exactly the entries over touched columns
//    (optionally serving them stale a bounded number of times, see below)
//    and a rebuild invalidates everything,
//  * a single-flight layer: concurrent identical requests run
//    SolveQuantification once and share the result,
//  * a batch API that deduplicates keys and fans distinct requests out over
//    ThreadPool::Shared(), and
//  * optional admission control: a bounded number of concurrent
//    computations, a bounded wait queue, and deadline-based load shedding,
//    so overload produces fast typed rejections instead of collapse
//    (docs/serving.md, "Load & overload").
//
// Serving is RCU-style: each request pins the current snapshot once (a
// shared_ptr copy through SnapshotPtr, a few instructions) and computes
// against it for its whole lifetime; SetSnapshot publishes a new snapshot
// with one pointer swap and returns immediately — a flip never waits for a
// request and a request never waits for a rebuild. There is no quiescence
// barrier — the shared_ptr refcount keeps a replaced snapshot alive until
// the last in-flight request that pinned it drops it.
// Answer, AnswerBatch and SetSnapshot may be called concurrently from any
// number of threads; a request observes exactly one snapshot, never a torn
// mix of two.
class QuantificationService {
 public:
  struct Options {
    // Answer-cache capacity in entries; 0 disables caching entirely
    // (single-flight still coalesces concurrent duplicates).
    size_t cache_capacity = 4096;
    size_t cache_shards = 8;

    // --- Admission control (0 = feature off, the pre-hardening behavior).
    // Maximum computations holding a compute permit at once. When all
    // permits are taken, up to `max_queue_depth` requests wait for one;
    // beyond that requests are rejected immediately with kUnavailable.
    size_t max_inflight = 0;
    size_t max_queue_depth = 0;
    // Bound on how many followers may coalesce onto one in-flight
    // computation; further duplicates are rejected with kUnavailable
    // instead of growing an unbounded wait list. 0 = unbounded.
    size_t max_followers_per_flight = 0;
    // Deadline budget (relative, microseconds) applied to requests that do
    // not pass an explicit one. A request whose deadline passes while it is
    // queued for a permit is shed with kDeadlineExceeded. 0 = no deadline.
    int64_t default_deadline_micros = 0;

    // --- Cache freshness (0 = feature off).
    // Hard age bound: an entry older than this is never served, fresh or
    // stale — the request recomputes and overwrites it.
    int64_t cache_ttl_micros = 0;
    // Stale-while-revalidate: after an upsert bumps the epochs a cached
    // entry depends on, the outdated value may be served up to this many
    // more times (per entry per staleness episode) while misses refresh it.
    // 0 = digest mismatch is a plain miss (strict freshness).
    uint32_t stale_budget = 0;

    // Time source for deadlines and TTLs. nullptr = Clock::Real(). Tests
    // pass a VirtualClock to make shedding and expiry deterministic.
    const Clock* clock = nullptr;

    // Test hook, run by the single-flight leader after winning the key and
    // before computing; lets tests widen the coalescing window
    // deterministically. Leave null in production.
    std::function<void()> compute_started_hook;
  };

  // Exact request-path counts, maintained independently of the metrics
  // registry (relaxed atomics; snapshot after quiescing for exact totals).
  //
  // Admission accounting is exact (every request, always — with the cache
  // disabled every admitted request is a miss):
  //   admitted + shed_deadline + rejected_queue + rejected_followers
  //     == requests
  //   cache_hits + cache_misses == admitted
  //   computations + coalesced  == cache_misses
  // With admission off (max_inflight == 0) every request is admitted, so
  // the pre-hardening identities hold unchanged.
  struct Stats {
    // Requests that entered the request path: every Answer call plus each
    // distinct key of an AnswerBatch (its representative).
    uint64_t requests = 0;
    uint64_t batch_requests = 0;  // AnswerBatch representatives (in requests)
    // AnswerBatch requests answered by an earlier in-batch duplicate; they
    // never reach the request path, so they sit outside every identity
    // above. batch_requests + batch_deduped == requests submitted to
    // AnswerBatch.
    uint64_t batch_deduped = 0;
    uint64_t admitted = 0;        // answered (from cache or by computing)
    uint64_t rejected_queue = 0;  // kUnavailable: admission queue was full
    uint64_t rejected_followers = 0;  // kUnavailable: flight follower bound
    uint64_t shed_deadline = 0;   // kDeadlineExceeded: deadline passed
    uint64_t cache_hits = 0;      // fresh + stale serves
    uint64_t cache_misses = 0;
    uint64_t stale_hits = 0;      // subset of cache_hits: served stale
    uint64_t stale_refreshes = 0; // computations that replaced a stale entry
    uint64_t ttl_expired = 0;     // probes that found an entry past its TTL
    uint64_t computations = 0;    // SolveQuantification actually executed
    uint64_t coalesced = 0;       // requests served by another's computation
    uint64_t errors = 0;          // non-OK answers (excl. typed rejections)
    uint64_t snapshot_flips = 0;  // SetSnapshot publications
  };

  // The service serves `snapshot` until the next flip. Services may share
  // one snapshot; it lives as long as any of them (or a request) pins it.
  explicit QuantificationService(std::shared_ptr<const CubeSnapshot> snapshot);
  QuantificationService(std::shared_ptr<const CubeSnapshot> snapshot,
                        Options options);

  // Answers one request through cache + single-flight + (if configured)
  // admission control. An admitted request has a contract identical to
  // SolveQuantification(snapshot->cube(), snapshot->indices(), request) for
  // the snapshot current at the pin: same answers (bit-equal values), same
  // errors; cached answers replay the FaginStats of the run that computed
  // them. A request that is not admitted gets a typed error — kUnavailable
  // (queue or follower bound) or kDeadlineExceeded (deadline shed) — and
  // never a partial or torn answer.
  Result<QuantificationResult> Answer(const QuantificationRequest& request);

  // Same, with an explicit relative deadline budget in microseconds:
  //   > 0  — shed with kDeadlineExceeded if not admitted within the budget;
  //   0    — use Options::default_deadline_micros;
  //   < 0  — already expired on arrival (an open-loop generator running
  //          behind schedule): shed immediately without touching the cache.
  Result<QuantificationResult> Answer(const QuantificationRequest& request,
                                      int64_t deadline_budget_micros);

  // Answers a mixed batch against ONE pinned snapshot (every request in the
  // batch sees the same data even if a writer flips mid-batch). Requests
  // with equal canonical keys are computed once; distinct keys are fanned
  // out over the shared pool. results[i] corresponds to requests[i].
  std::vector<Result<QuantificationResult>> AnswerBatch(
      const std::vector<QuantificationRequest>& requests);

  // Publishes a new serving snapshot (one pointer swap) and returns
  // immediately; requests that already pinned the old snapshot finish
  // against it. Cache entries whose epoch digests no longer match stop
  // being served fresh (they serve stale up to `stale_budget` times, then
  // only refreshes); entries over columns the new snapshot left untouched
  // (same lineage, same epochs) keep hitting.
  void SetSnapshot(std::shared_ptr<const CubeSnapshot> snapshot);

  // Pins and returns the current serving snapshot.
  std::shared_ptr<const CubeSnapshot> snapshot() const;

  // Lineage fingerprint of the current snapshot's cube family — the content
  // identity established when the family was cold-built (incremental flips
  // within a family keep it; see serve/cube_snapshot.h).
  uint64_t cube_fingerprint() const;

  Stats stats() const;

  // Requests currently parked waiting for a compute permit. Exact only when
  // externally quiesced; tests use it to orchestrate deterministic shedding.
  size_t admission_queue_depth() const;

  // A cached answer plus the freshness bookkeeping stale-while-revalidate
  // needs: which epochs it was computed against, when it entered the cache,
  // and how many times it has been served past its epochs.
  struct CachedAnswer {
    std::shared_ptr<const QuantificationResult> result;
    uint64_t epoch_digest = 0;
    int64_t inserted_micros = 0;
    // Shared (not per-copy) so serves through Get()'s value copies all
    // drain the same budget.
    std::shared_ptr<std::atomic<uint32_t>> stale_served;
  };

  // The answer cache: the request's own key, hashed and compared without
  // its epoch digest (RequestShapeHash / RequestShapeEqual), so one entry
  // per request shape holds the answer and the digest it was computed at.
  using AnswerCache = ShardedLruCache<RequestCacheKey, CachedAnswer,
                                      RequestShapeHash, RequestShapeEqual>;

  // hits + misses + evictions of the underlying answer cache. Note the LRU
  // is keyed by request shape alone (epochs live in the value), so an
  // internal "hit" may still be a service-level miss (stale over budget or
  // past TTL), and a refresh after an upsert is an update in place, not an
  // insertion; service-level freshness counts live in stats().
  AnswerCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  // Outcome of one single-flight computation, shared between the leader and
  // every coalesced follower.
  struct FlightOutcome {
    Status status;
    std::shared_ptr<const QuantificationResult> result;
  };

  // One in-flight computation: the shared outcome plus the follower count
  // used to enforce Options::max_followers_per_flight.
  struct Flight {
    std::shared_future<FlightOutcome> future;
    std::shared_ptr<std::atomic<uint32_t>> followers;
  };

  // How a cache probe classified the stored entry against the request's
  // current epoch digest and the TTL.
  enum class Probe {
    kDisabled,      // cache_capacity == 0: no probe happened
    kMiss,          // no entry stored
    kFresh,         // digest match within TTL: serve it
    kStaleServed,   // digest mismatch, within TTL and stale budget: serve it
    kStaleExhausted,// digest mismatch, budget spent (or SWR off): recompute
    kTtlExpired,    // entry older than cache_ttl_micros: recompute
  };

  Result<QuantificationResult> AnswerInternal(
      const QuantificationRequest& request, bool from_batch,
      int64_t deadline_budget_micros,
      const std::shared_ptr<const CubeSnapshot>& snapshot);

  // Classifies the entry stored for `key`'s shape against `key`'s epoch
  // digest at time `now`; on kFresh/kStaleServed fills *answer.
  Probe ProbeCache(const RequestCacheKey& key, int64_t now,
                   std::shared_ptr<const QuantificationResult>* answer);

  // Blocks until a compute permit is free (within `deadline_abs_micros`,
  // absolute per options_.clock) or admission rejects the request. On OK
  // the caller holds a permit and must ReleasePermit(); *waited reports
  // whether the request was ever parked in the queue.
  Status AcquirePermit(int64_t deadline_abs_micros, bool* waited);
  void ReleasePermit();

  Options options_;
  const Clock* clock_;  // never null: options_.clock or Clock::Real()

  // The RCU publication point: readers pin once per request (and once per
  // batch), a flip is one pointer swap. See SnapshotPtr for why this is not
  // std::atomic<std::shared_ptr>.
  SnapshotPtr snapshot_;

  AnswerCache cache_;

  std::mutex flights_mutex_;
  std::unordered_map<RequestCacheKey, Flight, RequestCacheKeyHash> flights_;

  // Admission state: permits outstanding and requests parked waiting for
  // one. Guarded by admission_mutex_; waiters poll the clock on a short
  // wait_for so deadline shedding works with both real and virtual clocks.
  mutable std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  size_t inflight_ = 0;
  size_t queued_ = 0;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batch_requests_{0};
  std::atomic<uint64_t> batch_deduped_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_queue_{0};
  std::atomic<uint64_t> rejected_followers_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> stale_refreshes_{0};
  std::atomic<uint64_t> ttl_expired_{0};
  std::atomic<uint64_t> computations_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> snapshot_flips_{0};
};

}  // namespace fairjob

#endif  // FAIRJOB_SERVE_QUANTIFICATION_SERVICE_H_
