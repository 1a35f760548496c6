#ifndef FAIRJOB_SERVE_CUBE_SNAPSHOT_H_
#define FAIRJOB_SERVE_CUBE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/indices.h"
#include "core/unfairness_cube.h"

namespace fairjob {

// An immutable, atomically swappable serving state: one cube, its inverted
// indices, and the per-column epoch view the answer cache keys against
// (docs/serving.md, "Incremental maintenance & snapshots").
//
// Snapshots are the unit of RCU serving: `QuantificationService` holds the
// current snapshot in a `SnapshotPtr` (below), readers pin it once for the
// duration of a request, and a writer publishes a new snapshot with one
// pointer swap. Nothing inside a published snapshot may ever change — the
// delta path (serve/incremental.h) derives a *new* snapshot per upsert
// instead of mutating the served one.
//
// Identity is two-level:
//  * `lineage()` — FingerprintCube of the cube the snapshot family started
//    from. Two cold builds with bitwise-identical contents share a lineage
//    (so an identical rebuild keeps the cache warm); any other full rebuild
//    changes it and invalidates everything.
//  * per-column epochs (stored on the cube) — bumped by the delta path for
//    exactly the columns whose values changed, so cache entries binding only
//    untouched columns keep matching across upserts.
class CubeSnapshot {
 public:
  // Takes the cube, builds indices from it, fingerprints it (the O(cells)
  // lineage computation happens here, once per family — never on the delta
  // path and never per request). Services that serve one cube share one
  // snapshot.
  static std::shared_ptr<const CubeSnapshot> Make(UnfairnessCube cube);

  // For the delta path: the snapshot after `parent`, whose cube and indices
  // were derived from the parent's (so they share every chunk and list
  // block the delta did not write) and whose column epochs differ from the
  // parent's at most in `changed` (duplicates allowed). Inherits the
  // lineage, bumps the version, and updates the epoch sums from the changed
  // columns only: O(|changed| + Q + L), not O(Q·L). The caller (the
  // maintainer) guarantees cube/indices consistency.
  static std::shared_ptr<const CubeSnapshot> MakeDerived(
      const CubeSnapshot& parent, UnfairnessCube cube, IndexSet indices,
      std::vector<CubeColumnRef> changed);

  const UnfairnessCube& cube() const { return cube_; }
  const IndexSet& indices() const { return indices_; }
  uint64_t lineage() const { return lineage_; }
  // Monotone flip counter within a maintainer's snapshot family; purely
  // observability (serve.snapshot.version), never part of cache identity.
  uint64_t version() const { return version_; }

  // Digest of (lineage, epochs of every (query, location) column a request
  // with these *normalized* selectors reads). The column set per target:
  //   kGroup    -> agg1 queries × agg2 locations
  //   kQuery    -> ALL queries  × agg2 locations (agg1 selects groups)
  //   kLocation -> agg2 queries × ALL locations  (agg1 selects groups)
  // Empty selector = whole axis. Group selectors never narrow the column
  // set — epochs are column-granular, which is conservative (a change in an
  // unselected group row of a read column re-keys the entry) but never
  // stale.
  //
  // The digest is additive: column (q, l) contributes a 64-bit mix of its
  // index and epoch, summed mod 2^64 over the read set (a selector is a
  // multiset, so a duplicated position adds its columns twice), then folded
  // with the lineage. The sum ignores order, so equal keys ⇒ equal digests,
  // and per-query / per-location sums precomputed per snapshot make the cost
  // O(|selector|) whenever one side is a whole axis; a window × window
  // request pays one mix per selected cell. Positions outside the cube
  // contribute nothing (the solver rejects such requests; errors are never
  // cached).
  uint64_t EpochDigest(Dimension target, const std::vector<size_t>& agg1,
                       const std::vector<size_t>& agg2) const;

  // EpochDigest over every column; precomputed once per snapshot so
  // unrestricted requests pay O(1), not O(columns), per cache probe.
  uint64_t full_epoch_digest() const { return full_epoch_digest_; }

 private:
  CubeSnapshot(UnfairnessCube cube, IndexSet indices, uint64_t lineage,
               uint64_t version)
      : cube_(std::move(cube)),
        indices_(std::move(indices)),
        lineage_(lineage),
        version_(version) {}

  UnfairnessCube cube_;
  IndexSet indices_;
  uint64_t lineage_ = 0;
  uint64_t version_ = 0;
  // The epoch sums EpochDigest folds: in total, per query and per location.
  uint64_t epoch_total_ = 0;
  uint64_t full_epoch_digest_ = 0;
  std::vector<uint64_t> query_epoch_sums_;     // Σ_l column mix (q, l)
  std::vector<uint64_t> location_epoch_sums_;  // Σ_q column mix (q, l)
};

// The RCU publication point: an atomically swappable shared_ptr slot.
//
// This is the same algorithm libstdc++ uses for
// std::atomic<std::shared_ptr> — a one-word spinlock guarding a pointer
// copy (atomic<shared_ptr> is not lock-free anywhere) — but with the
// reader's unlock properly release-fenced. libstdc++ 12 unlocks its load
// path with a *relaxed* RMW, so a reader's pointer copy and the next
// writer's swap are formally unordered; TSan reports that race, and the CI
// sanitizer matrix must stay clean.
//
// The critical section is a shared_ptr copy or swap (one refcount RMW plus
// two word moves) — never a computation, an allocation of cube data, or a
// snapshot destruction (Publish drops the replaced snapshot outside the
// lock). Readers therefore wait at most a few instructions behind any
// other thread, and a writer can never be starved: flips cost the same as
// reads.
class SnapshotPtr {
 public:
  SnapshotPtr() = default;
  explicit SnapshotPtr(std::shared_ptr<const CubeSnapshot> value)
      : value_(std::move(value)) {}

  SnapshotPtr(const SnapshotPtr&) = delete;
  SnapshotPtr& operator=(const SnapshotPtr&) = delete;

  // Pins the current snapshot: the returned shared_ptr keeps it alive for
  // as long as the caller holds it, across any number of flips.
  std::shared_ptr<const CubeSnapshot> Acquire() const {
    Lock();
    std::shared_ptr<const CubeSnapshot> pinned = value_;
    Unlock();
    return pinned;
  }

  // Publishes `next` as the current snapshot. The replaced snapshot's
  // reference is dropped after the lock is released, so its destructor
  // (cube + indices) never runs inside the critical section.
  void Publish(std::shared_ptr<const CubeSnapshot> next) {
    Lock();
    value_.swap(next);
    Unlock();
  }

 private:
  void Lock() const {
    while (locked_.exchange(1, std::memory_order_acquire) != 0) {
      // Test-and-test-and-set with a yield: on an oversubscribed machine a
      // holder preempted mid-copy should get the core back immediately.
      while (locked_.load(std::memory_order_relaxed) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void Unlock() const { locked_.store(0, std::memory_order_release); }

  mutable std::atomic<uint32_t> locked_{0};
  std::shared_ptr<const CubeSnapshot> value_;
};

}  // namespace fairjob

#endif  // FAIRJOB_SERVE_CUBE_SNAPSHOT_H_
