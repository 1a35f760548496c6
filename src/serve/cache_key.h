#ifndef FAIRJOB_SERVE_CACHE_KEY_H_
#define FAIRJOB_SERVE_CACHE_KEY_H_

#include <cstdint>
#include <vector>

#include "core/quantification.h"
#include "core/unfairness_cube.h"

namespace fairjob {

class CubeSnapshot;

// Canonical identity of a QuantificationRequest against one specific serving
// snapshot, used as the answer-cache / single-flight key (docs/serving.md).
//
// Two requests that provably return the same answers must map to the same
// key, so the constructor normalizes every selector:
//  * axis selector positions are sorted — duplicates are kept, because a
//    duplicated position aggregates its inverted list twice and is a
//    different request (permutations, though, share one entry);
//  * a selector that explicitly lists every position of its axis once
//    collapses to the empty "all" form (it aggregates the same lists);
//  * allowed_targets is sorted and deduplicated (it is consumed as a set);
//    a filter admitting the whole axis is no filter at all.
// Two requests that may return different payloads must map to different
// keys, so the algorithm is part of the identity (the family agrees on the
// top-k only up to ties, and each run carries its own FaginStats), as are
// the missing-cell policy, direction and k.
//
// `epoch_digest` binds the key to the data the answer was computed from —
// but only the part it read: an additive digest of the snapshot lineage plus
// the per-(query, location) column epochs of exactly the columns the
// normalized selectors touch (CubeSnapshot::EpochDigest), computed in
// O(|selector|) from per-query and per-location sums the snapshot keeps. An
// incremental upsert bumps epochs for the columns it changed, so entries
// over untouched columns keep matching across the flip while entries over
// changed columns stop matching (up to a ~2^-64 chance that a change in a
// read column goes unnoticed). A full rebuild changes the lineage and
// therefore every digest — unless the rebuilt cube is bitwise identical, in
// which case the whole cache stays warm on purpose.
//
// operator== and RequestCacheKeyHash cover the digest (single flight must
// not coalesce across data versions). The answer cache stores entries under
// the same key through RequestShapeHash / RequestShapeEqual, which ignore
// it: the digest an answer was computed against lives in the cached value,
// so an upsert turns an entry stale in place instead of stranding it under
// a dead key.
struct RequestCacheKey {
  uint64_t epoch_digest = 0;
  Dimension target = Dimension::kGroup;
  uint32_t k = 0;
  RankDirection direction = RankDirection::kMostUnfair;
  MissingCellPolicy missing = MissingCellPolicy::kSkip;
  TopKAlgorithm algorithm = TopKAlgorithm::kThresholdAlgorithm;
  std::vector<size_t> agg1;             // normalized; empty = all
  std::vector<size_t> agg2;             // normalized; empty = all
  std::vector<int32_t> allowed;         // normalized; empty = all

  // Builds the canonical key for `request` over `snapshot`. Axis sizes come
  // from the snapshot's cube; the epoch digest is computed from the
  // *normalized* selectors so equivalent requests also agree on which column
  // epochs they bind.
  RequestCacheKey(const QuantificationRequest& request,
                  const CubeSnapshot& snapshot);
  RequestCacheKey() = default;

  bool operator==(const RequestCacheKey& other) const;
};

struct RequestCacheKeyHash {
  size_t operator()(const RequestCacheKey& key) const;
};

// Hash and equality over every field but `epoch_digest`: the answer cache's
// storage identity (one entry per request shape, see above).
struct RequestShapeHash {
  size_t operator()(const RequestCacheKey& key) const;
};
struct RequestShapeEqual {
  bool operator()(const RequestCacheKey& a, const RequestCacheKey& b) const;
};

// Order-sensitive 64-bit FNV-1a digest of the cube's full identity: axis
// ids per dimension and, for every cell, presence plus the exact bit
// pattern of the stored double. Any Set/Clear/rebuild that changes an
// answer changes the fingerprint; identical contents (however produced)
// collide on purpose, so re-building an unchanged cube keeps the cache
// warm. Per-column epochs are deliberately NOT part of the fingerprint —
// the fingerprint is the *content* identity (snapshot lineage), epochs are
// the *change* ledger layered on top, and the differential contract
// (incremental upserts ≡ cold rebuild) requires the two to stay disjoint.
uint64_t FingerprintCube(const UnfairnessCube& cube);

}  // namespace fairjob

#endif  // FAIRJOB_SERVE_CACHE_KEY_H_
