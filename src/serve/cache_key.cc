#include "serve/cache_key.h"

#include <algorithm>
#include <cstring>

#include "serve/cube_snapshot.h"
#include "serve/fnv.h"

namespace fairjob {
namespace {

// Sorted into *out; emptied when the explicit list is exactly the whole
// axis (selecting every position once aggregates exactly the "all" lists).
// Duplicates are deliberately KEPT: IndexSet::ListsFor resolves positions
// verbatim, so a duplicated position contributes its list twice to the
// aggregate — {0, 0} is a genuinely different request from {0}. Sorting
// alone makes the key a multiset identity: permutations of the same
// selector share one cache entry, and the solvers gather lists in this same
// sorted order (CanonicalSelector), so their answers are bit-identical.
//
// Writes straight into the key member (one reserve, one allocation) instead
// of returning a temporary that gets move-assigned — this runs on every
// request, cache hits included, so the per-key allocation count matters.
void NormalizePositions(const std::vector<size_t>& positions, size_t axis_size,
                        std::vector<size_t>* out) {
  out->clear();
  out->reserve(positions.size());
  out->assign(positions.begin(), positions.end());
  std::sort(out->begin(), out->end());
  if (out->size() == axis_size) {
    bool full = true;
    for (size_t i = 0; i < out->size(); ++i) {
      if ((*out)[i] != i) {
        full = false;
        break;
      }
    }
    if (full) out->clear();
  }
}

// allowed_targets IS a set (the top-k runners turn it into a position
// bitmap), so here duplicates are dropped as well as sorted.
void NormalizeTargets(const std::vector<int32_t>& targets, size_t axis_size,
                      std::vector<int32_t>* out) {
  out->clear();
  out->reserve(targets.size());
  out->assign(targets.begin(), targets.end());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  if (out->size() == axis_size) {
    bool full = true;
    for (size_t i = 0; i < out->size(); ++i) {
      if ((*out)[i] != static_cast<int32_t>(i)) {
        full = false;
        break;
      }
    }
    if (full) out->clear();
  }
}

}  // namespace

RequestCacheKey::RequestCacheKey(const QuantificationRequest& request,
                                 const CubeSnapshot& snapshot)
    : target(request.target),
      k(static_cast<uint32_t>(request.k)),
      direction(request.direction),
      missing(request.missing),
      algorithm(request.algorithm) {
  const UnfairnessCube& cube = snapshot.cube();
  Dimension d1;
  Dimension d2;
  // agg1/agg2 follow SolveQuantification's ascending-dimension convention.
  QuantificationOtherDims(request.target, &d1, &d2);
  NormalizePositions(request.agg1.positions, cube.axis_size(d1), &agg1);
  NormalizePositions(request.agg2.positions, cube.axis_size(d2), &agg2);
  NormalizeTargets(request.allowed_targets, cube.axis_size(request.target),
                   &allowed);
  // After normalization, so equivalent selector spellings bind the same
  // column epochs (and the all/all fast path actually fires).
  epoch_digest = snapshot.EpochDigest(target, agg1, agg2);
}

bool RequestCacheKey::operator==(const RequestCacheKey& other) const {
  return epoch_digest == other.epoch_digest &&
         RequestShapeEqual()(*this, other);
}

size_t RequestCacheKeyHash::operator()(const RequestCacheKey& key) const {
  uint64_t h = RequestShapeHash()(key);
  fnv::HashValue(&h, key.epoch_digest);
  return static_cast<size_t>(h);
}

size_t RequestShapeHash::operator()(const RequestCacheKey& key) const {
  uint64_t h = fnv::kOffset;
  fnv::HashValue(&h, static_cast<uint32_t>(key.target));
  fnv::HashValue(&h, key.k);
  fnv::HashValue(&h, static_cast<uint32_t>(key.direction));
  fnv::HashValue(&h, static_cast<uint32_t>(key.missing));
  fnv::HashValue(&h, static_cast<uint32_t>(key.algorithm));
  // Length separators keep ({1},{}) distinct from ({},{1}).
  fnv::HashValue(&h, static_cast<uint64_t>(key.agg1.size()));
  for (size_t pos : key.agg1) fnv::HashValue(&h, static_cast<uint64_t>(pos));
  fnv::HashValue(&h, static_cast<uint64_t>(key.agg2.size()));
  for (size_t pos : key.agg2) fnv::HashValue(&h, static_cast<uint64_t>(pos));
  fnv::HashValue(&h, static_cast<uint64_t>(key.allowed.size()));
  for (int32_t t : key.allowed) fnv::HashValue(&h, t);
  return static_cast<size_t>(h);
}

bool RequestShapeEqual::operator()(const RequestCacheKey& a,
                                   const RequestCacheKey& b) const {
  return a.target == b.target && a.k == b.k && a.direction == b.direction &&
         a.missing == b.missing && a.algorithm == b.algorithm &&
         a.agg1 == b.agg1 && a.agg2 == b.agg2 && a.allowed == b.allowed;
}

uint64_t FingerprintCube(const UnfairnessCube& cube) {
  uint64_t h = fnv::kOffset;
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t n = cube.axis_size(d);
    fnv::HashValue(&h, static_cast<uint64_t>(n));
    for (size_t pos = 0; pos < n; ++pos) {
      fnv::HashValue(&h, cube.axis_id(d, pos));
    }
  }
  size_t groups = cube.axis_size(Dimension::kGroup);
  size_t queries = cube.axis_size(Dimension::kQuery);
  size_t locations = cube.axis_size(Dimension::kLocation);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        std::optional<double> value = cube.Get(g, q, l);
        fnv::HashValue(&h,
                       static_cast<unsigned char>(value.has_value() ? 1 : 0));
        if (value.has_value()) {
          // Bit pattern, not the double itself: 0.0 vs -0.0 and NaN payloads
          // must all perturb the digest deterministically.
          uint64_t bits;
          static_assert(sizeof(bits) == sizeof(*value));
          std::memcpy(&bits, &*value, sizeof(bits));
          fnv::HashValue(&h, bits);
        }
      }
    }
  }
  return h;
}

}  // namespace fairjob
