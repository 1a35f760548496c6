#include "serve/cube_snapshot.h"

#include <utility>

#include "serve/cache_key.h"

namespace fairjob {
namespace {

// murmur3's fmix64 finalizer: a bijection of 64-bit words in which every
// input bit flips each output bit with probability about 1/2.
uint64_t Fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Pseudo-random word for the pair (a, b). Fmix64(a) is a bijection, so two
// pairs collide before the outer finalizer only by accident of the sum.
uint64_t Mix64(uint64_t a, uint64_t b) { return Fmix64(Fmix64(a) + b); }

// One column's term of the additive digest: column index q * L + l, and
// epoch + 1 so that epoch 0 still mixes a non-zero word.
uint64_t ColumnMix(size_t column, uint64_t epoch) {
  return Mix64(static_cast<uint64_t>(column), epoch + 1);
}

}  // namespace

CubeSnapshot::CubeSnapshot(UnfairnessCube cube, IndexSet indices,
                           uint64_t lineage, uint64_t version)
    : cube_(std::move(cube)),
      indices_(std::move(indices)),
      lineage_(lineage),
      version_(version) {
  const size_t num_queries = cube_.axis_size(Dimension::kQuery);
  const size_t num_locations = cube_.axis_size(Dimension::kLocation);
  query_epoch_sums_.assign(num_queries, 0);
  location_epoch_sums_.assign(num_locations, 0);
  uint64_t total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    uint64_t row = 0;
    for (size_t l = 0; l < num_locations; ++l) {
      const uint64_t mix =
          ColumnMix(q * num_locations + l, cube_.column_epoch(q, l));
      row += mix;
      location_epoch_sums_[l] += mix;
    }
    query_epoch_sums_[q] = row;
    total += row;
  }
  full_epoch_digest_ = Mix64(lineage_, total);
}

std::shared_ptr<const CubeSnapshot> CubeSnapshot::Make(UnfairnessCube cube) {
  IndexSet indices = IndexSet::Build(cube);
  const uint64_t lineage = FingerprintCube(cube);
  return MakeDerived(std::move(cube), std::move(indices), lineage,
                     /*version=*/0);
}

std::shared_ptr<const CubeSnapshot> CubeSnapshot::MakeDerived(
    UnfairnessCube cube, IndexSet indices, uint64_t lineage,
    uint64_t version) {
  return std::shared_ptr<const CubeSnapshot>(new CubeSnapshot(
      std::move(cube), std::move(indices), lineage, version));
}

uint64_t CubeSnapshot::EpochDigest(Dimension target,
                                   const std::vector<size_t>& agg1,
                                   const std::vector<size_t>& agg2) const {
  static const std::vector<size_t> kAll;
  const std::vector<size_t>* qs = &kAll;
  const std::vector<size_t>* ls = &kAll;
  switch (target) {
    case Dimension::kGroup:  // agg1 = queries, agg2 = locations
      qs = &agg1;
      ls = &agg2;
      break;
    case Dimension::kQuery:  // agg1 = groups, agg2 = locations
      ls = &agg2;
      break;
    case Dimension::kLocation:  // agg1 = groups, agg2 = queries
      qs = &agg2;
      break;
  }
  if (qs->empty() && ls->empty()) return full_epoch_digest_;
  const size_t num_queries = query_epoch_sums_.size();
  const size_t num_locations = location_epoch_sums_.size();
  uint64_t sum = 0;
  if (qs->empty()) {
    for (size_t l : *ls) {
      if (l < num_locations) sum += location_epoch_sums_[l];
    }
  } else if (ls->empty()) {
    for (size_t q : *qs) {
      if (q < num_queries) sum += query_epoch_sums_[q];
    }
  } else {
    for (size_t q : *qs) {
      if (q >= num_queries) continue;
      for (size_t l : *ls) {
        if (l < num_locations) {
          sum += ColumnMix(q * num_locations + l, cube_.column_epoch(q, l));
        }
      }
    }
  }
  return Mix64(lineage_, sum);
}

}  // namespace fairjob
