#include "serve/cube_snapshot.h"

#include <algorithm>
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

std::shared_ptr<const CubeSnapshot> CubeSnapshot::Make(UnfairnessCube cube) {
  IndexSet indices = IndexSet::Build(cube);
  const uint64_t lineage = FingerprintCube(cube);
  auto snapshot = std::shared_ptr<CubeSnapshot>(new CubeSnapshot(
      std::move(cube), std::move(indices), lineage, /*version=*/0));
  // One pass over the columns: the sums per query, per location and in
  // total.
  const UnfairnessCube& c = snapshot->cube_;
  const size_t num_queries = c.axis_size(Dimension::kQuery);
  const size_t num_locations = c.axis_size(Dimension::kLocation);
  snapshot->query_epoch_sums_.assign(num_queries, 0);
  snapshot->location_epoch_sums_.assign(num_locations, 0);
  uint64_t total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    uint64_t row = 0;
    for (size_t l = 0; l < num_locations; ++l) {
      const uint64_t mix =
          ColumnMix(q * num_locations + l, c.column_epoch(q, l));
      row += mix;
      snapshot->location_epoch_sums_[l] += mix;
    }
    snapshot->query_epoch_sums_[q] = row;
    total += row;
  }
  snapshot->epoch_total_ = total;
  snapshot->full_epoch_digest_ = Mix64(lineage, total);
  return snapshot;
}

std::shared_ptr<const CubeSnapshot> CubeSnapshot::MakeDerived(
    const CubeSnapshot& parent, UnfairnessCube cube, IndexSet indices,
    std::vector<CubeColumnRef> changed) {
  auto snapshot = std::shared_ptr<CubeSnapshot>(
      new CubeSnapshot(std::move(cube), std::move(indices), parent.lineage_,
                       parent.version_ + 1));
  snapshot->query_epoch_sums_ = parent.query_epoch_sums_;
  snapshot->location_epoch_sums_ = parent.location_epoch_sums_;
  uint64_t total = parent.epoch_total_;
  // Each changed column swaps its parent term for its new one, mod 2^64 —
  // the sums a from-scratch pass over the new epochs would compute.
  std::sort(changed.begin(), changed.end(),
            [](const CubeColumnRef& a, const CubeColumnRef& b) {
              if (a.query_pos != b.query_pos) return a.query_pos < b.query_pos;
              return a.location_pos < b.location_pos;
            });
  const size_t num_locations = parent.location_epoch_sums_.size();
  const UnfairnessCube& c = snapshot->cube_;
  for (size_t i = 0; i < changed.size(); ++i) {
    const size_t q = changed[i].query_pos;
    const size_t l = changed[i].location_pos;
    if (i > 0 && changed[i - 1].query_pos == q &&
        changed[i - 1].location_pos == l) {
      continue;
    }
    const size_t column = q * num_locations + l;
    const uint64_t delta = ColumnMix(column, c.column_epoch(q, l)) -
                           ColumnMix(column, parent.cube_.column_epoch(q, l));
    snapshot->query_epoch_sums_[q] += delta;
    snapshot->location_epoch_sums_[l] += delta;
    total += delta;
  }
  snapshot->epoch_total_ = total;
  snapshot->full_epoch_digest_ = Mix64(parent.lineage_, total);
  return snapshot;
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
