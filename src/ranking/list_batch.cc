#include "ranking/list_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/metrics.h"
#include "common/trace.h"
#include "ranking/simd.h"

namespace fairjob {
namespace {

// Position arrays are unique_lists × universe ints; cap the arena at 2^28
// entries (1 GiB) so a pathological cell fails loudly instead of thrashing.
constexpr uint64_t kMaxArenaEntries = uint64_t{1} << 28;

// FNV-1a over a dense-id sequence; used to bucket identical list contents
// onto one arena slot (candidates are verified element-wise).
uint64_t HashDenseIds(const int32_t* ids, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(ids[i]));
    h *= 1099511628211ULL;
  }
  return h;
}

// Gathered rank/membership scans run through fixed stack chunks so the
// scratch-less kernels (Footrule, RBO) stay allocation-free.
constexpr size_t kGatherChunk = 256;

// `measure.batch.*` observability (docs/observability.md). Resolved once;
// while metrics are disabled each hook costs one relaxed load.
Counter* PairsEvaluated() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.batch.pairs_evaluated");
  return counter;
}
Counter* ListsInterned() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.batch.lists_interned");
  return counter;
}
Counter* ItemsInterned() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.batch.items_interned");
  return counter;
}
LatencyHistogram* MakeLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("measure.batch.make_us");
  return histogram;
}

}  // namespace

Result<ListDistanceBatch> ListDistanceBatch::Make(
    const std::vector<const RankedList*>& lists) {
  ScopedTimer timer(MakeLatency());
  ListDistanceBatch batch;
  size_t n = lists.size();
  batch.rep_.reserve(n);
  batch.offsets_.push_back(0);

  // Pass 1: intern every item id into the dense [0, U) universe and
  // deduplicate list contents — identical lists map onto one arena slot, so
  // the slot arrays below scale with *distinct* lists.
  size_t total_items = 0;
  for (const RankedList* list : lists) {
    if (list == nullptr) {
      return Status::InvalidArgument("list batch given a null list");
    }
    total_items += list->size();
  }
  std::unordered_map<int32_t, int32_t> dense_of;
  dense_of.reserve(total_items);
  // Content hash → slots with that hash (collisions verified element-wise).
  std::unordered_map<uint64_t, std::vector<size_t>> slot_of_hash;
  std::vector<int32_t> scratch_ids;
  for (size_t l = 0; l < n; ++l) {
    const RankedList& list = *lists[l];
    if (list.empty()) {
      return Status::InvalidArgument(
          "list " + std::to_string(l) +
          " is empty; distance kernels need non-empty lists");
    }
    scratch_ids.clear();
    for (int32_t item : list) {
      auto [it, inserted] = dense_of.emplace(
          item, static_cast<int32_t>(batch.item_ids_.size()));
      if (inserted) batch.item_ids_.push_back(item);
      scratch_ids.push_back(it->second);
    }
    uint64_t hash = HashDenseIds(scratch_ids.data(), scratch_ids.size());
    std::vector<size_t>& candidates = slot_of_hash[hash];
    size_t slot = SIZE_MAX;
    for (size_t candidate : candidates) {
      size_t len =
          batch.offsets_[candidate + 1] - batch.offsets_[candidate];
      if (len == scratch_ids.size() &&
          std::memcmp(batch.dense_.data() + batch.offsets_[candidate],
                      scratch_ids.data(),
                      len * sizeof(int32_t)) == 0) {
        slot = candidate;
        break;
      }
    }
    if (slot == SIZE_MAX) {
      slot = batch.offsets_.size() - 1;
      batch.dense_.insert(batch.dense_.end(), scratch_ids.begin(),
                          scratch_ids.end());
      batch.offsets_.push_back(batch.dense_.size());
      candidates.push_back(slot);
    }
    batch.rep_.push_back(slot);
  }

  size_t num_slots = batch.offsets_.size() - 1;
  size_t universe = batch.item_ids_.size();
  if (static_cast<uint64_t>(num_slots) * universe > kMaxArenaEntries) {
    return Status::InvalidArgument(
        "list batch arena too large: " + std::to_string(num_slots) +
        " distinct lists x " + std::to_string(universe) + " distinct items");
  }

  // Pass 2: per-slot position arrays and membership bitmaps. A repeated
  // dense id within one slot is a duplicate — validated here once instead
  // of once per pair.
  batch.words_ = (universe + 63) / 64;
  batch.pos_.assign(num_slots * universe, -1);
  batch.bits_.assign(num_slots * batch.words_, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    int32_t* pos = batch.pos_.data() + s * universe;
    uint64_t* bits = batch.bits_.data() + s * batch.words_;
    const int32_t* ids = batch.dense_.data() + batch.offsets_[s];
    size_t len = batch.offsets_[s + 1] - batch.offsets_[s];
    for (size_t r = 0; r < len; ++r) {
      int32_t u = ids[r];
      if (pos[u] != -1) {
        return Status::InvalidArgument(
            "ranked list contains duplicate item id " +
            std::to_string(batch.item_ids_[static_cast<size_t>(u)]));
      }
      pos[u] = static_cast<int32_t>(r);
      bits[static_cast<size_t>(u) / 64] |= uint64_t{1}
                                           << (static_cast<size_t>(u) % 64);
    }
  }

  batch.stats_.lists_interned = n;
  batch.stats_.unique_lists = num_slots;
  batch.stats_.items_interned = total_items;
  batch.stats_.universe_size = universe;
  ListsInterned()->Add(n);
  ItemsInterned()->Add(total_items);
  return batch;
}

Status ListDistanceBatch::CheckPair(size_t i, size_t j) const {
  if (i >= num_lists() || j >= num_lists()) {
    return Status::InvalidArgument("list index out of range");
  }
  return Status::OK();
}

Result<double> ListDistanceBatch::KendallTauFull(size_t i, size_t j,
                                                 Scratch* scratch) const {
  FAIRJOB_RETURN_IF_ERROR(CheckPair(i, j));
  PairsEvaluated()->Add(1);
  size_t na = list_size(i);
  size_t nb = list_size(j);
  if (na != nb) {
    return Status::InvalidArgument(
        "full Kendall-Tau needs lists over the same item set; use "
        "KendallTauTopK for top-k lists");
  }
  size_t si = rep_[i];
  size_t sj = rep_[j];
  const int32_t* pa = pos_.data() + si * universe_size();
  const int32_t* db = dense_.data() + offsets_[sj];
  // Rewrite j's list in terms of i's positions (the reference's `mapped`
  // vector); equal sizes and duplicate-free lists make "every item of j is
  // ranked by i" equivalent to "same item set". The gather is the SIMD
  // kernel; the absent check scans the gathered ranks.
  std::vector<int32_t>& mapped = scratch->mapped_;
  mapped.resize(nb);
  simd::GatherPositions(pa, db, nb, mapped.data());
  for (size_t r = 0; r < nb; ++r) {
    int32_t p = mapped[r];
    if (p < 0) {
      return Status::InvalidArgument(
          "lists rank different item sets (item " +
          std::to_string(item_ids_[static_cast<size_t>(db[r])]) + " missing)");
    }
  }
  if (na == 1) return 0.0;
  uint64_t inv = CountInversionsInPlace(mapped, scratch->merge_);
  double max_pairs =
      static_cast<double>(na) * static_cast<double>(na - 1) / 2.0;
  return static_cast<double>(inv) / max_pairs;
}

Result<double> ListDistanceBatch::KendallTauTopK(size_t i, size_t j, double p,
                                                 Scratch* scratch) const {
  FAIRJOB_RETURN_IF_ERROR(CheckPair(i, j));
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("penalty p must lie in [0, 1]");
  }
  PairsEvaluated()->Add(1);
  size_t na = list_size(i);
  size_t nb = list_size(j);
  size_t si = rep_[i];
  size_t sj = rep_[j];
  const int32_t* pa = pos_.data() + si * universe_size();
  const int32_t* pb = pos_.data() + sj * universe_size();
  const int32_t* da = dense_.data() + offsets_[si];
  const int32_t* db = dense_.data() + offsets_[sj];

  // Counts the reference's cases instead of scanning its O(u²) pairs. Over
  // a's items in a-rank order, take each item's b-rank, with `sentinel`
  // (below every real b-rank) for items absent from b. Then:
  //  · two common items cost 1 iff b reverses them (case 1), and a common
  //    item ranked below an a-only item in a costs 1 (case 2) — both are
  //    strict inversions of that sequence; two a-only items tie on the
  //    sentinel and are not inversions;
  //  · a common item costs 1 against every b-only item b ranks above it
  //    (case 2) — one prefix count over b;
  //  · every (a-only, b-only) pair costs 1 (case 3);
  //  · pairs confined to one list cost p (case 4): C(s,2) + C(t,2) with s
  //    a-only and t b-only items.
  // The integer counts are combined once with the reference's expression.
  const int32_t sentinel = static_cast<int32_t>(nb);
  std::vector<int32_t>& rank_b = scratch->mapped_;
  rank_b.resize(na);
  simd::GatherPositions(pb, da, na, rank_b.data());
  uint64_t only_a = 0;
  for (size_t r = 0; r < na; ++r) {
    if (rank_b[r] < 0) {
      rank_b[r] = sentinel;
      ++only_a;
    }
  }
  uint64_t discordant = CountInversionsInPlace(rank_b, scratch->merge_);

  std::vector<int32_t>& rank_a = scratch->gather_;
  rank_a.resize(nb);
  simd::GatherPositions(pa, db, nb, rank_a.data());
  uint64_t only_b = 0;
  for (size_t r = 0; r < nb; ++r) {
    if (rank_a[r] < 0) {
      ++only_b;
    } else {
      discordant += only_b;  // b-only items b ranks above this common item
    }
  }
  discordant += only_a * only_b;
  auto pairs_of = [](uint64_t n) {
    return n < 2 ? uint64_t{0} : n * (n - 1) / 2;
  };
  uint64_t penalized = pairs_of(only_a) + pairs_of(only_b);
  double penalty =
      static_cast<double>(discordant) + p * static_cast<double>(penalized);

  auto pairs_within = [](size_t n) {
    return static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  };
  double max_penalty = static_cast<double>(na) * static_cast<double>(nb) +
                       p * (pairs_within(na) + pairs_within(nb));
  if (max_penalty <= 0.0) return 0.0;
  double d = penalty / max_penalty;
  return std::min(1.0, std::max(0.0, d));
}

Result<double> ListDistanceBatch::Jaccard(size_t i, size_t j) const {
  FAIRJOB_RETURN_IF_ERROR(CheckPair(i, j));
  PairsEvaluated()->Add(1);
  size_t na = list_size(i);
  size_t nb = list_size(j);
  size_t shorter = std::min(na, nb);
  size_t si = rep_[i];
  size_t sj = rep_[j];
  size_t inter = 0;
  if (words_ <= shorter) {
    // Dense universe: one popcount sweep over the bitmaps beats probing.
    // simd::IntersectPopcount dispatches to the AVX2 nibble-LUT kernel when
    // available; the count is integer work, so both paths agree exactly.
    const uint64_t* ba = bits_.data() + si * words_;
    const uint64_t* bb = bits_.data() + sj * words_;
    inter = simd::IntersectPopcount(ba, bb, words_);
  } else {
    // Sparse universe: probe the shorter list against the other's
    // position array, a gather + sign scan in fixed stack chunks.
    size_t probe = na <= nb ? si : sj;
    size_t other = na <= nb ? sj : si;
    const int32_t* ids = dense_.data() + offsets_[probe];
    const int32_t* pos = pos_.data() + other * universe_size();
    int32_t buf[kGatherChunk];
    for (size_t base = 0; base < shorter; base += kGatherChunk) {
      size_t len = std::min(kGatherChunk, shorter - base);
      simd::GatherPositions(pos, ids + base, len, buf);
      for (size_t r = 0; r < len; ++r) {
        if (buf[r] >= 0) ++inter;
      }
    }
  }
  size_t uni = na + nb - inter;
  // Same expression as JaccardIndex / JaccardDistance.
  double index = static_cast<double>(inter) / static_cast<double>(uni);
  return 1.0 - index;
}

Result<double> ListDistanceBatch::FootruleTopK(size_t i, size_t j) const {
  FAIRJOB_RETURN_IF_ERROR(CheckPair(i, j));
  PairsEvaluated()->Add(1);
  size_t na = list_size(i);
  size_t nb = list_size(j);
  size_t si = rep_[i];
  size_t sj = rep_[j];
  const int32_t* pa = pos_.data() + si * universe_size();
  const int32_t* pb = pos_.data() + sj * universe_size();
  const int32_t* da = dense_.data() + offsets_[si];
  const int32_t* db = dense_.data() + offsets_[sj];
  double la = static_cast<double>(na) + 1.0;  // virtual position ℓ_a
  double lb = static_cast<double>(nb) + 1.0;

  // Same canonical order as the per-pair FootruleTopK: a's items in rank
  // order, then b-only items in rank order. Rank lookups run through the
  // SIMD gather in stack chunks; the FP accumulation stays scalar in the
  // reference's term order, preserving bitwise identity.
  double total = 0.0;
  int32_t buf[kGatherChunk];
  for (size_t base = 0; base < na; base += kGatherChunk) {
    size_t len = std::min(kGatherChunk, na - base);
    simd::GatherPositions(pb, da + base, len, buf);
    for (size_t r = 0; r < len; ++r) {
      size_t position_a = base + r + 1;
      int32_t rb = buf[r];
      double position_b = rb >= 0 ? static_cast<double>(rb + 1) : lb;
      total += std::fabs(static_cast<double>(position_a) - position_b);
    }
  }
  for (size_t base = 0; base < nb; base += kGatherChunk) {
    size_t len = std::min(kGatherChunk, nb - base);
    simd::GatherPositions(pa, db + base, len, buf);
    for (size_t r = 0; r < len; ++r) {
      if (buf[r] < 0) {
        total += std::fabs(la - static_cast<double>(base + r + 1));
      }
    }
  }

  double max_total = 0.0;
  for (size_t r = 1; r <= na; ++r) {
    max_total += std::fabs(static_cast<double>(r) - lb);
  }
  for (size_t r = 1; r <= nb; ++r) {
    max_total += std::fabs(static_cast<double>(r) - la);
  }
  if (max_total <= 0.0) return 0.0;
  double d = total / max_total;
  return std::min(1.0, std::max(0.0, d));
}

Result<double> ListDistanceBatch::Rbo(size_t i, size_t j, double p) const {
  FAIRJOB_RETURN_IF_ERROR(CheckPair(i, j));
  if (!(p > 0.0) || !(p < 1.0)) {
    return Status::InvalidArgument("RBO persistence p must lie in (0, 1)");
  }
  PairsEvaluated()->Add(1);
  size_t na = list_size(i);
  size_t nb = list_size(j);
  size_t si = rep_[i];
  size_t sj = rep_[j];
  const int32_t* pa = pos_.data() + si * universe_size();
  const int32_t* pb = pos_.data() + sj * universe_size();
  const int32_t* da = dense_.data() + offsets_[si];
  const int32_t* db = dense_.data() + offsets_[sj];
  size_t depth = std::min(na, nb);

  double weight = 1.0 - p;  // (1 − p)·p^{d−1} at d = 1
  double sum = 0.0;
  size_t overlap = 0;
  double agreement_at_depth = 0.0;
  // Cross-rank lookups are gathered per chunk through the SIMD kernel; the
  // geometric-weight recurrence stays scalar in depth order (bitwise
  // contract).
  int32_t buf_rb[kGatherChunk];
  int32_t buf_ra[kGatherChunk];
  for (size_t base = 0; base < depth; base += kGatherChunk) {
    size_t len = std::min(kGatherChunk, depth - base);
    simd::GatherPositions(pb, da + base, len, buf_rb);
    simd::GatherPositions(pa, db + base, len, buf_ra);
    for (size_t r = 0; r < len; ++r) {
      size_t d = base + r;
      int32_t ai = da[d];
      int32_t bi = db[d];
      // The reference's incremental hash-set overlap, on position arrays:
      // "a[d] already seen in b" is pos_b[a[d]] <= d (b[d] included, as the
      // reference inserts before testing), and symmetrically.
      if (ai == bi) {
        ++overlap;
      } else {
        int32_t rb = buf_rb[r];
        if (rb >= 0 && static_cast<size_t>(rb) <= d) ++overlap;
        int32_t ra = buf_ra[r];
        if (ra >= 0 && static_cast<size_t>(ra) <= d) ++overlap;
      }
      agreement_at_depth =
          static_cast<double>(overlap) / static_cast<double>(d + 1);
      sum += weight * agreement_at_depth;
      weight *= p;
    }
  }
  double rbo = sum + std::pow(p, static_cast<double>(depth)) *
                         agreement_at_depth;
  return 1.0 - std::clamp(rbo, 0.0, 1.0);
}

}  // namespace fairjob
