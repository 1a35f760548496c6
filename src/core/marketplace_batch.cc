#include "core/marketplace_batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "ranking/exposure.h"
#include "ranking/histogram.h"
#include "ranking/simd.h"

namespace fairjob {
namespace {

// Membership words one fill task owns (16384 workers): large enough to
// amortize the task, small enough to spread a crawl over every thread.
constexpr size_t kFillWordsPerTask = 256;

struct DemographicsHash {
  size_t operator()(const Demographics& d) const {
    uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the value ids
    for (ValueId v : d) {
      h = (h ^ static_cast<uint32_t>(v)) * 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Membership-table observability: table builds per dataset version, Update
// extensions, and how many (group × worker) labels were evaluated — the work
// the per-cell paths no longer do.
Counter* MembershipBuilds() {
  static Counter* const counter = MetricsRegistry::Global().counter(
      "cube.market.batch.membership_builds");
  return counter;
}
Counter* MembershipUpdates() {
  static Counter* const counter = MetricsRegistry::Global().counter(
      "cube.market.batch.membership_updates");
  return counter;
}
Counter* MembershipWorkersLabeled() {
  static Counter* const counter = MetricsRegistry::Global().counter(
      "cube.market.batch.membership_workers_labeled");
  return counter;
}
Counter* BatchCells() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("cube.market.batch.cells");
  return counter;
}

// The same kernel series the per-cell paths feed (measure.emd.* /
// measure.exposure.*), so dashboards keep one view of invocation totals
// whichever engine built the cube.
Counter* EmdInvocations() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.emd.invocations");
  return counter;
}
Counter* ExposureInvocations() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.exposure.invocations");
  return counter;
}
LatencyHistogram* ExposureLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("measure.exposure.latency_us");
  return histogram;
}

}  // namespace

MarketplaceGroupMembership::MarketplaceGroupMembership(
    const MarketplaceDataset& data, const GroupSpace& space)
    : num_workers_(data.num_workers()),
      num_groups_(space.num_groups()),
      words_per_group_((data.num_workers() + 63) / 64) {
  words_.assign(num_groups_ * words_per_group_, 0);
  LabelNewWorkers(data, space, 0);
  MembershipBuilds()->Add(1);
}

void MarketplaceGroupMembership::Update(const MarketplaceDataset& data,
                                        const GroupSpace& space) {
  size_t old_workers = num_workers_;
  size_t new_workers = data.num_workers();
  if (new_workers == old_workers) return;
  size_t new_words = (new_workers + 63) / 64;
  if (new_words != words_per_group_) {
    // Re-stride: each row's existing words move to the new row start; the
    // layout stays the pure function of the worker count that makes an
    // updated table equal a freshly built one.
    std::vector<uint64_t> grown(num_groups_ * new_words, 0);
    for (size_t g = 0; g < num_groups_; ++g) {
      std::copy_n(words_.data() + g * words_per_group_, words_per_group_,
                  grown.data() + g * new_words);
    }
    words_ = std::move(grown);
    words_per_group_ = new_words;
  }
  num_workers_ = new_workers;
  LabelNewWorkers(data, space, old_workers);
  MembershipUpdates()->Add(1);
}

void MarketplaceGroupMembership::LabelNewWorkers(const MarketplaceDataset& data,
                                                 const GroupSpace& space,
                                                 size_t first) {
  // Labels depend only on demographics, and a crawl repeats a few distinct
  // profiles across many workers: give each new worker a dense profile id...
  std::vector<uint32_t> profile_of(num_workers_ - first);
  std::vector<const Demographics*> profiles;
  {
    std::unordered_map<Demographics, uint32_t, DemographicsHash> ids;
    for (size_t w = first; w < num_workers_; ++w) {
      const Demographics& d =
          data.worker_demographics(static_cast<WorkerId>(w));
      auto [it, inserted] =
          ids.try_emplace(d, static_cast<uint32_t>(profiles.size()));
      if (inserted) profiles.push_back(&d);
      profile_of[w - first] = it->second;
    }
  }
  // ...match each profile against the labels once (CSR: profile p's groups
  // are groups_of[group_begin[p], group_begin[p + 1]))...
  std::vector<size_t> group_begin(profiles.size() + 1, 0);
  std::vector<uint32_t> groups_of;
  for (size_t p = 0; p < profiles.size(); ++p) {
    for (size_t g = 0; g < num_groups_; ++g) {
      if (space.label(static_cast<GroupId>(g)).Matches(*profiles[p])) {
        groups_of.push_back(static_cast<uint32_t>(g));
      }
    }
    group_begin[p + 1] = groups_of.size();
  }
  // ...and OR each worker's bit into its groups' rows. A task owns a block
  // of word columns across every row, so no two tasks share a word — not
  // even the partial word an Update extends.
  const size_t first_word = first >> 6;
  const size_t tasks =
      (words_per_group_ - first_word + kFillWordsPerTask - 1) /
      kFillWordsPerTask;
  ThreadPool& pool = ThreadPool::Shared();
  Status status =
      pool.ParallelFor(tasks, pool.num_threads() + 1, [&](size_t t) {
        size_t word_lo = first_word + t * kFillWordsPerTask;
        size_t w_lo = std::max(first, word_lo * 64);
        size_t w_hi =
            std::min(num_workers_, (word_lo + kFillWordsPerTask) * 64);
        for (size_t w = w_lo; w < w_hi; ++w) {
          uint32_t p = profile_of[w - first];
          uint64_t bit = uint64_t{1} << (w & 63);
          for (size_t k = group_begin[p]; k < group_begin[p + 1]; ++k) {
            words_[groups_of[k] * words_per_group_ + (w >> 6)] |= bit;
          }
        }
        return Status::OK();
      });
  // The fill body cannot fail, so neither can the fan-out.
  assert(status.ok());
  (void)status;
  MembershipWorkersLabeled()->Add(num_workers_ - first);
}

Result<MarketplaceCellBatch> MarketplaceCellBatch::Make(
    const GroupSpace& space, const MarketplaceGroupMembership& membership,
    const MarketRanking* ranking, MarketMeasure measure,
    const MeasureOptions& options) {
  FAIRJOB_RETURN_IF_ERROR(ValidateMarketplaceOptions(options));
  if (ranking == nullptr || ranking->workers.empty()) {
    return Status::NotFound("no ranking observed for this (query, location)");
  }
  if (measure != MarketMeasure::kEmd && measure != MarketMeasure::kExposure) {
    return Status::InvalidArgument("unknown marketplace measure");
  }

  size_t n = ranking->workers.size();
  // Probe arena: the membership word index and mask of each ranked worker,
  // computed once and reused across the whole group sweep.
  std::vector<uint32_t> probe_word(n);
  std::vector<uint64_t> probe_mask(n);
  for (size_t i = 0; i < n; ++i) {
    size_t worker = static_cast<size_t>(ranking->workers[i]);
    if (worker >= membership.num_workers()) {
      return Status::InvalidArgument(
          "membership table does not cover this ranking's workers (update it "
          "after adding workers)");
    }
    probe_word[i] = static_cast<uint32_t>(worker >> 6);
    probe_mask[i] = uint64_t{1} << (worker & 63);
  }
  FAIRJOB_ASSIGN_OR_RETURN(std::vector<double> values,
                           MarketplaceWorkerValues(*ranking, options));

  MarketplaceCellBatch batch;
  batch.space_ = &space;
  batch.measure_ = measure;
  size_t num_groups = space.num_groups();
  batch.member_counts_.assign(num_groups, 0);

  // Per-group position bitmap: bit i = "the worker at ranking position i is
  // a member". Rebuilt per group in place; the simd:: kernels sweep it.
  size_t pos_words = (n + 63) / 64;
  std::vector<uint64_t> posbits(pos_words);
  auto sweep_members = [&](GroupId g) {
    std::fill(posbits.begin(), posbits.end(), 0);
    const uint64_t* group_row = membership.group_bits(g);
    for (size_t i = 0; i < n; ++i) {
      if (group_row[probe_word[i]] & probe_mask[i]) {
        posbits[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  };

  if (measure == MarketMeasure::kEmd) {
    batch.bins_ = options.histogram_bins;
    batch.renormalized_.assign(num_groups * batch.bins_, 0.0);
    // Bin index of every position, computed once per cell instead of once
    // per (group, position) Histogram::Add.
    FAIRJOB_ASSIGN_OR_RETURN(
        Histogram layout, Histogram::Make(options.histogram_bins, 0.0, 1.0));
    std::vector<int32_t> bin_of(n);
    for (size_t i = 0; i < n; ++i) {
      bin_of[i] = static_cast<int32_t>(layout.BinOf(values[i]));
    }
    std::vector<uint32_t> counts(batch.bins_);
    for (size_t g = 0; g < num_groups; ++g) {
      sweep_members(static_cast<GroupId>(g));
      size_t members = 0;
      for (uint64_t word : posbits) {
        members += static_cast<size_t>(std::popcount(word));
      }
      batch.member_counts_[g] = static_cast<uint32_t>(members);
      if (members == 0) continue;
      std::fill(counts.begin(), counts.end(), 0);
      simd::MaskedBinCount(posbits.data(), pos_words, bin_of.data(),
                           counts.data());
      // Precompute the group's renormalized distribution: integer counts are
      // exact in double, so counts[b] / members is bitwise what
      // Histogram::Normalized() returns after `members` Add(1.0) calls, and
      // the second normalization replays Emd1D's ValidateAndNormalize (sum
      // in index order, then divide) — making every later pair O(bins_) with
      // identical FP terms.
      double* row = batch.renormalized_.data() + g * batch.bins_;
      double total = static_cast<double>(members);
      double renorm_total = 0.0;
      for (size_t b = 0; b < batch.bins_; ++b) {
        row[b] = static_cast<double>(counts[b]) / total;
      }
      for (size_t b = 0; b < batch.bins_; ++b) renorm_total += row[b];
      for (size_t b = 0; b < batch.bins_; ++b) row[b] /= renorm_total;
    }
  } else {
    batch.exposure_sums_.assign(num_groups, 0.0);
    batch.relevance_sums_.assign(num_groups, 0.0);
    // Position bias per position, from the shared memo table (log-inverse)
    // or one local power-law fill — either way the per-position value is the
    // exact double PositionBias computes in the per-cell paths.
    PositionBiasTable::View log_view;
    std::vector<double> power_bias;
    const double* bias_at = nullptr;
    if (options.exposure_model == ExposureModel::kLogInverse) {
      log_view = PositionBiasTable::LogInverse(n);
      bias_at = log_view.bias;
    } else {
      power_bias.resize(n);
      for (size_t i = 0; i < n; ++i) {
        power_bias[i] = ExposureAtRankPower(i + 1, options.exposure_gamma);
      }
      bias_at = power_bias.data();
    }
    std::vector<int32_t> positions(n);
    for (size_t g = 0; g < num_groups; ++g) {
      sweep_members(static_cast<GroupId>(g));
      size_t members =
          simd::CompressPositions(posbits.data(), pos_words, positions.data());
      batch.member_counts_[g] = static_cast<uint32_t>(members);
      if (members == 0) continue;
      // Ascending positions, separate accumulators — the exact term order of
      // MarketplaceCellContext::Make's interleaved loop.
      double exposure_sum = 0.0;
      double relevance_sum = 0.0;
      for (size_t k = 0; k < members; ++k) {
        int32_t pos = positions[k];
        exposure_sum += bias_at[pos];
        relevance_sum += values[static_cast<size_t>(pos)];
      }
      batch.exposure_sums_[g] = exposure_sum;
      batch.relevance_sums_[g] = relevance_sum;
    }
  }
  BatchCells()->Add(1);
  return batch;
}

Result<double> MarketplaceCellBatch::Unfairness(GroupId g) const {
  switch (measure_) {
    case MarketMeasure::kEmd:
      return Emd(g);
    case MarketMeasure::kExposure:
      return Exposure(g);
  }
  return Status::InvalidArgument("unknown marketplace measure");
}

Result<double> MarketplaceCellBatch::Emd(GroupId g) const {
  const size_t gi = static_cast<size_t>(g);
  if (member_counts_[gi] == 0) {
    return Status::NotFound("group has no members in this ranking");
  }
  const double* own = renormalized_.data() + gi * bins_;
  double sum = 0.0;
  size_t counted = 0;
  for (GroupId other : space_->Comparables(g)) {
    const size_t oi = static_cast<size_t>(other);
    if (member_counts_[oi] == 0) continue;
    const double* theirs = renormalized_.data() + oi * bins_;
    // Emd1D's CDF walk over the precomputed renormalized rows; a single bin
    // means zero ground distance, as in the reference.
    double emd = 0.0;
    if (bins_ > 1) {
      double cum = 0.0;
      for (size_t b = 0; b + 1 < bins_; ++b) {
        cum += own[b] - theirs[b];
        emd += std::fabs(cum);
      }
      emd /= static_cast<double>(bins_ - 1);
    }
    sum += emd;
    ++counted;
  }
  if (counted == 0) {
    return Status::NotFound("no comparable group has members in this ranking");
  }
  // One bulk add per cell row keeps the invocation totals identical to the
  // per-pair paths; per-pair latency sampling is intentionally absent, like
  // the batched search path (cube.market.column_us covers the phase).
  EmdInvocations()->Add(counted);
  return sum / static_cast<double>(counted);
}

Result<double> MarketplaceCellBatch::Exposure(GroupId g) const {
  const size_t gi = static_cast<size_t>(g);
  if (member_counts_[gi] == 0) {
    return Status::NotFound("group has no members in this ranking");
  }
  ExposureInvocations()->Add(1);
  ScopedTimer timer(ExposureLatency());
  double own_exp = exposure_sums_[gi];
  double own_rel = relevance_sums_[gi];
  double exp_denominator = own_exp;
  double rel_denominator = own_rel;
  size_t comparable_members = 0;
  for (GroupId other : space_->Comparables(g)) {
    const size_t oi = static_cast<size_t>(other);
    comparable_members += member_counts_[oi];
    exp_denominator += exposure_sums_[oi];
    rel_denominator += relevance_sums_[oi];
  }
  if (comparable_members == 0) {
    return Status::NotFound("no comparable group has members in this ranking");
  }
  double exp_share = own_exp / exp_denominator;
  double rel_share = rel_denominator > 0.0 ? own_rel / rel_denominator : 0.0;
  return std::fabs(exp_share - rel_share);
}

}  // namespace fairjob
