#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace fairbench {

using fairjob::AxisSelector;
using fairjob::ComparisonRequest;
using fairjob::ComparisonResult;
using fairjob::Dimension;
using fairjob::QuantificationRequest;
using fairjob::QuantificationResult;
using fairjob::RankDirection;
using fairjob::UnfairnessCube;

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<size_t> Expand(const AxisSelector& sel, size_t axis_size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(axis_size);
  for (size_t i = 0; i < axis_size; ++i) all[i] = i;
  return all;
}

// Mean of the present cells in the box, by direct summation.
std::optional<double> BoxMean(const UnfairnessCube& cube,
                              const std::vector<size_t>& g,
                              const std::vector<size_t>& q,
                              const std::vector<size_t>& l) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t gi : g) {
    for (size_t qi : q) {
      for (size_t li : l) {
        std::optional<double> v = cube.Get(gi, qi, li);
        if (v.has_value()) {
          sum += *v;
          ++count;
        }
      }
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

}  // namespace

std::vector<std::optional<double>> TopKOracle(
    const UnfairnessCube& cube, const QuantificationRequest& request) {
  Dimension d1, d2;
  fairjob::QuantificationOtherDims(request.target, &d1, &d2);
  size_t n = cube.axis_size(request.target);
  std::vector<std::optional<double>> values(n);
  for (size_t pos = 0; pos < n; ++pos) {
    AxisSelector sel[3];
    sel[static_cast<size_t>(request.target)] = AxisSelector::Single(pos);
    sel[static_cast<size_t>(d1)] = request.agg1;
    sel[static_cast<size_t>(d2)] = request.agg2;
    values[pos] = cube.Average(sel[0], sel[1], sel[2]);
  }
  return values;
}

bool TopKMatches(const UnfairnessCube& cube,
                 const QuantificationRequest& request,
                 const std::vector<std::optional<double>>& oracle,
                 const QuantificationResult& answer, std::string* why) {
  const bool most = request.direction == RankDirection::kMostUnfair;
  std::vector<double> defined;
  for (const auto& v : oracle) {
    if (v.has_value()) defined.push_back(*v);
  }
  std::sort(defined.begin(), defined.end());
  if (most) std::reverse(defined.begin(), defined.end());
  size_t expect = std::min(request.k, defined.size());
  if (answer.answers.size() != expect) {
    *why = "returned " + std::to_string(answer.answers.size()) +
           " answers, expected " + std::to_string(expect);
    return false;
  }
  if (expect == 0) return true;
  const double kth = defined[expect - 1];
  std::unordered_set<int32_t> seen;
  for (size_t i = 0; i < answer.answers.size(); ++i) {
    const auto& a = answer.answers[i];
    fairjob::Result<size_t> pos = cube.PosOf(request.target, a.id);
    if (!pos.ok() || !oracle[*pos].has_value()) {
      *why = "id " + std::to_string(a.id) + " has no defined aggregate";
      return false;
    }
    if (!seen.insert(a.id).second) {
      *why = "id " + std::to_string(a.id) + " returned twice";
      return false;
    }
    if (!Close(a.value, *oracle[*pos])) {
      *why = "id " + std::to_string(a.id) + " value differs from the oracle";
      return false;
    }
    bool worse_than_kth = most ? a.value < kth && !Close(a.value, kth)
                               : a.value > kth && !Close(a.value, kth);
    if (worse_than_kth) {
      *why = "id " + std::to_string(a.id) + " is outside the top k";
      return false;
    }
    if (i > 0) {
      double prev = answer.answers[i - 1].value;
      bool out_of_order = most ? a.value > prev && !Close(a.value, prev)
                               : a.value < prev && !Close(a.value, prev);
      if (out_of_order) {
        *why = "answers out of order";
        return false;
      }
    }
  }
  return true;
}

bool ComparisonMatches(const UnfairnessCube& cube,
                       const ComparisonRequest& request,
                       const ComparisonResult& answer, std::string* why) {
  Dimension agg_dim = Dimension::kGroup;
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    if (d != request.compare_dim && d != request.breakdown_dim) agg_dim = d;
  }
  auto box = [&](const std::vector<size_t>& r,
                 const std::vector<size_t>& breakdown) {
    std::vector<size_t> axes[3];
    axes[static_cast<size_t>(request.compare_dim)] = r;
    axes[static_cast<size_t>(request.breakdown_dim)] = breakdown;
    axes[static_cast<size_t>(agg_dim)] =
        Expand(request.aggregated, cube.axis_size(agg_dim));
    return BoxMean(cube, axes[0], axes[1], axes[2]);
  };
  std::vector<size_t> r1 = request.r1_set.empty()
                               ? std::vector<size_t>{request.r1_pos}
                               : request.r1_set;
  std::vector<size_t> r2 = request.r2_set.empty()
                               ? std::vector<size_t>{request.r2_pos}
                               : request.r2_set;
  std::vector<size_t> breakdown = Expand(
      request.breakdown, cube.axis_size(request.breakdown_dim));
  std::optional<double> all1 = box(r1, breakdown);
  std::optional<double> all2 = box(r2, breakdown);
  if (!all1 || !all2 || !Close(answer.overall_d1, *all1) ||
      !Close(answer.overall_d2, *all2)) {
    *why = "overall aggregates differ from the oracle";
    return false;
  }
  size_t row = 0;
  size_t reversed = 0;
  for (size_t b : breakdown) {
    std::optional<double> d1 = box(r1, {b});
    std::optional<double> d2 = box(r2, {b});
    if (!d1 || !d2) continue;
    if (row >= answer.rows.size()) {
      *why = "missing breakdown rows";
      return false;
    }
    const fairjob::ComparisonRow& got = answer.rows[row++];
    if (got.breakdown_id != cube.axis_id(request.breakdown_dim, b) ||
        !Close(got.d1, *d1) || !Close(got.d2, *d2)) {
      *why = "breakdown row differs from the oracle";
      return false;
    }
    // The paper's rule: the row's order is not the overall order, unless
    // both comparisons are exact ties.
    double o1 = answer.overall_d1, o2 = answer.overall_d2;
    bool flips = (o1 >= o2 && got.d1 <= got.d2) || (o1 <= o2 && got.d1 >= got.d2);
    bool both_tied = o1 == o2 && got.d1 == got.d2;
    bool expect_reversed = flips && !both_tied;
    if (got.reversed != expect_reversed) {
      *why = "reversal flag differs from the paper's rule";
      return false;
    }
    if (expect_reversed) {
      if (reversed >= answer.reversed.size() ||
          answer.reversed[reversed].breakdown_id != got.breakdown_id) {
        *why = "reversed list differs from the flagged rows";
        return false;
      }
      ++reversed;
    }
  }
  if (row != answer.rows.size() || reversed != answer.reversed.size()) {
    *why = "extra breakdown rows";
    return false;
  }
  return true;
}

bool SameBits(const QuantificationResult& a, const QuantificationResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].id != b.answers[i].id ||
        Bits(a.answers[i].value) != Bits(b.answers[i].value)) {
      return false;
    }
  }
  return true;
}

uint64_t AnswerDigest(const QuantificationResult& result) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(result.answers.size());
  for (const auto& a : result.answers) {
    mix(static_cast<uint32_t>(a.id));
    mix(Bits(a.value));
  }
  return h;
}

bool OracleSelfTest() {
  UnfairnessCube cube =
      std::move(UnfairnessCube::Make({0, 1, 2}, {10, 11}, {20, 21})).value();
  for (size_t g = 0; g < 3; ++g) {
    for (size_t q = 0; q < 2; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        cube.Set(g, q, l, 0.1 * static_cast<double>(g + 1) + 0.01 * q + l);
      }
    }
  }
  QuantificationRequest request;
  request.target = Dimension::kGroup;
  request.k = 2;
  std::vector<std::optional<double>> oracle = TopKOracle(cube, request);
  QuantificationResult good;
  good.answers = {{2, *oracle[2]}, {1, *oracle[1]}};
  std::string why;
  if (!TopKMatches(cube, request, oracle, good, &why)) return false;
  // One flipped low mantissa bit is within tolerance; a corrupted value, a
  // wrong member or a wrong order is not.
  QuantificationResult corrupted = good;
  corrupted.answers[0].value += 1e-6;
  QuantificationResult wrong_member = good;
  wrong_member.answers[1] = {0, *oracle[0]};
  QuantificationResult wrong_order = good;
  std::swap(wrong_order.answers[0], wrong_order.answers[1]);
  for (const QuantificationResult* bad :
       {&corrupted, &wrong_member, &wrong_order}) {
    if (TopKMatches(cube, request, oracle, *bad, &why)) return false;
  }
  if (SameBits(good, corrupted) ||
      AnswerDigest(good) == AnswerDigest(corrupted)) {
    return false;
  }
  ComparisonRequest compare;
  compare.compare_dim = Dimension::kGroup;
  compare.r1_pos = 0;
  compare.r2_pos = 2;
  compare.breakdown_dim = Dimension::kLocation;
  fairjob::Result<ComparisonResult> answer =
      fairjob::SolveComparison(cube, compare);
  if (!answer.ok() || !ComparisonMatches(cube, compare, *answer, &why)) {
    return false;
  }
  ComparisonResult flipped = *answer;
  flipped.rows[0].reversed = !flipped.rows[0].reversed;
  return !ComparisonMatches(cube, compare, flipped, &why);
}

}  // namespace fairbench
