#include "ranking/exposure.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>

namespace fairjob {
namespace {

// The one place the log-inverse curve is written down; the memo table below
// is filled by this expression, so table lookups are bitwise-identical to
// direct computation.
double LogInverseExposure(size_t rank) {
  return 1.0 / std::log(1.0 + static_cast<double>(rank));
}

// One generation of the shared memo table. Generations are never freed:
// outstanding PositionBiasTable::View pointers must stay valid for the
// process lifetime, and doubling growth bounds the retained total at 2x the
// final size. Each generation links the one it superseded, so every
// generation stays reachable from g_bias_table (a leak checker sees retained
// memory, not a leak).
struct BiasTableGen {
  size_t size;
  double* data;
  const BiasTableGen* prev;
};

std::atomic<const BiasTableGen*> g_bias_table{nullptr};
std::mutex g_bias_grow_mutex;

const BiasTableGen* GrowBiasTable(size_t min_ranks) {
  std::lock_guard<std::mutex> lock(g_bias_grow_mutex);
  const BiasTableGen* current = g_bias_table.load(std::memory_order_acquire);
  if (current != nullptr && current->size >= min_ranks) return current;
  size_t size = current != nullptr ? current->size : 0;
  if (size < 1024) size = 1024;
  while (size < min_ranks) size *= 2;
  auto* grown = new BiasTableGen{size, new double[size], current};
  size_t copied = 0;
  if (current != nullptr) {
    // Carrying the old prefix over by copy (not recomputation) makes the
    // growth guaranteed-identical even if libm ever differed call-to-call.
    std::memcpy(grown->data, current->data, current->size * sizeof(double));
    copied = current->size;
  }
  for (size_t pos = copied; pos < size; ++pos) {
    grown->data[pos] = LogInverseExposure(pos + 1);
  }
  g_bias_table.store(grown, std::memory_order_release);
  return grown;
}

}  // namespace

PositionBiasTable::View PositionBiasTable::LogInverse(size_t min_ranks) {
  const BiasTableGen* table = g_bias_table.load(std::memory_order_acquire);
  if (min_ranks > 0 && (table == nullptr || table->size < min_ranks)) {
    table = GrowBiasTable(min_ranks);
  }
  if (table == nullptr) return View{};
  return View{table->data, table->size};
}

double ExposureAtRank(size_t rank) {
  // Read-only probe: a one-off caller never grows (or allocates) the table;
  // the batched engines grow it via PositionBiasTable::LogInverse.
  const BiasTableGen* table = g_bias_table.load(std::memory_order_acquire);
  if (table != nullptr && rank >= 1 && rank <= table->size) {
    return table->data[rank - 1];
  }
  return LogInverseExposure(rank);
}

double ExposureAtRankPower(size_t rank, double gamma) {
  return std::pow(static_cast<double>(rank), -gamma);
}

Result<double> RelevanceFromRank(size_t rank, size_t result_size) {
  if (rank == 0) return Status::InvalidArgument("ranks are 1-based");
  if (rank > result_size) {
    return Status::InvalidArgument("rank exceeds result-set size");
  }
  return 1.0 - static_cast<double>(rank) / static_cast<double>(result_size);
}

double TotalExposure(const std::vector<size_t>& ranks) {
  double total = 0.0;
  for (size_t r : ranks) total += ExposureAtRank(r);
  return total;
}

Result<double> TotalRelevance(const std::vector<size_t>& ranks,
                              size_t result_size) {
  double total = 0.0;
  for (size_t r : ranks) {
    FAIRJOB_ASSIGN_OR_RETURN(double rel, RelevanceFromRank(r, result_size));
    total += rel;
  }
  return total;
}

}  // namespace fairjob
