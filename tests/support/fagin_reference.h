#ifndef FAIRJOB_TESTS_SUPPORT_FAGIN_REFERENCE_H_
#define FAIRJOB_TESTS_SUPPORT_FAGIN_REFERENCE_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/fagin.h"
#include "core/fagin_family.h"

namespace fairjob {

// The pre-dense Fagin engine, kept verbatim as an independent reference:
// random access is an std::unordered_map probe per list, the allowed filter
// is a per-run unordered_set, and candidate bookkeeping lives in hash
// tables. tests/fagin_dense_test.cc proves the dense engine returns
// bitwise-identical top-k answers with identical access-count semantics,
// and bench_fagin_perf's --dense_compare mode enforces the dense speedup
// against this engine. It lives in the fairjob_testing library, which only
// tests/ and bench/ targets link.
//
// Runs publish metrics under "fagin.ref_<algorithm>.*".

// Hash-based random-access view over an InvertedIndex, exactly the map the
// pre-dense InvertedIndex carried. Build once, run many times.
class HashedListView {
 public:
  explicit HashedListView(const InvertedIndex* list);

  const InvertedIndex& list() const { return *list_; }
  size_t size() const { return list_->size(); }
  const ScoredEntry& entry(size_t i) const { return list_->entry(i); }
  std::optional<double> Find(int32_t pos) const;

 private:
  const InvertedIndex* list_;
  std::unordered_map<int32_t, double> by_pos_;
};

// One view per list, in order. Lists must be non-null.
std::vector<HashedListView> BuildHashedViews(
    const std::vector<const InvertedIndex*>& lists);

// Reference counterparts of RunTopK's TA / FA / NRA / scan.
// Contracts (and error cases) match the dense engine exactly;
// TopKOptions::universe_hint is ignored.
Result<std::vector<ScoredEntry>> ReferenceFaginTopK(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);
Result<std::vector<ScoredEntry>> ReferenceFaginFA(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);
Result<std::vector<ScoredEntry>> ReferenceFaginNRA(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);
Result<std::vector<ScoredEntry>> ReferenceScanTopK(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);

// Dispatches like RunTopK.
Result<std::vector<ScoredEntry>> ReferenceRunTopK(
    TopKAlgorithm algorithm, const std::vector<HashedListView>& lists,
    const TopKOptions& options, FaginStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_TESTS_SUPPORT_FAGIN_REFERENCE_H_
