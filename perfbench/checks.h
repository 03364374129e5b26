// Output checks the benchmark runs on every run, outside the timed region,
// with its own arithmetic: feasibility is counted by brute force through
// DistanceEvaluator, never through the program's index.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/relation.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "distance/evaluator.h"

namespace perfbench {

/// Failed checks, counted once per outlier save however many checks it
/// fails, plus a per-reason breakdown for the log.
struct CheckTally {
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> reasons;

  /// Records one failing save with every reason it failed.
  void Fail(const std::vector<const char*>& why);
  void Merge(const CheckTally& other);
};

/// Checks one SaveOutliers result against its input `data`:
///  - the status is OK and inlier/outlier rows partition the input;
///  - every termination is definitive (completed or infeasible);
///  - each saved tuple has at least η−1 inliers within ε (Formula 4);
///  - the reported cost equals Δ(t_o, t_o′);
///  - adjusted_attributes equals the attributes that actually changed;
///  - cost ≥ lower_bound;
///  - `repaired` holds t_o′ for saved rows and the input everywhere else.
CheckTally CheckSavedDataset(const disc::Relation& data,
                             const disc::DistanceEvaluator& evaluator,
                             double epsilon, std::size_t eta,
                             const disc::SavedDataset& saved);

/// True when both records describe the same save, bit for bit (timing and
/// trace ids excluded).
bool SameRecord(const disc::OutlierRecord& a, const disc::OutlierRecord& b);

/// True when a direct DiscSaver result matches a pipeline record.
bool SameSave(const disc::SaveResult& result, const disc::OutlierRecord& rec);

/// True when two direct DiscSaver results match, bit for bit.
bool SameSave(const disc::SaveResult& a, const disc::SaveResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
