#include "checks.h"

#include <cstdint>

namespace perfbench {

using disc::OutlierDisposition;
using disc::OutlierRecord;
using disc::SaveResult;
using disc::SaveTermination;

void CheckTally::Fail(const std::vector<const char*>& why) {
  if (why.empty()) return;
  ++failed;
  for (const char* reason : why) ++reasons[reason];
}

void CheckTally::Merge(const CheckTally& other) {
  failed += other.failed;
  for (const auto& [reason, count] : other.reasons) reasons[reason] += count;
}

namespace {

std::uint64_t ChangedBits(const disc::Tuple& a, const disc::Tuple& b) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < a.size() && i < 64; ++i) {
    if (!(a[i] == b[i])) bits |= std::uint64_t{1} << i;
  }
  return bits;
}

std::size_t InliersWithin(const disc::Relation& data,
                          const std::vector<std::size_t>& inlier_rows,
                          const disc::DistanceEvaluator& evaluator,
                          const disc::Tuple& t, double epsilon,
                          std::size_t needed) {
  std::size_t count = 0;
  for (std::size_t row : inlier_rows) {
    if (evaluator.DistanceWithin(t, data[row], epsilon) <= epsilon) {
      if (++count >= needed) break;
    }
  }
  return count;
}

}  // namespace

CheckTally CheckSavedDataset(const disc::Relation& data,
                             const disc::DistanceEvaluator& evaluator,
                             double epsilon, std::size_t eta,
                             const disc::SavedDataset& saved) {
  CheckTally tally;
  if (!saved.status.ok()) {
    tally.Fail({"pipeline status not OK"});
    return tally;
  }
  std::vector<int> role(data.size(), 0);  // 1 inlier, 2 outlier
  bool partition = saved.repaired.size() == data.size() &&
                   saved.records.size() == saved.outlier_rows.size();
  for (std::size_t row : saved.inlier_rows) {
    if (row >= role.size() || role[row] != 0) partition = false;
    else role[row] = 1;
  }
  for (std::size_t row : saved.outlier_rows) {
    if (row >= role.size() || role[row] != 0) partition = false;
    else role[row] = 2;
  }
  for (int r : role) partition = partition && r != 0;
  if (!partition) {
    tally.Fail({"inlier/outlier rows do not partition the input"});
    return tally;
  }
  for (std::size_t row = 0; row < data.size(); ++row) {
    if (role[row] == 1 && !(saved.repaired[row] == data[row])) {
      tally.Fail({"inlier row changed"});
    }
  }

  const std::size_t needed = eta > 0 ? eta - 1 : 0;
  for (std::size_t i = 0; i < saved.records.size(); ++i) {
    const OutlierRecord& rec = saved.records[i];
    std::vector<const char*> why;
    if (rec.row != saved.outlier_rows[i]) {
      tally.Fail({"record row out of order"});
      continue;
    }
    const disc::Tuple& original = data[rec.row];
    if (rec.termination != SaveTermination::kCompleted &&
        rec.termination != SaveTermination::kInfeasible) {
      why.push_back("termination not definitive");
    }
    if (rec.disposition == OutlierDisposition::kSaved) {
      if (InliersWithin(data, saved.inlier_rows, evaluator, rec.adjusted,
                        epsilon, needed) < needed) {
        why.push_back("saved tuple has fewer than eta-1 inliers within eps");
      }
      if (evaluator.Distance(original, rec.adjusted) != rec.cost) {
        why.push_back("cost differs from distance(t_o, t_o')");
      }
      if (ChangedBits(original, rec.adjusted) !=
          rec.adjusted_attributes.bits()) {
        why.push_back("adjusted_attributes differ from the changed set");
      }
      if (!(rec.cost >= rec.lower_bound)) {
        why.push_back("cost below lower_bound");
      }
      if (!(saved.repaired[rec.row] == rec.adjusted)) {
        why.push_back("repaired row is not the adjusted tuple");
      }
    } else if (!(saved.repaired[rec.row] == original)) {
      why.push_back("unsaved outlier changed");
    }
    tally.Fail(why);
  }
  return tally;
}

bool SameRecord(const OutlierRecord& a, const OutlierRecord& b) {
  return a.row == b.row && a.disposition == b.disposition &&
         a.termination == b.termination && a.adjusted == b.adjusted &&
         a.cost == b.cost &&
         a.adjusted_attributes.bits() == b.adjusted_attributes.bits() &&
         a.lower_bound == b.lower_bound && a.stats.SameWork(b.stats);
}

bool SameSave(const SaveResult& result, const OutlierRecord& rec) {
  const bool saved = rec.disposition == OutlierDisposition::kSaved;
  if (result.feasible != saved) return false;
  if (result.termination != rec.termination) return false;
  if (result.lower_bound != rec.lower_bound) return false;
  if (!result.stats.SameWork(rec.stats)) return false;
  if (!saved) return true;
  return result.adjusted == rec.adjusted && result.cost == rec.cost &&
         result.adjusted_attributes.bits() == rec.adjusted_attributes.bits();
}

bool SameSave(const SaveResult& a, const SaveResult& b) {
  return a.feasible == b.feasible && a.termination == b.termination &&
         a.kappa_exceeded == b.kappa_exceeded && a.adjusted == b.adjusted &&
         a.cost == b.cost &&
         a.adjusted_attributes.bits() == b.adjusted_attributes.bits() &&
         a.lower_bound == b.lower_bound && a.stats.SameWork(b.stats);
}

}  // namespace perfbench
