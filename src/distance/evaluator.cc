#include "distance/evaluator.h"

#include <limits>

namespace disc {

DistanceEvaluator::DistanceEvaluator(const Schema& schema, LpNorm norm)
    : norm_(norm) {
  metrics_.reserve(schema.arity());
  for (std::size_t a = 0; a < schema.arity(); ++a) {
    metrics_.push_back(DefaultMetricFor(schema.kind(a)));
  }
}

DistanceEvaluator::DistanceEvaluator(
    const Schema& schema, std::vector<std::unique_ptr<AttributeMetric>> metrics,
    LpNorm norm)
    : metrics_(std::move(metrics)), norm_(norm) {
  (void)schema;
}

double DistanceEvaluator::Distance(const Tuple& t1, const Tuple& t2) const {
  LpAccumulator acc(norm_);
  for (std::size_t a = 0; a < metrics_.size(); ++a) {
    acc.Add(metrics_[a]->Distance(t1[a], t2[a]));
  }
  return acc.Total();
}

double DistanceEvaluator::DistanceOn(const AttributeSet& x, const Tuple& t1,
                                     const Tuple& t2) const {
  LpAccumulator acc(norm_);
  for (std::size_t a = 0; a < metrics_.size(); ++a) {
    if (x.contains(a)) acc.Add(metrics_[a]->Distance(t1[a], t2[a]));
  }
  return acc.Total();
}

double DistanceEvaluator::DistanceWithin(const Tuple& t1, const Tuple& t2,
                                         double threshold) const {
  LpAccumulator acc(norm_);
  for (std::size_t a = 0; a < metrics_.size(); ++a) {
    acc.Add(metrics_[a]->Distance(t1[a], t2[a]));
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
}

double DistanceEvaluator::DistanceOnWithin(const AttributeSet& x,
                                           const Tuple& t1, const Tuple& t2,
                                           double threshold) const {
  LpAccumulator acc(norm_);
  for (std::size_t a = 0; a < metrics_.size(); ++a) {
    if (!x.contains(a)) continue;
    acc.Add(metrics_[a]->Distance(t1[a], t2[a]));
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
}

bool DistanceEvaluator::AllUnitAbsoluteDifference() const {
  for (const auto& metric : metrics_) {
    double scale = 1.0;
    if (!metric->IsScaledAbsoluteDifference(&scale) || scale != 1.0) {
      return false;
    }
  }
  return true;
}

}  // namespace disc
