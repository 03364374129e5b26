#ifndef DISC_DISTANCE_EVALUATOR_H_
#define DISC_DISTANCE_EVALUATOR_H_

#include <memory>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "distance/attribute_metric.h"
#include "distance/lp_norm.h"

namespace disc {

/// Evaluates tuple distances Δ(t1[X], t2[X]) for a fixed schema: one metric
/// per attribute, aggregated under an Lp norm (L2 by default, paper §2.1.1).
///
/// DistanceEvaluator is the single distance authority shared by indexing,
/// constraints, outlier saving, clustering and cleaning, so every subsystem
/// measures tuples identically.
class DistanceEvaluator {
 public:
  /// Builds an evaluator with the default metric per attribute kind
  /// (absolute difference for numerics, edit distance for strings).
  explicit DistanceEvaluator(const Schema& schema, LpNorm norm = LpNorm::kL2);

  /// Builds an evaluator with explicit per-attribute metrics. `metrics`
  /// must have one entry per schema attribute.
  DistanceEvaluator(const Schema& schema,
                    std::vector<std::unique_ptr<AttributeMetric>> metrics,
                    LpNorm norm = LpNorm::kL2);

  DistanceEvaluator(DistanceEvaluator&&) = default;
  DistanceEvaluator& operator=(DistanceEvaluator&&) = default;

  /// Number of attributes m.
  std::size_t arity() const { return metrics_.size(); }
  /// The aggregation norm.
  LpNorm norm() const { return norm_; }

  /// Per-attribute distance Δ(t1[A], t2[A]).
  double AttributeDistance(std::size_t a, const Value& v1,
                           const Value& v2) const {
    return metrics_[a]->Distance(v1, v2);
  }

  /// Full-tuple distance Δ(t1, t2).
  double Distance(const Tuple& t1, const Tuple& t2) const;

  /// Distance restricted to attributes X: Δ(t1[X], t2[X]).
  /// Δ on the empty set is 0 by convention (paper §3.1).
  double DistanceOn(const AttributeSet& x, const Tuple& t1,
                    const Tuple& t2) const;

  /// Full-tuple distance with early exit: returns +infinity as soon as the
  /// running aggregate exceeds `threshold` (saves work in range queries).
  double DistanceWithin(const Tuple& t1, const Tuple& t2,
                        double threshold) const;

  /// Subset distance with early exit: like DistanceOn, but returns
  /// +infinity as soon as the running aggregate exceeds `threshold`.
  /// Because per-attribute distances are non-negative and the Lp aggregate
  /// is monotone in adds, the ≤/> `threshold` verdict is identical to
  /// computing DistanceOn fully — only the work stops earlier (the
  /// band-membership checks of Propositions 3/5 scan O(n) rows and mostly
  /// reject).
  double DistanceOnWithin(const AttributeSet& x, const Tuple& t1,
                          const Tuple& t2, double threshold) const;

  /// The metric for attribute `a` (introspection for fast paths).
  const AttributeMetric& metric(std::size_t a) const { return *metrics_[a]; }

  /// True iff every attribute metric is a scaled absolute difference —
  /// the columnar fast path's eligibility test. When true and `scales` is
  /// non-null, fills it with the per-attribute scales.
  bool AllScaledAbsoluteDifference(std::vector<double>* scales = nullptr) const;

  /// True iff every attribute metric is the unit-scale absolute difference
  /// (what KdTree hard-codes).
  bool AllUnitAbsoluteDifference() const;

  /// Replaces the metric for attribute `a`.
  void SetMetric(std::size_t a, std::unique_ptr<AttributeMetric> metric) {
    metrics_[a] = std::move(metric);
  }

 private:
  std::vector<std::unique_ptr<AttributeMetric>> metrics_;
  LpNorm norm_;
};

}  // namespace disc

#endif  // DISC_DISTANCE_EVALUATOR_H_
