#ifndef DISC_DISTANCE_ATTRIBUTE_METRIC_H_
#define DISC_DISTANCE_ATTRIBUTE_METRIC_H_

#include <memory>

#include "common/value.h"

namespace disc {

/// Distance function Δ(t1[A], t2[A]) on a single attribute (paper §2.1.1).
///
/// Implementations must satisfy the four metric axioms: non-negativity,
/// identity of indiscernibles, symmetry, and the triangle inequality —
/// the DISC bounds (Lemma 2, Propositions 3 and 5) depend on all four.
class AttributeMetric {
 public:
  virtual ~AttributeMetric() = default;
  /// Distance between two attribute values.
  virtual double Distance(const Value& a, const Value& b) const = 0;

  /// Introspection hook for the columnar tier: true iff this metric
  /// computes |a - b| / scale on numeric values, in which case `*scale` is
  /// set. At scale 1 the flat kernels (distance/columnar.h) and the kd-tree
  /// evaluate the metric over raw double arrays, bit-identically, without
  /// virtual dispatch; any other scale runs on the scalar reference.
  /// Metrics with any other semantics must keep the default.
  virtual bool IsScaledAbsoluteDifference(double* scale) const {
    (void)scale;
    return false;
  }
};

/// |a - b| on numeric values, optionally scaled by 1/scale (so attributes
/// with large domains can be normalized onto comparable ranges).
class AbsoluteDifferenceMetric : public AttributeMetric {
 public:
  /// `scale` divides the raw difference; must be > 0.
  explicit AbsoluteDifferenceMetric(double scale = 1.0) : scale_(scale) {}
  double Distance(const Value& a, const Value& b) const override;
  bool IsScaledAbsoluteDifference(double* scale) const override {
    *scale = scale_;
    return true;
  }

 private:
  double scale_;
};

/// Levenshtein edit distance on string values.
class EditDistanceMetric : public AttributeMetric {
 public:
  double Distance(const Value& a, const Value& b) const override;
};

/// Needleman–Wunsch-style weighted edit distance (confusable characters are
/// cheap) on string values.
class WeightedEditDistanceMetric : public AttributeMetric {
 public:
  double Distance(const Value& a, const Value& b) const override;
};

/// 0/1 discrete metric: 0 iff values are equal.
class DiscreteMetric : public AttributeMetric {
 public:
  double Distance(const Value& a, const Value& b) const override;
};

/// Creates the default metric for a value kind: AbsoluteDifferenceMetric for
/// numerics, EditDistanceMetric for strings.
std::unique_ptr<AttributeMetric> DefaultMetricFor(ValueKind kind);

}  // namespace disc

#endif  // DISC_DISTANCE_ATTRIBUTE_METRIC_H_
