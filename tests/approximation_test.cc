// Property tests for the paper's approximation guarantees (§3.4):
//  - Proposition 6: when the nearest inlier is at distance >= c·ε (c > 1),
//    the DISC answer is within factor c/(c−1) of the optimum.
//  - Proposition 7: with unit-valued (integer) distances and integer ε,
//    the factor is at most ε + 1.
// The exact optimum is computed with ExactSaver on instances small enough
// to enumerate.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/disc_saver.h"
#include "core/exact_saver.h"

namespace disc {
namespace {

Relation LatticeInliers(int side, double spacing = 1.0) {
  Relation r(Schema::Numeric(2));
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      r.AppendUnchecked(Tuple::Numeric({x * spacing, y * spacing}));
    }
  }
  return r;
}

struct Proposition6Case {
  double outlier_x;
  double outlier_y;
  double epsilon;
  std::size_t eta;
};

class Proposition6Test : public testing::TestWithParam<Proposition6Case> {};

TEST_P(Proposition6Test, FactorBoundHolds) {
  const Proposition6Case& p = GetParam();
  Relation inliers = LatticeInliers(6);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{p.epsilon, p.eta};
  DiscSaver approx(inliers, ev, c);
  ExactSaver exact(inliers, ev, c);

  Tuple outlier = Tuple::Numeric({p.outlier_x, p.outlier_y});

  // Nearest-inlier distance determines the paper's c.
  double nearest = 1e300;
  for (const Tuple& t : inliers) {
    nearest = std::min(nearest, ev.Distance(outlier, t));
  }
  double factor_c = nearest / p.epsilon;
  if (factor_c <= 1.0) GTEST_SKIP() << "Proposition 6 requires c > 1";

  SaveResult a = approx.Save(outlier);
  SaveResult e = exact.Save(outlier);
  ASSERT_EQ(a.feasible, e.feasible);
  if (!a.feasible || e.cost <= 0) return;

  double bound = factor_c / (factor_c - 1.0);
  EXPECT_LE(a.cost / e.cost, bound + 1e-9)
      << "c=" << factor_c << " approx=" << a.cost << " exact=" << e.cost;
  // And the sandwich: exact >= the reported lower bound.
  EXPECT_GE(e.cost, a.lower_bound - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FarOutliers, Proposition6Test,
    testing::Values(Proposition6Case{20, 20, 1.5, 4},
                    Proposition6Case{30, 2, 1.5, 4},
                    Proposition6Case{2.5, 40, 1.5, 4},
                    Proposition6Case{15, -10, 1.2, 3},
                    Proposition6Case{-8, -8, 1.5, 5},
                    Proposition6Case{12, 12, 2.0, 6}));

/// Discrete-metric relation: string attributes where every attribute
/// distance is an integer (Levenshtein), matching Proposition 7's setting.
Relation CodeInliers() {
  // Clustered "codes": many copies of a few base codes with 0-1 edits.
  Relation r(Schema::StringNamed({"code"}));
  const char* bases[] = {"AAAA", "BBBB", "CCCC"};
  for (const char* base : bases) {
    for (int copy = 0; copy < 6; ++copy) {
      r.AppendUnchecked(Tuple{Value(base)});
    }
    // One-edit variants to give the cluster a ring of near values.
    std::string v1 = base;
    v1[0] = 'X';
    std::string v2 = base;
    v2[3] = 'Y';
    r.AppendUnchecked(Tuple{Value(v1)});
    r.AppendUnchecked(Tuple{Value(v2)});
  }
  return r;
}

class Proposition7Test : public testing::TestWithParam<int> {};

TEST_P(Proposition7Test, IntegerDistanceFactorBound) {
  const int epsilon = GetParam();
  Relation inliers = CodeInliers();
  // Single string attribute: tuple distance = Levenshtein distance, so all
  // distances are integers and ε is an integer too — Proposition 7 applies.
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{static_cast<double>(epsilon), 3};
  DiscSaver approx(inliers, ev, c);
  ExactSaver exact(inliers, ev, c);

  const char* outliers[] = {"ZZZZ", "AZZZ", "QQQQQQ", "A"};
  for (const char* s : outliers) {
    Tuple outlier{Value(s)};
    SaveResult a = approx.Save(outlier);
    SaveResult e = exact.Save(outlier);
    ASSERT_EQ(a.feasible, e.feasible) << s;
    if (!a.feasible || e.cost <= 0) continue;
    EXPECT_LE(a.cost / e.cost, static_cast<double>(epsilon) + 1.0 + 1e-9)
        << "outlier " << s << " approx=" << a.cost << " exact=" << e.cost;
  }
}

INSTANTIATE_TEST_SUITE_P(IntegerEpsilons, Proposition7Test,
                         testing::Values(1, 2, 3));

TEST(ApproximationSandwich, RandomInstances) {
  // lower_bound <= exact optimum <= DISC cost, across random geometry.
  Rng rng(123);
  for (int trial = 0; trial < 12; ++trial) {
    Relation inliers(Schema::Numeric(2));
    int side = 4 + static_cast<int>(rng.NextIndex(3));
    for (int x = 0; x < side; ++x) {
      for (int y = 0; y < side; ++y) {
        inliers.AppendUnchecked(Tuple::Numeric(
            {x + rng.Gaussian(0, 0.05), y + rng.Gaussian(0, 0.05)}));
      }
    }
    DistanceEvaluator ev(inliers.schema());
    DistanceConstraint c{1.0 + rng.Uniform() * 0.8,
                         2 + static_cast<std::size_t>(rng.NextIndex(3))};
    DiscSaver approx(inliers, ev, c);
    ExactSaver exact(inliers, ev, c);

    Tuple outlier = Tuple::Numeric(
        {rng.Uniform(-15, 15 + side), rng.Uniform(-15, 15 + side)});
    SaveResult a = approx.Save(outlier);
    SaveResult e = exact.Save(outlier);
    ASSERT_EQ(a.feasible, e.feasible) << "trial " << trial;
    if (!a.feasible) continue;
    EXPECT_GE(e.cost, a.lower_bound - 1e-9) << "trial " << trial;
    EXPECT_GE(a.cost, e.cost - 1e-9) << "trial " << trial;
  }
}

TEST(ApproximationSandwich, LowerBoundCertifiesQuality) {
  // The per-answer certificate cost/lower_bound is a valid upper bound on
  // the true approximation ratio (since lower_bound <= optimum).
  Relation inliers = LatticeInliers(6);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.5, 4};
  DiscSaver approx(inliers, ev, c);
  ExactSaver exact(inliers, ev, c);

  Tuple outlier = Tuple::Numeric({18, 3});
  SaveResult a = approx.Save(outlier);
  SaveResult e = exact.Save(outlier);
  ASSERT_TRUE(a.feasible);
  ASSERT_GT(a.lower_bound, 0.0);
  double certified = a.cost / a.lower_bound;
  double actual = a.cost / e.cost;
  EXPECT_LE(actual, certified + 1e-9);
}

}  // namespace
}  // namespace disc
