#include "core/bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/random.h"
#include "core/disc_saver.h"
#include "distance/columnar.h"
#include "index/index_factory.h"

namespace disc {
namespace {

/// Test fixture: a dense inlier cluster around the origin plus machinery to
/// build a BoundsEngine against it.
class BoundsFixture : public testing::Test {
 protected:
  void Build(std::size_t cluster_size, DistanceConstraint constraint,
             std::uint64_t seed = 11) {
    Rng rng(seed);
    inliers_ = Relation(Schema::Numeric(2));
    for (std::size_t i = 0; i < cluster_size; ++i) {
      inliers_.AppendUnchecked(
          Tuple::Numeric({rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)}));
    }
    constraint_ = constraint;
    evaluator_ = std::make_unique<DistanceEvaluator>(inliers_.schema());
    index_ = MakeNeighborIndex(inliers_, *evaluator_, constraint.epsilon);
    cache_ = std::make_unique<KthNeighborCache>(inliers_, *index_,
                                                constraint.eta);
    engine_ = std::make_unique<BoundsEngine>(inliers_, *evaluator_, *index_,
                                             *cache_, constraint);
  }

  Relation inliers_;
  DistanceConstraint constraint_;
  std::unique_ptr<DistanceEvaluator> evaluator_;
  std::unique_ptr<NeighborIndex> index_;
  std::unique_ptr<KthNeighborCache> cache_;
  std::unique_ptr<BoundsEngine> engine_;
};

TEST_F(BoundsFixture, GlobalLowerBoundPositiveForFarOutlier) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  double lb = engine_->GlobalLowerBound(outlier);
  // The outlier is ~20 away from the cluster; it must move ≥ ~19 − jitter.
  EXPECT_GT(lb, 15.0);
}

TEST_F(BoundsFixture, GlobalLowerBoundZeroForNearPoint) {
  Build(40, {1.0, 5});
  Tuple near = Tuple::Numeric({0.1, 0.1});
  EXPECT_DOUBLE_EQ(engine_->GlobalLowerBound(near), 0.0);
}

TEST_F(BoundsFixture, LowerBoundForEmptyXMatchesGlobal) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  // Lemma 2 is the X = ∅ special case of Proposition 3.
  EXPECT_NEAR(engine_->LowerBoundForX(outlier, AttributeSet()),
              engine_->GlobalLowerBound(outlier), 1e-9);
}

TEST_F(BoundsFixture, LowerBoundGrowsWithX) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 3});
  double lb_empty = engine_->LowerBoundForX(outlier, AttributeSet());
  double lb_x0 = engine_->LowerBoundForX(outlier, AttributeSet{0});
  // Fixing attribute 0 (the one with the big 20-unit offset) restricts the
  // candidate neighbors, so the bound cannot shrink.
  EXPECT_GE(lb_x0, lb_empty - 1e-9);
}

TEST_F(BoundsFixture, LowerBoundInfiniteWhenXLocksOutlierOut) {
  Build(40, {1.0, 5});
  // If attribute 0 (value 50) cannot be adjusted, no inlier is within ε on
  // X, so no feasible adjustment exists at all.
  Tuple outlier = Tuple::Numeric({50, 0});
  double lb = engine_->LowerBoundForX(outlier, AttributeSet{0});
  EXPECT_TRUE(std::isinf(lb));
}

TEST_F(BoundsFixture, UpperBoundIsFeasible) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  auto ub = engine_->UpperBoundForX(outlier, AttributeSet());
  ASSERT_TRUE(ub.has_value());
  // Proposition 5's construction guarantees feasibility.
  EXPECT_TRUE(engine_->IsFeasible(ub->adjusted));
}

TEST_F(BoundsFixture, UpperBoundKeepsXValues) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({0.2, 20});
  AttributeSet x{0};
  auto ub = engine_->UpperBoundForX(outlier, x);
  ASSERT_TRUE(ub.has_value());
  EXPECT_EQ(ub->adjusted[0], outlier[0]);   // unadjusted attribute kept
  EXPECT_NE(ub->adjusted[1], outlier[1]);   // the broken attribute changed
}

TEST_F(BoundsFixture, UpperBoundAtLeastLowerBound) {
  Build(60, {1.0, 5});
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Tuple outlier =
        Tuple::Numeric({rng.Uniform(5, 30), rng.Uniform(-30, 30)});
    for (std::uint64_t bits = 0; bits < 4; ++bits) {
      AttributeSet x(bits);
      double lb = engine_->LowerBoundForX(outlier, x);
      auto ub = engine_->UpperBoundForX(outlier, x);
      if (ub.has_value() && !std::isinf(lb)) {
        EXPECT_GE(ub->cost, lb - 1e-9)
            << "trial " << trial << " X=" << bits;
      }
    }
  }
}

TEST_F(BoundsFixture, UpperBoundEmptyWhenXLocksOutlierOut) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({50, 0});
  auto ub = engine_->UpperBoundForX(outlier, AttributeSet{0});
  EXPECT_FALSE(ub.has_value());
}

TEST_F(BoundsFixture, UpperBoundCostMatchesDistance) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({10, -7});
  auto ub = engine_->UpperBoundForX(outlier, AttributeSet());
  ASSERT_TRUE(ub.has_value());
  EXPECT_NEAR(ub->cost, evaluator_->Distance(outlier, ub->adjusted), 1e-12);
}

TEST_F(BoundsFixture, FeasibilityMatchesDefinition) {
  Build(60, {1.0, 5});
  // A point in the middle of the cluster is feasible; a far one is not.
  EXPECT_TRUE(engine_->IsFeasible(Tuple::Numeric({0, 0})));
  EXPECT_FALSE(engine_->IsFeasible(Tuple::Numeric({20, 20})));
}

TEST_F(BoundsFixture, EtaOneAlwaysFeasible) {
  Build(10, {1.0, 1});
  // η = 1: every tuple counts itself (Formula 4), so anything is feasible.
  EXPECT_TRUE(engine_->IsFeasible(Tuple::Numeric({1000, 1000})));
}

TEST_F(BoundsFixture, DonorSpliceIsFeasibleEitherWay) {
  // The donor either qualifies under Proposition 5's sufficient condition
  // (δ_η(t2) ≤ ε − Δ(t_o[X], t2[X])) or was validated by an exact
  // feasibility check; in both cases the splice must be feasible.
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({0.3, 15});
  AttributeSet x{0};
  auto ub = engine_->UpperBoundForX(outlier, x);
  ASSERT_TRUE(ub.has_value());
  EXPECT_TRUE(engine_->IsFeasible(ub->adjusted));
  // The donor is reachable on X regardless of which path selected it.
  double dx = evaluator_->DistanceOn(x, outlier, inliers_[ub->donor_row]);
  EXPECT_LE(dx, constraint_.epsilon + 1e-9);
}

// ---------------------------------------------------------------------------
// Band inheritance: a pass from the parent's band equals the all-rows bounds
// ---------------------------------------------------------------------------

/// The same double, with NaN matching NaN (a NaN outlier cell under L1 or
/// L2 makes splice costs NaN).
void ExpectSameDouble(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << got;
  } else {
    EXPECT_EQ(got, want);
  }
}

enum class NanCell { kNone, kInlier, kOutlier };

/// For every X of a seeded m = 7 relation and every parent X \ {a}, the
/// band pass from the parent's band and the donor splice over its result
/// must reproduce LowerBoundForX / UpperBoundForX bit for bit, and the
/// band itself must equal the all-rows band.
void ExpectInheritanceExact(LpNorm norm, double epsilon, NanCell nan) {
  constexpr std::size_t kDims = 7;
  Rng rng(2027);
  Relation r(Schema::Numeric(kDims));
  for (std::size_t i = 0; i < 240; ++i) {
    const double centre = i % 2 == 0 ? 0.0 : 6.0;
    Tuple t(kDims);
    for (std::size_t a = 0; a < kDims; ++a) {
      t[a] = Value(rng.Gaussian(centre, 1.0));
    }
    r.AppendUnchecked(std::move(t));
  }
  if (nan == NanCell::kInlier) r[17][3] = Value(std::nan(""));
  DistanceEvaluator ev(r.schema(), norm);
  const DistanceConstraint constraint{epsilon, 4};
  auto index = MakeNeighborIndex(r, ev, constraint.epsilon);
  KthNeighborCache knn(r, *index, constraint.eta);
  BoundsEngine engine(r, ev, *index, knn, constraint);
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);

  Tuple outlier = Tuple::Numeric({0.2, -0.3, 7.5, 0.1, 0.4, -6.0, 0.3});
  if (nan == NanCell::kOutlier) outlier[5] = Value(std::nan(""));
  const SearchDistanceCache dcache(r, ev, outlier, view.get());

  constexpr std::uint64_t kSets = std::uint64_t{1} << kDims;
  std::vector<BoundsEngine::Band> all(kSets);
  for (std::uint64_t bits = 0; bits < kSets; ++bits) {
    engine.BandPass(dcache, AttributeSet(bits), nullptr, false, &all[bits]);
  }
  for (std::uint64_t bits = 1; bits < kSets; ++bits) {
    const AttributeSet x(bits);
    const double want_lb = engine.LowerBoundForX(outlier, x);
    const auto want_ub = engine.UpperBoundForX(outlier, x);
    for (std::size_t a = 0; a < kDims; ++a) {
      if (!x.contains(a)) continue;
      SCOPED_TRACE(testing::Message() << "X=" << bits << " parent drops " << a);
      BoundsEngine::Band band;
      const double lb = engine.BandPass(
          dcache, x, &all[bits & ~(std::uint64_t{1} << a)], true, &band);
      EXPECT_EQ(band.rows, all[bits].rows);
      ASSERT_EQ(band.dx.size(), all[bits].dx.size());
      for (std::size_t i = 0; i < band.dx.size(); ++i) {
        ExpectSameDouble(band.dx[i], all[bits].dx[i]);
      }
      EXPECT_EQ(lb, want_lb);
      const auto ub = engine.DonorSplice(outlier, x, dcache, band);
      ASSERT_EQ(ub.has_value(), want_ub.has_value());
      if (!ub.has_value()) continue;
      ExpectSameDouble(ub->cost, want_ub->cost);
      EXPECT_EQ(ub->donor_row, want_ub->donor_row);
      for (std::size_t c = 0; c < kDims; ++c) {
        EXPECT_TRUE(SameValue(ub->adjusted[c], want_ub->adjusted[c]))
            << "cell " << c;
      }
    }
  }
}

TEST(BandInheritance, ExactUnderEveryNorm) {
  ExpectInheritanceExact(LpNorm::kL1, 7.0, NanCell::kNone);
  ExpectInheritanceExact(LpNorm::kL2, 3.5, NanCell::kNone);
  ExpectInheritanceExact(LpNorm::kLInf, 2.5, NanCell::kNone);
}

TEST(BandInheritance, ExactWithNanInOneInlier) {
  ExpectInheritanceExact(LpNorm::kL1, 7.0, NanCell::kInlier);
  ExpectInheritanceExact(LpNorm::kL2, 3.5, NanCell::kInlier);
  ExpectInheritanceExact(LpNorm::kLInf, 2.5, NanCell::kInlier);
}

TEST(BandInheritance, ExactWithNanInTheOutlier) {
  ExpectInheritanceExact(LpNorm::kL1, 7.0, NanCell::kOutlier);
  ExpectInheritanceExact(LpNorm::kL2, 3.5, NanCell::kOutlier);
  ExpectInheritanceExact(LpNorm::kLInf, 2.5, NanCell::kOutlier);
}

}  // namespace
}  // namespace disc
