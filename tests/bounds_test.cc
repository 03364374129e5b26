#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "common/random.h"
#include "core/disc_saver.h"
#include "distance/columnar.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

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

/// Δ from a band's raw accumulator: the root of the sum of squares under
/// L2, the accumulator itself otherwise.
double TotalOf(LpNorm norm, double acc) {
  return norm == LpNorm::kL2 ? std::sqrt(acc) : acc;
}

/// Expects `got` to hold the rows of `want`, a band over a
/// SearchDistanceCache, with the same accumulators and full distances. A
/// band read from `tree` holds tree positions, which are mapped to relation
/// rows first; a cache band must list them in the same (ascending) order.
void ExpectSameBand(const BoundsEngine::Band& got,
                    const BoundsEngine::Band& want, const KdTree* tree) {
  EXPECT_EQ(got.x, want.x);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  ASSERT_EQ(got.acc.size(), got.rows.size());
  ASSERT_EQ(got.full.size(), got.rows.size());
  auto row = [&](std::size_t i) -> std::size_t {
    return tree != nullptr ? tree->row_at(got.rows[i]) : got.rows[i];
  };
  std::vector<std::size_t> order(got.rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (tree != nullptr) {
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return row(a) < row(b); });
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(row(order[i]), want.rows[i]) << "entry " << i;
    ExpectSameDouble(got.acc[order[i]], want.acc[i]);
    ExpectSameDouble(got.full[order[i]], want.full[i]);
  }
}

enum class NanCell { kNone, kInlier, kOutlier };

/// Where the passes under test read their rows: the all-rows cache, or the
/// kd-tree (whose bands are compared with the cache's).
enum class Served { kCache, kTree };

/// For every X of a seeded m = 7 relation and every parent X \ {a}, the
/// band pass from the parent's band and the donor splice over its result
/// must reproduce LowerBoundForX / UpperBoundForX bit for bit, and the
/// band itself must equal the all-rows band. A parent that drops X's
/// largest attribute is the one whose accumulators the pass resumes; every
/// other parent's pass starts from zero. Over the tree, each parent's band
/// is the tree's own band of X \ {a}.
void ExpectInheritanceExact(LpNorm norm, double epsilon, NanCell nan,
                            Served served = Served::kCache) {
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
  const KdTree* tree =
      served == Served::kTree ? engine.TreeFor(outlier) : nullptr;
  ASSERT_EQ(tree != nullptr, served == Served::kTree);
  std::optional<BandSource> tree_source;
  if (tree != nullptr) tree_source.emplace(*tree, outlier);
  const BandSource& source =
      tree != nullptr ? *tree_source : BandSource(dcache);

  constexpr std::uint64_t kSets = std::uint64_t{1} << kDims;
  std::vector<BoundsEngine::Band> all(kSets);
  std::vector<BoundsEngine::Band> parents(kSets);
  for (std::uint64_t bits = 0; bits < kSets; ++bits) {
    engine.BandPass(dcache, AttributeSet(bits), nullptr, false, &all[bits]);
    engine.BandPass(source, AttributeSet(bits), nullptr, false,
                    &parents[bits]);
    if (bits != 0) ExpectSameBand(parents[bits], all[bits], tree);
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
          source, x, &parents[bits & ~(std::uint64_t{1} << a)], true, &band);
      ExpectSameBand(band, all[bits], tree);
      EXPECT_EQ(lb, want_lb);
      const auto ub = engine.DonorSplice(outlier, x, source, band);
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

TEST(BandInheritance, ExactOverTheTree) {
  ExpectInheritanceExact(LpNorm::kL1, 7.0, NanCell::kNone, Served::kTree);
  ExpectInheritanceExact(LpNorm::kL2, 3.5, NanCell::kNone, Served::kTree);
  ExpectInheritanceExact(LpNorm::kLInf, 2.5, NanCell::kNone, Served::kTree);
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

// ---------------------------------------------------------------------------
// Band membership: every band pass agrees with the scalar reference
// ---------------------------------------------------------------------------

/// For every X of an m = 5 relation whose rows hold NaN cells both before
/// and after an attribute whose term alone exceeds ε, the band of X holds
/// exactly the rows t with DistanceOnWithin(X, t_o, t, ε) not > ε, each
/// with that value as its Δ. A NaN term poisons an L1/L2 sum so that it
/// never exceeds ε (the row stays, with Δ NaN), unless an earlier prefix
/// already did (the row is out); L∞ drops NaN terms.
void ExpectBandsMatchEvaluator(LpNorm norm) {
  constexpr std::size_t kDims = 5;
  constexpr double kEps = 2.0;
  const double nan = std::nan("");
  Rng rng(77);
  Relation r(Schema::Numeric(kDims));
  for (std::size_t i = 0; i < 120; ++i) {
    Tuple t(kDims);
    for (std::size_t a = 0; a < kDims; ++a) {
      t[a] = Value(rng.Gaussian(0.0, 0.8));
    }
    r.AppendUnchecked(std::move(t));
  }
  // Attribute 2's term alone exceeds ε in both rows below.
  r.AppendUnchecked(Tuple::Numeric({nan, 0.1, 9.0, 0.2, -0.1}));   // NaN first
  r.AppendUnchecked(Tuple::Numeric({0.1, -0.2, 9.0, nan, 0.3}));   // NaN after
  r.AppendUnchecked(Tuple::Numeric({0.3, nan, 0.2, 0.1, nan}));    // NaN only
  r.AppendUnchecked(Tuple::Numeric({nan, 0.2, -9.0, nan, 9.0}));   // both
  DistanceEvaluator ev(r.schema(), norm);
  const DistanceConstraint constraint{kEps, 3};
  auto index = MakeNeighborIndex(r, ev, constraint.epsilon);
  KthNeighborCache knn(r, *index, constraint.eta);
  BoundsEngine engine(r, ev, *index, knn, constraint);
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);
  const Tuple outlier = Tuple::Numeric({0.0, 0.0, 0.0, 0.0, 0.0});

  const SearchDistanceCache scalar(r, ev, outlier);
  const SearchDistanceCache columnar(r, ev, outlier, view.get());
  for (const SearchDistanceCache* dcache : {&scalar, &columnar}) {
    for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << kDims);
         ++bits) {
      const AttributeSet x(bits);
      SCOPED_TRACE(testing::Message()
                   << "X=" << bits << " columnar=" << dcache->columnar());
      BoundsEngine::Band band;
      engine.BandPass(*dcache, x, nullptr, true, &band);
      ASSERT_EQ(band.acc.size(), band.rows.size());
      std::size_t next = 0;
      for (std::size_t row = 0; row < r.size(); ++row) {
        const double want = ev.DistanceOnWithin(x, outlier, r[row], kEps);
        const bool kept = !(want > kEps);
        const bool listed =
            next < band.rows.size() && band.rows[next] == row;
        EXPECT_EQ(listed, kept) << "row " << row << " Δ " << want;
        if (!listed) continue;
        ExpectSameDouble(TotalOf(norm, band.acc[next]), want);
        ++next;
      }
      EXPECT_EQ(next, band.rows.size()) << "rows out of order";
    }
  }
}

TEST(BandMembership, MatchesTheEvaluatorUnderEveryNorm) {
  ExpectBandsMatchEvaluator(LpNorm::kL1);
  ExpectBandsMatchEvaluator(LpNorm::kL2);
  ExpectBandsMatchEvaluator(LpNorm::kLInf);
}

}  // namespace
}  // namespace disc
