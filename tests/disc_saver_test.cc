#include "core/disc_saver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/exact_saver.h"

namespace disc {
namespace {

/// Grid-shaped inliers: integer lattice points in [0, side)², giving exact
/// algorithms a small discrete domain to enumerate.
Relation LatticeInliers(int side) {
  Relation r(Schema::Numeric(2));
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      r.AppendUnchecked(Tuple::Numeric({double(x), double(y)}));
    }
  }
  return r;
}

Relation GaussianInliers(std::size_t count, std::size_t dims,
                         std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) t[d] = Value(rng.Gaussian(0, 1.0));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

TEST(DiscSaver, SavesSingleAttributeError) {
  Relation inliers = GaussianInliers(80, 2, 1);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.0, 5};
  DiscSaver saver(inliers, ev, c);

  // An inlier-like point with one broken attribute.
  Tuple outlier = Tuple::Numeric({0.0, 25.0});
  SaveResult res = saver.Save(outlier);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(saver.bounds().IsFeasible(res.adjusted));
  // The result should fix mostly attribute 1 and stay close on attribute 0.
  EXPECT_LT(std::fabs(res.adjusted[1].num()), 5.0);
}

TEST(DiscSaver, PrefersSingleAttributeAdjustment) {
  Relation inliers = GaussianInliers(120, 3, 2);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.2, 5};
  DiscSaver saver(inliers, ev, c);

  Tuple outlier = Tuple::Numeric({0.1, -0.2, 30.0});
  SaveResult res = saver.Save(outlier);
  ASSERT_TRUE(res.feasible);
  // The broken attribute must be among the adjusted ones and the cost must
  // be dominated by fixing it (≈ 30 − cluster radius); DISC minimizes
  // distance, so any extra attribute tweaks stay small.
  EXPECT_TRUE(res.adjusted_attributes.contains(2));
  EXPECT_LT(res.cost, 31.0);
  EXPECT_GT(res.cost, 25.0);
  // The unbroken attributes end up near their original values.
  EXPECT_LT(std::fabs(res.adjusted[0].num() - 0.1), 3.0);
  EXPECT_LT(std::fabs(res.adjusted[1].num() + 0.2), 3.0);
}

TEST(DiscSaver, CostAtLeastGlobalLowerBound) {
  Relation inliers = GaussianInliers(60, 2, 3);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.0, 4});
  Rng rng(9);
  for (int t = 0; t < 10; ++t) {
    Tuple outlier =
        Tuple::Numeric({rng.Uniform(-20, 20), rng.Uniform(-20, 20)});
    SaveResult res = saver.Save(outlier);
    if (res.feasible) {
      EXPECT_GE(res.cost, res.lower_bound - 1e-9);
    }
  }
}

TEST(DiscSaver, NeverWorseThanNearestCoreInlierSubstitution) {
  // Lemma 4 assumes every tuple of r satisfies the constraint. With an
  // unfiltered inlier pool, the guarantee is against the nearest tuple
  // that itself has η ε-neighbors (a valid substitution donor) — DISC must
  // do at least as well as substituting onto it (what DORC does).
  Relation inliers = GaussianInliers(60, 2, 4);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.0, 4};
  DiscSaver saver(inliers, ev, c);

  // Distances to each inlier's η-th nearest inlier (self included).
  std::vector<double> delta(inliers.size());
  for (std::size_t i = 0; i < inliers.size(); ++i) {
    std::vector<double> d;
    for (const Tuple& in : inliers) d.push_back(ev.Distance(inliers[i], in));
    std::sort(d.begin(), d.end());
    delta[i] = d[c.eta - 1];
  }

  Rng rng(10);
  for (int t = 0; t < 10; ++t) {
    Tuple outlier = Tuple::Numeric({rng.Uniform(3, 20), rng.Uniform(3, 20)});
    SaveResult res = saver.Save(outlier);
    if (!res.feasible) continue;
    double nearest_core = 1e300;
    for (std::size_t i = 0; i < inliers.size(); ++i) {
      if (delta[i] > c.epsilon) continue;  // not a core tuple
      nearest_core = std::min(nearest_core, ev.Distance(outlier, inliers[i]));
    }
    EXPECT_LE(res.cost, nearest_core + 1e-9);
  }
}

TEST(DiscSaver, MatchesOrBeatsExactCostNever) {
  // DISC is an approximation: cost(DISC) >= cost(Exact), and on lattice
  // data with small domains both are computable. Also sandwich vs bounds.
  Relation inliers = LatticeInliers(6);  // 36 points, domain size 6
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.5, 4};
  DiscSaver saver(inliers, ev, c);
  ExactSaver exact(inliers, ev, c);

  Rng rng(21);
  for (int t = 0; t < 8; ++t) {
    Tuple outlier =
        Tuple::Numeric({rng.Uniform(8, 20), rng.Uniform(8, 20)});
    SaveResult approx = saver.Save(outlier);
    ExactResult best = exact.Save(outlier);
    ASSERT_EQ(approx.feasible, best.feasible);
    if (approx.feasible) {
      EXPECT_GE(approx.cost, best.cost - 1e-9);
      EXPECT_GE(best.cost, approx.lower_bound - 1e-9);
    }
  }
}

TEST(DiscSaver, KappaRestrictsAdjustedAttributes) {
  Relation inliers = GaussianInliers(100, 4, 6);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.5, 5};
  DiscSaver saver(inliers, ev, c);

  Tuple outlier = Tuple::Numeric({0.0, 0.1, 25.0, -0.1});
  SaveOptions opts;
  opts.kappa = 1;
  SaveResult res = saver.Save(outlier, opts);
  if (res.feasible) {
    EXPECT_LE(res.adjusted_attributes.size(), 1u);
  }
}

TEST(DiscSaver, KappaTooSmallMayBeInfeasible) {
  Relation inliers = GaussianInliers(100, 3, 7);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.2, 5};
  DiscSaver saver(inliers, ev, c);

  // A natural outlier: ALL attributes far off. κ = 1 cannot save it.
  Tuple natural = Tuple::Numeric({50, -50, 50});
  SaveOptions opts;
  opts.kappa = 1;
  SaveResult res = saver.Save(natural, opts);
  EXPECT_FALSE(res.feasible);
  // Unrestricted saving CAN save it (by changing everything).
  SaveResult full = saver.Save(natural);
  EXPECT_TRUE(full.feasible);
  EXPECT_EQ(full.adjusted_attributes.size(), 3u);
}

TEST(DiscSaver, PruningDoesNotChangeResult) {
  // Ablation: disabling lower-bound pruning must yield the same adjustment,
  // only more visited sets. At m = 8 the pruned search also skips dominated
  // supersets and evaluates children from inherited bands.
  for (std::size_t dims : {std::size_t{3}, std::size_t{8}}) {
    Relation inliers = GaussianInliers(dims == 3 ? 80 : 240, dims, 8);
    DistanceEvaluator ev(inliers.schema());
    DistanceConstraint c{dims == 3 ? 1.2 : 2.8, 4};
    DiscSaver saver(inliers, ev, c);

    Rng rng(33);
    for (std::size_t kappa : {std::size_t{0}, std::size_t{2}}) {
      for (int t = 0; t < 6; ++t) {
        Tuple outlier(dims);
        for (std::size_t d = 0; d < dims; ++d) {
          outlier[d] = Value(d < 3 ? rng.Uniform(-15, 15)
                                   : rng.Gaussian(0, 1.0));
        }
        SaveOptions with;
        with.kappa = kappa;
        SaveOptions without = with;
        without.use_lower_bound_pruning = false;
        SaveResult a = saver.Save(outlier, with);
        SaveResult b = saver.Save(outlier, without);
        SCOPED_TRACE(testing::Message()
                     << "m=" << dims << " kappa=" << kappa << " t=" << t);
        ASSERT_EQ(a.feasible, b.feasible);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_TRUE(a.adjusted == b.adjusted);
        EXPECT_EQ(a.kappa_exceeded, b.kappa_exceeded);
        EXPECT_LE(a.visited_sets, b.visited_sets);
      }
    }
  }
}

TEST(DiscSaver, LInfNanOutlierCellSaveTerminates) {
  // L∞ drops NaN terms, so a saved tuple may keep the outlier's NaN cell.
  // Revert refinement must see that cell as unchanged rather than "revert"
  // NaN to NaN forever, and the cell is not reported as adjusted.
  const std::size_t dims = 5;
  Relation inliers = GaussianInliers(120, dims, 21);
  DistanceEvaluator ev(inliers.schema(), LpNorm::kLInf);
  DiscSaver saver(inliers, ev, {1.5, 5});
  Tuple outlier = Tuple::Numeric({0.1, 0.1, 0.1, 0.1, 20.0});
  outlier[0] = Value(std::nan(""));
  SaveResult res = saver.Save(outlier);
  EXPECT_EQ(res.termination, SaveTermination::kCompleted);
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(res.stats.revert_refines, dims);
  EXPECT_TRUE(std::isnan(res.adjusted[0].num()));
  EXPECT_FALSE(res.adjusted_attributes.contains(0));
  EXPECT_TRUE(res.adjusted_attributes.contains(4));
}

TEST(DiscSaver, VisitedSetsBoundedByPowerSet) {
  Relation inliers = GaussianInliers(50, 3, 12);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.0, 4});
  SaveResult res = saver.Save(Tuple::Numeric({10, 10, 10}));
  EXPECT_LE(res.visited_sets, 8u);  // 2^3
}

TEST(DiscSaver, BudgetCapRespected) {
  Relation inliers = GaussianInliers(60, 6, 13);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {2.0, 4});
  SaveOptions opts;
  opts.budget.max_visited_sets = 5;
  SaveResult res = saver.Save(Tuple::Numeric({9, 9, 9, 9, 9, 9}), opts);
  EXPECT_LE(res.visited_sets, 6u);  // cap + the set that tripped it
}

// Regression: a budget-capped search must be distinguishable from a
// completed one (the cap used to truncate silently).
TEST(DiscSaver, BudgetCapReportsTermination) {
  Relation inliers = GaussianInliers(60, 6, 13);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {2.0, 4});
  SaveOptions opts;
  opts.budget.max_visited_sets = 5;
  SaveResult capped = saver.Save(Tuple::Numeric({9, 9, 9, 9, 9, 9}), opts);
  EXPECT_EQ(capped.termination, SaveTermination::kVisitBudget);

  // The same search without a cap completes (or proves infeasibility).
  SaveResult full = saver.Save(Tuple::Numeric({9, 9, 9, 9, 9, 9}));
  EXPECT_TRUE(full.termination == SaveTermination::kCompleted ||
              full.termination == SaveTermination::kInfeasible);
  // The truncated incumbent can never beat the full search's answer.
  if (capped.feasible) {
    ASSERT_TRUE(full.feasible);
    EXPECT_GE(capped.cost, full.cost - 1e-12);
  }
}

TEST(DiscSaver, AdjustedTupleIsAlwaysFeasible) {
  Relation inliers = GaussianInliers(80, 2, 14);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.0, 5};
  DiscSaver saver(inliers, ev, c);
  Rng rng(15);
  for (int t = 0; t < 15; ++t) {
    Tuple outlier =
        Tuple::Numeric({rng.Uniform(-30, 30), rng.Uniform(-30, 30)});
    SaveResult res = saver.Save(outlier);
    if (res.feasible) {
      EXPECT_TRUE(saver.bounds().IsFeasible(res.adjusted));
    }
  }
}

TEST(DiscSaver, InlierLikePointCostsLittle) {
  Relation inliers = GaussianInliers(80, 2, 16);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.0, 5});
  // A point already inside the cluster: zero or tiny adjustment.
  SaveResult res = saver.Save(Tuple::Numeric({0.05, -0.05}));
  ASSERT_TRUE(res.feasible);
  EXPECT_LT(res.cost, 1.0);
}

TEST(DiscSaver, KappaExceededFlagsNaturalOutlier) {
  Relation inliers = GaussianInliers(100, 3, 18);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.2, 5});
  // Natural outlier: every attribute far away.
  Tuple natural = Tuple::Numeric({40, -40, 40});
  SaveOptions opts;
  opts.kappa = 1;
  SaveResult res = saver.Save(natural, opts);
  EXPECT_FALSE(res.feasible);
  // A feasible adjustment exists (full substitution), so the κ budget —
  // not infeasibility — is what blocked the save.
  EXPECT_TRUE(res.kappa_exceeded);
}

TEST(DiscSaver, KappaNotExceededWhenTrulyInfeasible) {
  // With η larger than the inlier count, nothing is ever feasible.
  Relation inliers = GaussianInliers(5, 2, 19);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {0.5, 50});
  SaveOptions opts;
  opts.kappa = 1;
  SaveResult res = saver.Save(Tuple::Numeric({9, 9}), opts);
  EXPECT_FALSE(res.feasible);
  EXPECT_FALSE(res.kappa_exceeded);
}

TEST(DiscSaver, RevertRefinementNeverIncreasesCost) {
  Relation inliers = GaussianInliers(80, 3, 20);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.2, 5});
  Rng rng(70);
  for (int t = 0; t < 10; ++t) {
    Tuple outlier = Tuple::Numeric(
        {rng.Uniform(-20, 20), rng.Uniform(-20, 20), rng.Uniform(-20, 20)});
    SaveOptions with;
    SaveOptions without;
    without.use_revert_refinement = false;
    SaveResult a = saver.Save(outlier, with);
    SaveResult b = saver.Save(outlier, without);
    ASSERT_EQ(a.feasible, b.feasible);
    if (a.feasible) {
      EXPECT_LE(a.cost, b.cost + 1e-9);
      EXPECT_LE(a.adjusted_attributes.size(), b.adjusted_attributes.size());
      EXPECT_TRUE(saver.bounds().IsFeasible(a.adjusted));
    }
  }
}

TEST(DiscSaver, ChainDataSingleAttributeRepairUnderKappa) {
  // A chain (trajectory-like) inlier set: points along a line in 3-space.
  // Proposition 5's sufficient donor condition is very tight here; the
  // exact-feasibility splice must still find the single-attribute repair.
  Relation inliers(Schema::Numeric(3));
  Rng rng(21);
  for (int i = 0; i < 120; ++i) {
    inliers.AppendUnchecked(Tuple::Numeric(
        {double(i), i * 1.1 + rng.Gaussian(0, 0.15),
         i * 0.9 + rng.Gaussian(0, 0.15)}));
  }
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{3.2, 3};
  DiscSaver saver(inliers, ev, c);

  // A chain point with its second coordinate spiked.
  Tuple outlier = Tuple::Numeric({60.0, 60 * 1.1 + 25.0, 60 * 0.9});
  SaveOptions opts;
  opts.kappa = 2;
  SaveResult res = saver.Save(outlier, opts);
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(res.adjusted_attributes.size(), 2u);
  EXPECT_TRUE(res.adjusted_attributes.contains(1));
  EXPECT_TRUE(saver.bounds().IsFeasible(res.adjusted));
  // Cost ≈ the spike size, not a substitution across the chain.
  EXPECT_LT(res.cost, 27.0);
}

TEST(ChangedAttributes, DetectsDifferences) {
  Tuple a = Tuple::Numeric({1, 2, 3});
  Tuple b = Tuple::Numeric({1, 9, 3});
  AttributeSet changed = ChangedAttributes(a, b);
  EXPECT_EQ(changed.size(), 1u);
  EXPECT_TRUE(changed.contains(1));
}

TEST(ChangedAttributes, NanCellsAreTheSameValue) {
  Tuple a = Tuple::Numeric({std::nan(""), 1.0});
  Tuple b = Tuple::Numeric({std::nan(""), 2.0});
  EXPECT_EQ(ChangedAttributes(a, b).bits(), AttributeSet{1}.bits());
  EXPECT_TRUE(ChangedAttributes(a, a).empty());
}

TEST(ChangedAttributes, EmptyWhenIdentical) {
  Tuple a = Tuple::Numeric({1, 2});
  EXPECT_TRUE(ChangedAttributes(a, a).empty());
}

}  // namespace
}  // namespace disc
