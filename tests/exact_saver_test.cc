#include "core/exact_saver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/observation.h"

namespace disc {
namespace {

Relation LatticeInliers(int side) {
  Relation r(Schema::Numeric(2));
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      r.AppendUnchecked(Tuple::Numeric({double(x), double(y)}));
    }
  }
  return r;
}

TEST(ExactSaver, FindsZeroCostForFeasibleInput) {
  Relation inliers = LatticeInliers(5);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 4});
  // (2,2) is a lattice point: it already has plenty of neighbors.
  SaveResult res = saver.Save(Tuple::Numeric({2, 2}));
  ASSERT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.cost, 0.0);
  EXPECT_TRUE(res.adjusted_attributes.empty());
}

TEST(ExactSaver, OptimalSingleAttributeFix) {
  Relation inliers = LatticeInliers(5);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 4});
  // (2, 50): only the y attribute is broken; the optimum snaps y back into
  // the lattice while keeping x = 2.
  SaveResult res = saver.Save(Tuple::Numeric({2, 50}));
  ASSERT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.adjusted[0].num(), 2.0);
  EXPECT_LE(res.adjusted[1].num(), 4.0);
  EXPECT_EQ(res.adjusted_attributes.size(), 1u);
  EXPECT_TRUE(res.adjusted_attributes.contains(1));
  // Cost = 50 − adjusted y.
  EXPECT_NEAR(res.cost, 50.0 - res.adjusted[1].num(), 1e-9);
}

TEST(ExactSaver, ExhaustiveMatchesBruteForceOnTinyInstance) {
  // Independently enumerate the full candidate cross-product and verify the
  // saver returns the true optimum.
  Relation inliers = LatticeInliers(3);  // 9 points, domains {0,1,2}
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint c{1.2, 3};
  ExactSaver saver(inliers, ev, c);

  Tuple outlier = Tuple::Numeric({7.3, -2.1});
  SaveResult res = saver.Save(outlier);

  // Brute force over (domain ∪ original)².
  std::vector<double> dom = {0, 1, 2};
  std::vector<double> xs = dom;
  xs.push_back(7.3);
  std::vector<double> ys = dom;
  ys.push_back(-2.1);
  double best = 1e300;
  for (double x : xs) {
    for (double y : ys) {
      Tuple cand = Tuple::Numeric({x, y});
      std::size_t neighbors = 0;
      for (const Tuple& in : inliers) {
        if (ev.Distance(cand, in) <= c.epsilon) ++neighbors;
      }
      if (neighbors >= c.eta - 1) {  // self counts per Formula 4
        best = std::min(best, ev.Distance(outlier, cand));
      }
    }
  }
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.cost, best, 1e-9);
}

TEST(ExactSaver, InfeasibleWhenNoInliersReachable) {
  // η larger than the inlier count + 1 can never be met.
  Relation inliers = LatticeInliers(2);  // 4 points
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {0.5, 10});
  SaveResult res = saver.Save(Tuple::Numeric({9, 9}));
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(res.adjusted, Tuple::Numeric({9, 9}));
}

TEST(ExactSaver, BudgetCapReported) {
  Relation inliers = LatticeInliers(6);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 4});
  SearchObserver observer;
  observer.capture = true;
  SaveOptions opts;
  opts.budget.max_visited_sets = 3;
  SaveResult res = saver.Save(Tuple::Numeric({10, 10}), opts,
                              Deadline::Infinite(), {}, &observer);
  EXPECT_EQ(res.termination, SaveTermination::kVisitBudget);
  EXPECT_EQ(res.stats.nodes_expanded, 4u);
  // The budget layer logs where it stopped the enumeration.
  ASSERT_FALSE(observer.events.empty());
  EXPECT_EQ(observer.events.back().action, ExplainAction::kPruneBudget);
}

TEST(ExactSaver, KappaFlagsAnOptimumBeyondTheBudget) {
  // (10, 10) is off the lattice on both attributes, so its optimum changes
  // two. κ = 1 keeps the input and flags it; κ = 2 and κ = 0 (unrestricted)
  // return the optimum itself.
  Relation inliers = LatticeInliers(5);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 4});
  const Tuple outlier = Tuple::Numeric({10, 10});
  const SaveResult optimum = saver.Save(outlier);
  ASSERT_TRUE(optimum.feasible);
  ASSERT_EQ(optimum.adjusted_attributes.size(), 2u);
  EXPECT_FALSE(optimum.kappa_exceeded);

  SaveOptions opts;
  opts.kappa = 1;
  const SaveResult flagged = saver.Save(outlier, opts);
  EXPECT_FALSE(flagged.feasible);
  EXPECT_TRUE(flagged.kappa_exceeded);
  EXPECT_EQ(flagged.termination, SaveTermination::kCompleted);
  EXPECT_EQ(flagged.adjusted, outlier);
  EXPECT_EQ(flagged.cost, 0.0);
  EXPECT_TRUE(flagged.adjusted_attributes.empty());
  EXPECT_TRUE(flagged.stats.SameWork(optimum.stats));

  opts.kappa = 2;
  const SaveResult within = saver.Save(outlier, opts);
  EXPECT_TRUE(within.feasible);
  EXPECT_FALSE(within.kappa_exceeded);
  EXPECT_EQ(within.adjusted, optimum.adjusted);
  EXPECT_EQ(within.cost, optimum.cost);
}

TEST(ExactSaver, CompletedSearchReportsDefinitiveTermination) {
  Relation inliers = LatticeInliers(4);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 3});
  SaveResult res = saver.Save(Tuple::Numeric({8, 8}));
  EXPECT_TRUE(res.termination == SaveTermination::kCompleted ||
              res.termination == SaveTermination::kInfeasible);
  EXPECT_EQ(res.termination == SaveTermination::kCompleted, res.feasible);
  EXPECT_GT(res.stats.index_queries, 0u);
}

TEST(ExactSaver, CandidatesCheckedGrowsWithDomain) {
  DistanceEvaluator ev2(Schema::Numeric(2));
  Relation small = LatticeInliers(3);
  Relation large = LatticeInliers(6);
  ExactSaver s_small(small, ev2, {1.5, 3});
  ExactSaver s_large(large, ev2, {1.5, 3});
  Tuple outlier = Tuple::Numeric({30, 30});
  SaveResult a = s_small.Save(outlier);
  SaveResult b = s_large.Save(outlier);
  EXPECT_LT(a.stats.nodes_expanded, b.stats.nodes_expanded);
}

TEST(ExactSaver, EtaOneReturnsOriginal) {
  Relation inliers = LatticeInliers(3);
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.0, 1});
  // η = 1: self-count satisfies the constraint; zero-cost result.
  SaveResult res = saver.Save(Tuple::Numeric({100, 100}));
  ASSERT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.cost, 0.0);
}

}  // namespace
}  // namespace disc
