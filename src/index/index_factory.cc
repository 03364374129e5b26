#include "index/index_factory.h"

#include "common/log.h"
#include "index/brute_force_index.h"
#include "index/kd_tree.h"

namespace disc {

namespace {

std::unique_ptr<NeighborIndex> LogChoice(std::unique_ptr<NeighborIndex> index,
                                         const Relation& relation) {
  DISC_LOG(DEBUG)
      .Str("impl", index->Name())
      .Uint("rows", relation.size())
      .Uint("arity", relation.arity())
      << "neighbor index built";
  return index;
}

}  // namespace

std::unique_ptr<NeighborIndex> MakeNeighborIndex(
    const Relation& relation, const DistanceEvaluator& evaluator,
    double /*epsilon_hint*/, bool force_brute_force) {
  // KdTree hard-codes the unit-scale absolute-difference metric; any other
  // evaluator configuration (custom metrics, non-unit scales) must go
  // through BruteForceIndex — which engages its own columnar fast path
  // whenever the relation is all-numeric with scaled-abs-diff metrics.
  if (force_brute_force || !relation.schema().all_numeric() ||
      relation.arity() == 0 || relation.arity() > 63 ||
      !evaluator.AllUnitAbsoluteDifference()) {
    return LogChoice(std::make_unique<BruteForceIndex>(relation, evaluator),
                     relation);
  }
  return LogChoice(std::make_unique<KdTree>(relation, evaluator.norm()),
                   relation);
}

}  // namespace disc
