#include "index/index_factory.h"

#include "common/log.h"
#include "distance/columnar.h"
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
    double /*epsilon_hint*/) {
  // KdTree hard-codes the unit absolute-difference metric over columnar
  // leaves; every other relation runs on the scalar reference.
  if (!ColumnarView::Eligible(relation, evaluator)) {
    return LogChoice(std::make_unique<BruteForceIndex>(relation, evaluator),
                     relation);
  }
  return LogChoice(std::make_unique<KdTree>(relation, evaluator.norm()),
                   relation);
}

}  // namespace disc
