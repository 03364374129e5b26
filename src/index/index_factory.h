#ifndef DISC_INDEX_INDEX_FACTORY_H_
#define DISC_INDEX_INDEX_FACTORY_H_

#include <memory>

#include "common/relation.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Picks the index for a relation, by the one eligibility rule of the
/// columnar tier (ColumnarView::Eligible):
///  - KdTree when the relation is all-numeric with 1–64 attributes and the
///    evaluator uses the unit absolute-difference metric on every one,
///  - BruteForceIndex, the scalar reference, otherwise (string attributes,
///    custom or scaled metrics — detected by metric introspection).
///
/// `epsilon_hint` no longer selects an index: the kd-tree serves every ε.
/// It is kept so the many callers that pass their query ε (the benchmark
/// among them) compile unchanged. Callers that need the scalar reference
/// on eligible data construct BruteForceIndex directly.
std::unique_ptr<NeighborIndex> MakeNeighborIndex(
    const Relation& relation, const DistanceEvaluator& evaluator,
    double epsilon_hint = 0);

}  // namespace disc

#endif  // DISC_INDEX_INDEX_FACTORY_H_
