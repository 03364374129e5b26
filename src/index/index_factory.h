#ifndef DISC_INDEX_INDEX_FACTORY_H_
#define DISC_INDEX_INDEX_FACTORY_H_

#include <memory>

#include "common/relation.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Picks the index for a relation:
///  - KdTree for all-numeric relations of arity 1–63 whose evaluator uses
///    the unit-scale absolute-difference metric on every attribute,
///  - BruteForceIndex otherwise (string attributes, custom metrics or
///    non-unit scales — detected by metric introspection — whose columnar
///    fast path still handles scaled numeric metrics exactly).
///
/// `epsilon_hint` no longer selects an index: the kd-tree serves every ε.
/// It is kept so the many callers that pass their query ε (the benchmark
/// among them) compile unchanged. `force_brute_force` forces the fallback
/// explicitly (e.g. for reference comparisons in tests).
std::unique_ptr<NeighborIndex> MakeNeighborIndex(
    const Relation& relation, const DistanceEvaluator& evaluator,
    double epsilon_hint = 0, bool force_brute_force = false);

}  // namespace disc

#endif  // DISC_INDEX_INDEX_FACTORY_H_
