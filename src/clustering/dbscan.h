#ifndef DISC_CLUSTERING_DBSCAN_H_
#define DISC_CLUSTERING_DBSCAN_H_

#include <cstddef>

#include "clustering/labels.h"
#include "common/relation.h"
#include "distance/evaluator.h"

namespace disc {

/// DBSCAN parameters: a point is a core point when it has at least
/// `min_pts` neighbors within `epsilon` (itself included, as in the
/// original Ester et al. formulation).
struct DbscanParams {
  double epsilon = 1.0;
  std::size_t min_pts = 4;
};

/// Density-based clustering (Ester et al., KDD'96). Core points expand
/// clusters through density-reachability; a border point joins the
/// lowest-numbered cluster with a core point within ε of it; everything
/// else is labeled kNoise. Clusters are numbered in order of their
/// lowest-row core point, so labels do not depend on expansion order.
///
/// Works on any schema supported by the evaluator (strings included).
Labels Dbscan(const Relation& relation, const DistanceEvaluator& evaluator,
              const DbscanParams& params);

}  // namespace disc

#endif  // DISC_CLUSTERING_DBSCAN_H_
