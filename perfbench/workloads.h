// The benchmark's named workloads: a data shape for the generator plus the
// pipeline settings the program runs it with.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "generator.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Which layers this workload loads, and which it leaves idle.
  std::string why;
  DataSpec data;
  double epsilon = 1;
  std::size_t eta = 2;
  std::size_t kappa = 0;
  /// SaveAll workers: 1 (sequential, pool bypassed) or min(4, cores).
  std::size_t workers = 1;
  /// Attach every observer `disc_cli --serve` attaches, plus in-memory
  /// trace and explain sinks.
  bool served = false;
};

/// Every workload, in the order they are documented.
std::vector<Workload> AllWorkloads();

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
