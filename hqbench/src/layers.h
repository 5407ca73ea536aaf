// The traced run (--trace 1): per-layer metrics, each measured from
// outside by timing calls into one module's public functions.

#pragma once

#include "workload.h"

namespace hqbench {

/// \brief Runs the traced measurement and prints the per-layer metrics.
/// Returns the process exit code (1 on a wrong answer).
int RunTraced(const Workload& workload, uint64_t seed, double seconds);

}  // namespace hqbench
