// sim-paper workload: the deterministic simulator through a fixed schedule —
// a Fig. 7-style regular execution and the Table 1 partial-connectivity
// scenarios — audited, with every outcome checked against stored values.
#ifndef PERFBENCH_SRC_SIM_H_
#define PERFBENCH_SRC_SIM_H_

#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

RunOutcome RunSimPaper(const RunSpec& spec);

// Self-test: the sliced driver this benchmark uses must reproduce the
// library runners (rsm::RunNormal / rsm::RunPartition) exactly. Returns the
// mismatches found (empty when they agree).
std::vector<std::string> CheckSlicedMatchesLibrary();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SIM_H_
