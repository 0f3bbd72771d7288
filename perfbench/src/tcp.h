// TCP workloads: an in-process 3-node OmniTcpServer cluster on loopback, each
// server driven by a loop thread this benchmark owns, loaded by one open-loop
// generator thread over a fixed number of client connections.
#ifndef PERFBENCH_SRC_TCP_H_
#define PERFBENCH_SRC_TCP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct TcpWorkload {
  const char* name;
  bool wal;              // each node on a fresh segmented WAL (else volatile)
  double read_fraction;  // share of ops sent as lease reads (0x06)
  double rate;           // offered ops/s, Poisson arrivals
};

// Runs one measurement of `w`. With spec.traced the servers are wired to
// obs sinks and their loop threads record spans.
RunOutcome RunTcp(const TcpWorkload& w, const RunSpec& spec);

// Self-test: the generator against a stub server that acknowledges appends
// at once. The stub stalls for `stall_ms` once, `target_stall_at_ms` into the
// schedule; separately the generator's own thread is stalled as long,
// `gen_stall_at_ms` in (a signal handler that sleeps). Reports when each
// stall actually began and every completed op's scheduled send time and
// measured latency, all in ms from the schedule's start.
struct StubSample {
  double due_ms;
  double latency_ms;
};
struct StallOutcome {
  double target_stall_began_ms = 0;
  double gen_stall_began_ms = 0;
  std::vector<StubSample> samples;
};
bool RunStallTest(double rate, double seconds, double target_stall_at_ms,
                  double gen_stall_at_ms, double stall_ms, StallOutcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TCP_H_
