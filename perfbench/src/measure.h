// Measurement helpers shared by the workloads: kernel accounting read from
// /proc, percentiles, and the ordered metric list each run reports.
#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Per-thread kernel accounting from /proc/self/task/<tid>/{stat,schedstat}.
struct ThreadAcct {
  double user_s = 0;       // stat utime (clock ticks)
  double sys_s = 0;        // stat stime
  int64_t cpu_ns = 0;      // schedstat: time on CPU
  int64_t runq_ns = 0;     // schedstat: time runnable but waiting for a CPU
  uint64_t minflt = 0;

  ThreadAcct operator-(const ThreadAcct& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, cpu_ns - o.cpu_ns, runq_ns - o.runq_ns,
            minflt - o.minflt};
  }
};

pid_t CurrentTid();
// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ns.
int64_t ThreadCpuNs();
// False when the task's files cannot be read (thread gone).
bool ReadThreadAcct(pid_t tid, ThreadAcct* out);

// Process-wide CPU and faults (getrusage RUSAGE_SELF).
struct ProcAcct {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minflt = 0;

  double cpu_s() const { return user_s + sys_s; }
  ProcAcct operator-(const ProcAcct& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minflt - o.minflt};
  }
};
ProcAcct ReadProcAcct();

// Whole-machine CPU time from the first line of /proc/stat, in clock ticks.
// `steal` is time the hypervisor ran something else while a vCPU wanted to
// run: printed with every run, so a run slowed by the host can be told from
// one slowed by the program.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;

  double steal_share_since(const HostCpu& earlier) const {
    return total == earlier.total
               ? 0.0
               : static_cast<double>(steal - earlier.steal) /
                     static_cast<double>(total - earlier.total);
  }
};
HostCpu ReadHostCpu();

// VmHWM from /proc/self/status, in MB (1 MB = 2^20 bytes).
double PeakRssMb();

// opx::Percentile (p in [0, 100], linear interpolation between order
// statistics), but 0 for an empty sample: a layer the workload does not
// exercise reads 0.
double PercentileOr0(std::vector<double> v, double p);

// Fixed-memory latency histogram, so that per-op samples do not inflate the
// process's peak RSS: 1 us buckets below 10 ms, then buckets 1% wide up to
// ~200 s. Quantile() uses the same rank definition as opx::Percentile and
// places the samples of a bucket evenly across it, so its error is at most
// one bucket width.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(int64_t ns);
  uint64_t count() const { return count_; }
  double Quantile(double p) const;  // ns; 0 when empty
  // Width of the bucket holding `ns` (the error bound of Quantile there).
  static double BucketWidth(double ns);

 private:
  static size_t Index(int64_t ns);
  static double Lower(size_t index);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// The metrics one run reports, in the order they were added.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// One run of a workload: what it is given and what it reports.
struct RunSpec {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string wal_root;    // fresh per-run directory for WAL trees
  std::string spans_path;  // traced run: where the kept spans are written
};

struct RunOutcome {
  MetricList e2e;     // end-to-end metrics (untraced run)
  MetricList layers;  // per-layer metrics (traced run)
  MetricList extra;   // printed in the run's row only (not tracked)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness/validity checks
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
