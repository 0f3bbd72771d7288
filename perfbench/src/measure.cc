#include "measure.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/util/stats.h"

namespace perfbench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

pid_t CurrentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

bool ReadThreadAcct(pid_t tid, ThreadAcct* out) {
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  std::string stat;
  std::string sched;
  if (!ReadFile(dir + "stat", &stat) || !ReadFile(dir + "schedstat", &sched)) {
    return false;
  }
  // Fields after the parenthesised comm: state(3) ppid ... minflt(10) ...
  // utime(14) stime(15). comm may contain spaces, so split after the last ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream fields(stat.substr(close + 2));
  std::vector<std::string> f;
  for (std::string tok; fields >> tok;) {
    f.push_back(tok);
  }
  if (f.size() < 13) {
    return false;
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->minflt = std::stoull(f[7]);
  out->user_s = static_cast<double>(std::stoull(f[11])) / hz;
  out->sys_s = static_cast<double>(std::stoull(f[12])) / hz;
  long long on_cpu = 0;
  long long waiting = 0;
  if (std::sscanf(sched.c_str(), "%lld %lld", &on_cpu, &waiting) != 2) {
    return false;
  }
  out->cpu_ns = on_cpu;
  out->runq_ns = waiting;
  return true;
}

ProcAcct ReadProcAcct() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {TvSeconds(ru.ru_utime), TvSeconds(ru.ru_stime),
          static_cast<uint64_t>(ru.ru_minflt)};
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu h;
  // user nice system idle iowait irq softirq steal (guest time is in user)
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) {
      return {};
    }
    h.total += v;
    if (i == 7) {
      h.steal = v;
    }
  }
  return h;
}

double PeakRssMb() {
  std::string status;
  if (!ReadFile("/proc/self/status", &status)) {
    return 0;
  }
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) {
    return 0;
  }
  return static_cast<double>(std::stoull(status.substr(at + 6))) / 1024.0;
}

double PercentileOr0(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : opx::Percentile(std::move(v), p);
}

namespace {
constexpr size_t kLinearBuckets = 10'000;  // [i us, (i+1) us)
constexpr size_t kLogBuckets = 1'000;      // x1.01 each from 10 ms
constexpr double kLinearEndNs = 1e7;
constexpr double kGrowth = 1.01;
}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kLinearBuckets + kLogBuckets + 1, 0) {}

size_t LatencyHistogram::Index(int64_t ns) {
  if (ns < 0) {
    return 0;
  }
  const double v = static_cast<double>(ns);
  if (v < kLinearEndNs) {
    return static_cast<size_t>(ns / 1000);
  }
  const size_t k = static_cast<size_t>(std::log(v / kLinearEndNs) / std::log(kGrowth));
  return kLinearBuckets + std::min(k, kLogBuckets);
}

double LatencyHistogram::Lower(size_t index) {
  if (index < kLinearBuckets) {
    return static_cast<double>(index) * 1000.0;
  }
  return kLinearEndNs * std::pow(kGrowth, static_cast<double>(index - kLinearBuckets));
}

double LatencyHistogram::BucketWidth(double ns) {
  const size_t i = Index(static_cast<int64_t>(ns));
  return Lower(i + 1) - Lower(i);
}

void LatencyHistogram::Add(int64_t ns) {
  ++counts_[Index(ns)];
  ++count_;
}

double LatencyHistogram::Quantile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    if (rank < static_cast<double>(before + counts_[i])) {
      const double within = std::min(
          1.0, (rank - static_cast<double>(before) + 0.5) / static_cast<double>(counts_[i]));
      return Lower(i) + within * (Lower(i + 1) - Lower(i));
    }
    before += counts_[i];
  }
  return Lower(counts_.size() - 1);
}

}  // namespace perfbench
