// In-memory span recording for the traced run, plus the syscall-boundary
// shim that feeds it.
//
// A ThreadTrace belongs to one thread the benchmark owns (a server loop or the
// simulator driver). Spans carry a kind, start, end and the index of the span
// that caused them; spans and per-kind totals are kept only inside the
// measurement window [window_start, window_end) so that every ratio is taken
// over the same interval as the end-to-end figures. The span list is capped
// (kMaxSpans) to keep memory small; the totals and the duration samples used
// for percentiles cover every span in the window regardless of the cap.
//
// The shim (trace.cc) is linked with -Wl,--wrap for epoll_wait, read, write,
// writev, fdatasync and fsync: calls made from the repository's static
// libraries reach __wrap_<name>, which times the real call when the calling
// thread has a ThreadTrace installed and is a plain pass-through otherwise.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

enum class SpanKind : uint8_t {
  kStep,        // OmniTcpServer::StepOnce
  kEpollWait,   // epoll_wait (server loop)
  kRead,        // read (sockets, timerfds)
  kWritev,      // writev (socket sends)
  kWrite,       // write (WAL appends)
  kFdatasync,   // fdatasync (WAL group commit)
  kFsync,       // fsync (WAL directory sync)
  kSimRun,      // one simulation (RunNormal / RunPartition equivalent)
  kSimSlice,    // one ClusterSim::RunUntil call
  kCount,
};

const char* SpanKindName(SpanKind k);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kCount;
};

class ThreadTrace {
 public:
  static constexpr size_t kMaxSpans = 1u << 14;

  struct KindTotals {
    uint64_t count = 0;
    int64_t wall_ns = 0;
    uint64_t bytes = 0;  // read/write/writev return values
  };

  ThreadTrace() = default;
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  void SetWindow(int64_t start_ns, int64_t end_ns) {
    window_end_.store(end_ns, std::memory_order_relaxed);
    window_start_.store(start_ns, std::memory_order_relaxed);
  }

  // Opens a parent span (one StepOnce or one simulation slice); leaf spans
  // recorded until EndParent() name it as their cause.
  void BeginParent(SpanKind kind, int64_t start_ns);
  void EndParent(int64_t end_ns);

  // A span with no children, under the currently open parent if any.
  void Leaf(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t bytes = 0);

  const KindTotals& totals(SpanKind k) const { return totals_[static_cast<size_t>(k)]; }
  // Durations of every in-window span of this kind (ns), for percentiles.
  const std::vector<uint32_t>& durations(SpanKind k) const {
    return durations_[static_cast<size_t>(k)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // Writes kept spans as JSON lines tagged with `thread`, then one line
  // counting the in-window spans dropped past kMaxSpans.
  void WriteJsonl(std::FILE* f, const std::string& thread) const;

 private:
  bool InWindow(int64_t start_ns, int64_t end_ns) const {
    return start_ns >= window_start_.load(std::memory_order_relaxed) &&
           end_ns <= window_end_.load(std::memory_order_relaxed);
  }
  void Account(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t bytes);

  std::atomic<int64_t> window_start_{INT64_MAX};
  std::atomic<int64_t> window_end_{INT64_MAX};
  std::array<KindTotals, static_cast<size_t>(SpanKind::kCount)> totals_{};
  std::array<std::vector<uint32_t>, static_cast<size_t>(SpanKind::kCount)> durations_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  SpanKind open_kind_ = SpanKind::kCount;
  int64_t open_start_ = 0;
  uint32_t open_index_ = kNoParent;  // open parent's slot in spans_, if kept
};

// Installs `t` as the calling thread's recorder; nullptr makes every wrapped
// syscall a pass-through again.
void SetThreadTrace(ThreadTrace* t);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
