#include "trace.h"

#include <sys/epoll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace perfbench {
namespace {

thread_local ThreadTrace* tls_trace = nullptr;

// Kinds whose every in-window duration is kept for percentiles; the rest
// (one per socket read/writev/epoll_wait) only feed the totals.
bool KeepsDurations(SpanKind k) {
  return k == SpanKind::kStep || k == SpanKind::kFdatasync || k == SpanKind::kSimSlice;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kStep: return "StepOnce";
    case SpanKind::kEpollWait: return "epoll_wait";
    case SpanKind::kRead: return "read";
    case SpanKind::kWritev: return "writev";
    case SpanKind::kWrite: return "write";
    case SpanKind::kFdatasync: return "fdatasync";
    case SpanKind::kFsync: return "fsync";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kSimSlice: return "ClusterSim::RunUntil";
    case SpanKind::kCount: break;
  }
  return "?";
}

void ThreadTrace::Account(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t bytes) {
  KindTotals& t = totals_[static_cast<size_t>(kind)];
  ++t.count;
  t.wall_ns += end_ns - start_ns;
  t.bytes += bytes;
  if (KeepsDurations(kind)) {
    const int64_t d = end_ns - start_ns;
    durations_[static_cast<size_t>(kind)].push_back(
        static_cast<uint32_t>(d > UINT32_MAX ? UINT32_MAX : d));
  }
}

void ThreadTrace::BeginParent(SpanKind kind, int64_t start_ns) {
  open_kind_ = kind;
  open_start_ = start_ns;
  open_index_ = kNoParent;
  if (start_ns >= window_start_.load(std::memory_order_relaxed) &&
      start_ns < window_end_.load(std::memory_order_relaxed)) {
    if (spans_.size() < kMaxSpans) {
      open_index_ = static_cast<uint32_t>(spans_.size());
      spans_.push_back(Span{start_ns, start_ns, kNoParent, kind});
    } else {
      ++dropped_;
    }
  }
}

void ThreadTrace::EndParent(int64_t end_ns) {
  if (open_index_ != kNoParent) {
    spans_[open_index_].end_ns = end_ns;
  }
  if (InWindow(open_start_, end_ns)) {
    Account(open_kind_, open_start_, end_ns, 0);
  }
  open_kind_ = SpanKind::kCount;
  open_index_ = kNoParent;
}

void ThreadTrace::Leaf(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t bytes) {
  if (!InWindow(start_ns, end_ns)) {
    return;
  }
  Account(kind, start_ns, end_ns, bytes);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(Span{start_ns, end_ns, open_index_, kind});
  } else {
    ++dropped_;
  }
}

void ThreadTrace::WriteJsonl(std::FILE* f, const std::string& thread) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"thread\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld}\n",
                 thread.c_str(), i, SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "{\"thread\":\"%s\",\"dropped\":%llu}\n", thread.c_str(),
               static_cast<unsigned long long>(dropped_));
}

void SetThreadTrace(ThreadTrace* t) { tls_trace = t; }

}  // namespace perfbench

// --- Syscall shim ------------------------------------------------------------
// errno is saved across the clock reads so callers see the real call's errno.

extern "C" {
int __real_epoll_wait(int epfd, struct epoll_event* events, int maxevents, int timeout);
ssize_t __real_read(int fd, void* buf, size_t count);
ssize_t __real_write(int fd, const void* buf, size_t count);
ssize_t __real_writev(int fd, const struct iovec* iov, int iovcnt);
int __real_fdatasync(int fd);
int __real_fsync(int fd);
}

namespace {

template <typename Call>
auto Timed(perfbench::SpanKind kind, Call&& call) {
  perfbench::ThreadTrace* t = perfbench::tls_trace;
  if (t == nullptr) {
    return call();
  }
  const int64_t start = perfbench::NowNs();
  auto result = call();
  const int saved = errno;
  const uint64_t bytes = result > 0 && (kind == perfbench::SpanKind::kRead ||
                                        kind == perfbench::SpanKind::kWrite ||
                                        kind == perfbench::SpanKind::kWritev)
                             ? static_cast<uint64_t>(result)
                             : 0;
  t->Leaf(kind, start, perfbench::NowNs(), bytes);
  errno = saved;
  return result;
}

}  // namespace

extern "C" {

int __wrap_epoll_wait(int epfd, struct epoll_event* events, int maxevents, int timeout) {
  return Timed(perfbench::SpanKind::kEpollWait,
               [&] { return __real_epoll_wait(epfd, events, maxevents, timeout); });
}

ssize_t __wrap_read(int fd, void* buf, size_t count) {
  return Timed(perfbench::SpanKind::kRead, [&] { return __real_read(fd, buf, count); });
}

ssize_t __wrap_write(int fd, const void* buf, size_t count) {
  return Timed(perfbench::SpanKind::kWrite, [&] { return __real_write(fd, buf, count); });
}

ssize_t __wrap_writev(int fd, const struct iovec* iov, int iovcnt) {
  return Timed(perfbench::SpanKind::kWritev, [&] { return __real_writev(fd, iov, iovcnt); });
}

int __wrap_fdatasync(int fd) {
  return Timed(perfbench::SpanKind::kFdatasync, [&] { return __real_fdatasync(fd); });
}

int __wrap_fsync(int fd) {
  return Timed(perfbench::SpanKind::kFsync, [&] { return __real_fsync(fd); });
}

}  // extern "C"
