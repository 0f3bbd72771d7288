// Non-blocking epoll event loop — the readiness core of the real-network hot
// path (DESIGN.md §14, ROADMAP item 4).
//
// Replaces the per-iteration pollfd-vector rebuild of the old poll() loop
// with a registered interest list: each fd is added to the kernel set once
// (EPOLL_CTL_ADD) with a handler, and every Wait() is a single epoll_wait
// plus direct dispatch — O(ready), not O(watched).
//
// Readiness is edge-style (EPOLLET): a handler must drain its fd, because
// the kernel only reports the *transition* to readable/writable. A read
// short of its buffer is a drained socket as surely as EAGAIN is (epoll(7)),
// provided a FIN in the same edge (kPeerClosed) still gets its read.
// Handlers that stop early resume on the next edge — the send-queue resume
// offset in FrameQueue exists exactly for this.
//
// Timers are timerfds in the same interest list (AddTimer), so election
// ticks and reconnect sweeps wake the one sanctioned wait instead of
// requiring the caller to recompute poll timeouts every iteration.
//
// Handlers may Add/Remove fds (including their own) while Wait() dispatches:
// registration handles are generation-tagged, so an event for an fd that was
// removed — or removed and reused — earlier in the same batch is ignored.
//
// Single-threaded: no locks, no hidden threads; the owner drives everything
// through Wait().
#ifndef SRC_NET_EPOLL_LOOP_H_
#define SRC_NET_EPOLL_LOOP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/util/time.h"
#include "src/util/unique_function.h"

namespace opx::net {

class EpollLoop {
 public:
  // Bits passed to handlers (subset of epoll's EPOLLIN/OUT/ERR/HUP/RDHUP).
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;  // EPOLLERR | EPOLLHUP
  // EPOLLRDHUP: the peer's FIN has arrived. It comes with kReadable, so a
  // handler that reads to EAGAIN can ignore it; one that stops at a short
  // read must read on to the 0 when it is set.
  static constexpr uint32_t kPeerClosed = 1u << 3;

  using IoHandler = util::UniqueFunction<void(uint32_t events), 48>;
  using TimerHandler = util::UniqueFunction<void(), 48>;

  EpollLoop();
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  // False when the epoll fd could not be created.
  bool ok() const { return epoll_fd_ >= 0; }

  // Registers `fd` edge-triggered for read and write readiness and for the
  // peer's FIN. The fd must already be O_NONBLOCK. Returns false if the
  // kernel rejects it.
  bool Add(int fd, IoHandler handler);

  // Unregisters `fd` (the caller still owns and closes it). Safe to call
  // from inside a handler, including the fd's own.
  void Remove(int fd);

  // Periodic timer: `handler` fires once per Wait() in which the period
  // elapsed (missed periods coalesce — an election tick that fell behind
  // fires once, mirroring the old loop's catch-up reset). Returns the
  // timerfd (for CancelTimer), or -1 on failure.
  int AddTimer(Time period, TimerHandler handler);
  void CancelTimer(int timer_fd);

  // One readiness pass: waits up to timeout_ms (0 = non-blocking poll) and
  // dispatches every ready handler inline. Returns the number of events
  // dispatched, or -1 on wait failure.
  int Wait(int timeout_ms);

  size_t watched() const { return watches_.size(); }

 private:
  struct Watch {
    uint64_t gen = 0;
    bool is_timer = false;
    IoHandler on_io;
    TimerHandler on_timer;
  };

  int epoll_fd_ = -1;
  uint64_t next_gen_ = 1;
  bool dispatching_ = false;
  std::map<int, std::unique_ptr<Watch>> watches_;  // fd -> handler (+ generation)
  // Watches removed from inside a handler stay alive here until the current
  // dispatch batch ends — a handler may remove its own fd while its closure
  // is still on the stack.
  std::vector<std::unique_ptr<Watch>> graveyard_;
};

}  // namespace opx::net

#endif  // SRC_NET_EPOLL_LOOP_H_
