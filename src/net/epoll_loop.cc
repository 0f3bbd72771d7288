#include "src/net/epoll_loop.h"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace opx::net {
namespace {

// epoll_data packs (fd, generation) so a dispatch can detect that the watch
// it refers to was removed — or removed and the fd number reused — by an
// earlier handler in the same ready batch.
uint64_t PackTag(int fd, uint64_t gen) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(fd)) << 32) | (gen & 0xFFFFFFFFu);
}
int TagFd(uint64_t tag) { return static_cast<int>(tag >> 32); }
uint64_t TagGen(uint64_t tag) { return tag & 0xFFFFFFFFu; }

}  // namespace

EpollLoop::EpollLoop() { epoll_fd_ = epoll_create1(EPOLL_CLOEXEC); }

EpollLoop::~EpollLoop() {
  for (const auto& [fd, watch] : watches_) {
    if (watch->is_timer) {
      close(fd);  // timerfds are owned by the loop; I/O fds by the caller
    }
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

bool EpollLoop::Add(int fd, IoHandler handler) {
  if (epoll_fd_ < 0 || fd < 0) {
    return false;
  }
  const uint64_t gen = next_gen_++ & 0xFFFFFFFFu;  // matches the 32-bit tag field
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = PackTag(fd, gen);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return false;
  }
  auto w = std::make_unique<Watch>();
  w->gen = gen;
  w->is_timer = false;
  w->on_io = std::move(handler);
  watches_[fd] = std::move(w);
  return true;
}

void EpollLoop::Remove(int fd) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) {
    return;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  if (dispatching_) {
    graveyard_.push_back(std::move(it->second));
  }
  watches_.erase(it);
}

int EpollLoop::AddTimer(Time period, TimerHandler handler) {
  if (epoll_fd_ < 0 || period <= 0) {
    return -1;
  }
  const int fd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (fd < 0) {
    return -1;
  }
  itimerspec spec{};
  spec.it_interval.tv_sec = period / 1'000'000'000;
  spec.it_interval.tv_nsec = period % 1'000'000'000;
  spec.it_value = spec.it_interval;
  if (timerfd_settime(fd, 0, &spec, nullptr) != 0) {
    close(fd);
    return -1;
  }
  const uint64_t gen = next_gen_++ & 0xFFFFFFFFu;  // matches the 32-bit tag field
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = PackTag(fd, gen);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    close(fd);
    return -1;
  }
  auto w = std::make_unique<Watch>();
  w->gen = gen;
  w->is_timer = true;
  w->on_timer = std::move(handler);
  watches_[fd] = std::move(w);
  return fd;
}

void EpollLoop::CancelTimer(int timer_fd) {
  auto it = watches_.find(timer_fd);
  if (it == watches_.end() || !it->second->is_timer) {
    return;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, timer_fd, nullptr);
  close(timer_fd);
  if (dispatching_) {
    graveyard_.push_back(std::move(it->second));
  }
  watches_.erase(it);
}

int EpollLoop::Wait(int timeout_ms) {
  if (epoll_fd_ < 0) {
    return -1;
  }
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  // The one sanctioned wait: this epoll_wait IS the event loop's readiness
  // gate (the successor of the old poll(), DESIGN.md §14).
  const int ready = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);  // NOLINT(opx-blocking-in-loop)
  if (ready <= 0) {
    return ready == 0 || errno == EINTR ? 0 : -1;
  }
  dispatching_ = true;
  int dispatched = 0;
  for (int i = 0; i < ready; ++i) {
    const int fd = TagFd(events[i].data.u64);
    auto it = watches_.find(fd);
    // Stale tag: the watch was removed (or removed and the fd reused, which
    // changes the generation) by an earlier handler in this batch.
    if (it == watches_.end() || it->second->gen != TagGen(events[i].data.u64)) {
      continue;
    }
    Watch& w = *it->second;
    if (w.is_timer) {
      // Drain the expiry count (edge-triggered); missed periods coalesce
      // into one firing. The timerfd is TFD_NONBLOCK, so this read never
      // waits — it returns EAGAIN when the timer already drained.
      uint64_t expirations = 0;
      const ssize_t n = read(fd, &expirations, sizeof(expirations));  // NOLINT(opx-blocking-in-loop)
      if (n == sizeof(expirations) && expirations > 0) {
        ++dispatched;
        w.on_timer();
      }
      continue;
    }
    uint32_t bits = 0;
    if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
      bits |= kError;
    }
    if ((events[i].events & EPOLLIN) != 0) {
      bits |= kReadable;
    }
    if ((events[i].events & EPOLLOUT) != 0) {
      bits |= kWritable;
    }
    if ((events[i].events & EPOLLRDHUP) != 0) {
      bits |= kPeerClosed;
    }
    if (bits != 0) {
      ++dispatched;
      w.on_io(bits);
    }
  }
  dispatching_ = false;
  graveyard_.clear();
  return dispatched;
}

}  // namespace opx::net
