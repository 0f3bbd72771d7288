#include "tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "trace.h"

namespace perfbench {
namespace {

using opx::NodeId;
using opx::kNoNode;
namespace net = opx::net;

constexpr int kConnections = 4;
constexpr uint32_t kValueBytes = 64;
constexpr uint64_t kTrimWatermark = 4096;
constexpr int kSetups = 3;            // cluster bring-ups per run; setup_s is their median
// Ops due in the first two seconds of the schedule are not counted: they warm
// the servers' buffers and let host activity left by an earlier process (its
// freed memory being handed back to the hypervisor) die down.
constexpr int64_t kWarmupNs = 2'000'000'000;
constexpr int64_t kDrainNs = 2'000'000'000;
// The generator wakes at most this often; ops due in between leave together.
constexpr int64_t kMinWakeGapNs = 50'000;
// Validity limit: a run whose own sends left later than this (p99) measured
// the generator, not the servers, and is refused.
constexpr double kMaxLagP99Ms = 5.0;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

struct GenConfig {
  double rate = 1000;
  double read_fraction = 0;
  uint64_t seed = 1;
  int64_t start_ns = 0;         // first op may be due from here
  int64_t window_start_ns = 0;  // ops due in [window_start, window_end) count
  int64_t window_end_ns = 0;    // the schedule ends here
  int64_t drain_ns = kDrainNs;  // wait this long past the end for replies
};

// One generator thread, kConnections connections, a seeded Poisson schedule.
// Every op is timed from the instant it was due, not from when it left, so a
// stall anywhere (generator, kernel, server) is charged to every op due
// during it. A connection told of another leader (redirect, bounced read)
// reconnects there; what it had outstanding is lost and counts as failed.
class OpenLoopGen {
 public:
  OpenLoopGen(std::map<NodeId, net::Endpoint> servers, NodeId leader, GenConfig cfg)
      : per_second(static_cast<size_t>(
            (cfg.window_end_ns - cfg.window_start_ns + 999'999'999) / 1'000'000'000)),
        servers_(std::move(servers)),
        leader_(leader),
        cfg_(cfg),
        rng_(cfg.seed) {}

  // Median over the window's seconds of each second's p-th percentile (ms).
  double WindowedQuantileMs(double p) const {
    std::vector<double> per;
    for (const LatencyHistogram& h : per_second) {
      if (h.count() > 0) {
        per.push_back(h.Quantile(p) / 1e6);
      }
    }
    return PercentileOr0(std::move(per), 50);
  }

  ~OpenLoopGen() {
    for (Conn& c : conns_) {
      Close(c);
    }
    if (timer_fd_ >= 0) {
      loop_.Remove(timer_fd_);
      close(timer_fd_);
    }
  }

  OpenLoopGen(const OpenLoopGen&) = delete;
  OpenLoopGen& operator=(const OpenLoopGen&) = delete;

  // Runs the schedule plus the drain. `on_tick` fires as the window opens,
  // at every whole second after that, and as the window closes.
  bool Run(const std::function<void()>& on_tick);

  // Outcome, over ops due inside the window.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;        // refused, bounced, lost with a connection, or never acked
  uint64_t completed_all = 0;  // every op acked on its owner, warmup included
  uint64_t unknown_acks = 0;  // acks naming an op this generator never issued
  uint64_t duplicate_acks = 0;
  uint64_t late_decides = 0;  // acks for ops already failed by a reconnect
  uint64_t ryw_violations = 0;
  uint64_t reconnects = 0;
  uint64_t bytes_in = 0;  // everything the servers sent to the generator
  int64_t window_wall_ns = 0;
  LatencyHistogram lag;     // issue time - due time, per op in window
  LatencyHistogram writes;  // append -> decided push, from due time
  LatencyHistogram reads;   // lease read -> served reply, from due time
  // Both kinds, one histogram per second of the window (by due time): the
  // reported percentiles are medians over these windows, so one disk or
  // scheduler hiccup moves one window, not the run's figure.
  std::vector<LatencyHistogram> per_second;
  // Self-test hook: every completed op's (due, latency), when non-null.
  std::vector<StubSample>* samples = nullptr;

 private:
  struct Op {
    int64_t due_ns = 0;
    bool is_read = false;
    bool done = false;
  };
  struct Conn {
    int fd = -1;
    uint32_t index = 0;
    NodeId node = kNoNode;  // server this connection talks to
    bool dead = false;
    uint64_t session = 0;   // bumped on every drop; stops a stale read batch
    uint64_t base_seq = 0;  // ops below this are done and forgotten
    std::deque<Op> ops;     // ops[seq - base_seq]
    // Appends failed by a drop. They may still be decided and pushed to the
    // new connection; such an ack is a late decide, not a duplicate.
    std::unordered_set<uint64_t> abandoned;
    uint64_t read_watermark = 0;
    net::FrameQueue sendq;
    net::FrameReader reader;
  };

  bool Connect(Conn& c, NodeId node);
  void Close(Conn& c);
  void OnIo(Conn& c, uint32_t bits);
  void Flush(Conn& c);
  void Issue(int64_t due_ns, int64_t now_ns);
  void HandleFrame(Conn& c, const uint8_t* data, size_t len);
  void OnAck(Conn& at, uint64_t id);
  void OnReadReply(Conn& c, const uint8_t* data, size_t len);
  Op* Find(Conn& owner, uint64_t seq);
  void Complete(Conn& owner, uint64_t seq, bool ok, int64_t now_ns);
  // Fails everything outstanding on `c`, closes it, and reconnects it to
  // `to` (kNoNode: leaves it dead, so every later op routed to it fails).
  void Drop(Conn& c, NodeId to);
  bool InWindow(int64_t due_ns) const {
    return due_ns >= cfg_.window_start_ns && due_ns < cfg_.window_end_ns;
  }
  void ArmTimer(int64_t at_ns);

  std::map<NodeId, net::Endpoint> servers_;
  NodeId leader_;
  GenConfig cfg_;
  opx::Rng rng_;
  net::EpollLoop loop_;
  net::FramePool pool_;
  std::array<Conn, kConnections> conns_;
  int timer_fd_ = -1;
  int64_t outstanding_ = 0;  // ops issued, not yet done
  bool io_failed_ = false;
};

bool OpenLoopGen::Connect(Conn& c, NodeId node) {
  auto ep = servers_.find(node);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ep == servers_.end() || fd < 0) {
    if (fd >= 0) {
      close(fd);
    }
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->second.port);
  inet_pton(AF_INET, ep->second.host.c_str(), &addr.sin_addr);
  // Blocking connect: before the schedule starts, or on a leader change,
  // where ops are being lost anyway; on loopback it takes microseconds.
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  c.fd = fd;
  c.node = node;
  Conn* self = &c;
  if (!loop_.Add(fd, [this, self](uint32_t bits) { OnIo(*self, bits); })) {
    close(fd);
    c.fd = -1;
    return false;
  }
  net::FrameRef hello = pool_.Acquire();
  PutU32(&hello->bytes, 1);
  hello->bytes.push_back(net::kHelloClient);
  c.sendq.Push(std::move(hello));
  Flush(c);
  return true;
}

void OpenLoopGen::Close(Conn& c) {
  if (c.fd >= 0) {
    loop_.Remove(c.fd);
    close(c.fd);
    c.fd = -1;
  }
  c.sendq.Clear(&pool_);
}

void OpenLoopGen::Flush(Conn& c) {
  constexpr size_t kMaxIov = 64;
  struct iovec iov[kMaxIov];
  while (c.fd >= 0 && !c.sendq.empty()) {
    const size_t n = c.sendq.BuildIovecs(iov, kMaxIov);
    const ssize_t written = writev(c.fd, iov, static_cast<int>(n));
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;  // resume on the next writable edge
      }
      Drop(c, kNoNode);
      return;
    }
    c.sendq.Consume(static_cast<size_t>(written), &pool_);
  }
}

void OpenLoopGen::Issue(int64_t due_ns, int64_t now_ns) {
  Conn& c = conns_[rng_.NextBounded(kConnections)];
  const bool is_read = cfg_.read_fraction > 0 && rng_.NextBool(cfg_.read_fraction);
  const bool counted = InWindow(due_ns);
  if (counted) {
    ++attempted;
    lag.Add(now_ns - due_ns);
  }
  if (c.dead) {
    if (counted) {
      ++failed;
    }
    return;
  }
  const uint64_t seq = c.base_seq + c.ops.size();
  const uint64_t id = (static_cast<uint64_t>(c.index + 1) << 32) | seq;
  c.ops.push_back(Op{due_ns, is_read, false});
  ++outstanding_;
  net::FrameRef f = pool_.Acquire();
  if (is_read) {
    PutU32(&f->bytes, 1 + 8 + 8);
    f->bytes.push_back(0x06);
    PutU64(&f->bytes, id);
    PutU64(&f->bytes, c.read_watermark);
  } else {
    PutU32(&f->bytes, 1 + 8 + 4);
    f->bytes.push_back(0x01);
    PutU64(&f->bytes, id);
    PutU32(&f->bytes, kValueBytes);
  }
  c.sendq.Push(std::move(f));
}

OpenLoopGen::Op* OpenLoopGen::Find(Conn& owner, uint64_t seq) {
  if (seq < owner.base_seq || seq >= owner.base_seq + owner.ops.size()) {
    return nullptr;
  }
  return &owner.ops[seq - owner.base_seq];
}

void OpenLoopGen::Complete(Conn& owner, uint64_t seq, bool ok, int64_t now_ns) {
  Op& op = owner.ops[seq - owner.base_seq];
  op.done = true;
  --outstanding_;
  if (ok) {
    ++completed_all;
  }
  if (InWindow(op.due_ns)) {
    if (ok) {
      ++completed;
      (op.is_read ? reads : writes).Add(now_ns - op.due_ns);
      per_second[static_cast<size_t>((op.due_ns - cfg_.window_start_ns) / 1'000'000'000)].Add(
          now_ns - op.due_ns);
      if (samples != nullptr) {
        samples->push_back({static_cast<double>(op.due_ns - cfg_.start_ns) / 1e6,
                            static_cast<double>(now_ns - op.due_ns) / 1e6});
      }
    } else {
      ++failed;
    }
  }
  while (!owner.ops.empty() && owner.ops.front().done) {
    owner.ops.pop_front();
    ++owner.base_seq;
  }
}

void OpenLoopGen::OnAck(Conn& at, uint64_t id) {
  const uint64_t owner_index = (id >> 32) - 1;
  const uint64_t seq = id & 0xFFFFFFFFu;
  if ((id >> 32) == 0 || owner_index >= conns_.size()) {
    ++unknown_acks;
    return;
  }
  Conn& owner = conns_[owner_index];
  if (seq >= owner.base_seq + owner.ops.size()) {
    ++unknown_acks;  // never issued
    return;
  }
  if (&owner != &at) {
    return;  // decided batches are pushed to every client: a sighting
  }
  Op* op = Find(owner, seq);
  if (op == nullptr || op->done) {
    if (owner.abandoned.erase(seq) > 0) {
      ++late_decides;
    } else {
      ++duplicate_acks;
    }
    return;
  }
  if (op->is_read) {
    ++unknown_acks;  // a read id can never be decided as an append
    return;
  }
  Complete(owner, seq, true, NowNs());
}

void OpenLoopGen::OnReadReply(Conn& c, const uint8_t* data, size_t len) {
  if (len < 1 + 8 + 8 + 1 + 4) {
    ++unknown_acks;
    return;
  }
  const uint64_t id = GetU64(data + 1);
  const uint64_t decided = GetU64(data + 9);
  const bool served = data[17] != 0;
  if ((id >> 32) != c.index + 1) {
    ++unknown_acks;  // read replies go only to the asking connection
    return;
  }
  const uint64_t seq = id & 0xFFFFFFFFu;
  Op* op = Find(c, seq);
  if (seq >= c.base_seq + c.ops.size() || (op != nullptr && !op->is_read)) {
    ++unknown_acks;
    return;
  }
  if (op == nullptr || op->done) {
    ++duplicate_acks;
    return;
  }
  if (served) {
    if (decided < c.read_watermark) {
      ++ryw_violations;
    }
    c.read_watermark = std::max(c.read_watermark, decided);
  }
  Complete(c, seq, served, NowNs());
  const NodeId hint = static_cast<NodeId>(GetU32(data + 18));
  if (!served && hint != kNoNode && hint != c.node) {
    Drop(c, hint);
  }
}

void OpenLoopGen::HandleFrame(Conn& c, const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  switch (data[0]) {
    case 0x02: {  // decided batch: [u32 n][u64 id x n]
      if (len < 5) {
        ++unknown_acks;
        return;
      }
      const uint32_t count = GetU32(data + 1);
      if (5 + 8 * static_cast<size_t>(count) != len) {
        ++unknown_acks;
        return;
      }
      for (uint32_t i = 0; i < count; ++i) {
        OnAck(c, GetU64(data + 5 + 8 * static_cast<size_t>(i)));
      }
      break;
    }
    case 0x07:
      OnReadReply(c, data, len);
      break;
    case 0x05: {  // redirect: an append was refused, this server is not the leader
      // The frame does not say which append; appends accepted before the
      // leader change may still be decided, so none is failed here.
      // Reconnecting fails everything outstanding instead.
      const NodeId hint = len >= 5 ? static_cast<NodeId>(GetU32(data + 1)) : kNoNode;
      if (hint != kNoNode && hint != c.node) {
        Drop(c, hint);
      }
      break;
    }
    default:
      break;
  }
}

void OpenLoopGen::Drop(Conn& c, NodeId to) {
  std::vector<uint64_t> open;
  for (uint64_t seq = c.base_seq; seq < c.base_seq + c.ops.size(); ++seq) {
    if (!c.ops[seq - c.base_seq].done) {
      open.push_back(seq);
    }
  }
  const int64_t now = NowNs();
  for (uint64_t seq : open) {
    if (!c.ops[seq - c.base_seq].is_read) {
      c.abandoned.insert(seq);
    }
    Complete(c, seq, false, now);
  }
  Close(c);
  c.reader.Clear();
  ++c.session;
  if (to == kNoNode || !Connect(c, to)) {
    c.dead = true;
    return;
  }
  ++reconnects;
}

void OpenLoopGen::OnIo(Conn& c, uint32_t bits) {
  if (c.fd < 0) {
    return;
  }
  if ((bits & net::EpollLoop::kReadable) != 0) {
    for (;;) {
      uint8_t chunk[65536];
      const ssize_t n = read(c.fd, chunk, sizeof(chunk));
      if (n > 0) {
        bytes_in += static_cast<uint64_t>(n);
        const uint64_t session = c.session;
        const bool ok = c.reader.Feed(chunk, static_cast<size_t>(n),
                                      [this, &c, session](const uint8_t* d, size_t l) {
                                        HandleFrame(c, d, l);
                                        return c.session == session;  // stop after a drop
                                      });
        if (c.session != session) {
          return;  // the old socket is gone; the new one gets its own edges
        }
        if (!ok) {
          ++unknown_acks;  // malformed frame
          Drop(c, kNoNode);
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      Drop(c, kNoNode);  // EOF or hard error
      return;
    }
  }
  if ((bits & net::EpollLoop::kError) != 0) {
    Drop(c, kNoNode);
    return;
  }
  if ((bits & net::EpollLoop::kWritable) != 0) {
    Flush(c);
  }
}

void OpenLoopGen::ArmTimer(int64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = at_ns / 1'000'000'000;
  spec.it_value.tv_nsec = at_ns % 1'000'000'000;
  timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

bool OpenLoopGen::Run(const std::function<void()>& on_tick) {
  // steady_clock is CLOCK_MONOTONIC on Linux, so schedule times arm the
  // timerfd directly.
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0 || !loop_.Add(timer_fd_, [this](uint32_t) {
        uint64_t expirations = 0;
        while (read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
        }
      })) {
    return false;
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].index = static_cast<uint32_t>(i);
    if (!Connect(conns_[i], leader_)) {
      return false;
    }
  }
  // Poisson arrivals: exponential gaps from the seeded generator.
  auto next_gap = [this] {
    return static_cast<int64_t>(-std::log(1.0 - rng_.NextDouble()) / cfg_.rate * 1e9);
  };
  int64_t next_due = cfg_.start_ns + next_gap();
  int64_t next_tick = cfg_.window_start_ns;
  bool window_closed = false;
  int64_t opened_at = 0;
  const int64_t drain_until = cfg_.window_end_ns + cfg_.drain_ns;
  for (;;) {
    int64_t now = NowNs();
    if (!window_closed && now >= next_tick) {
      if (next_tick == cfg_.window_start_ns) {
        opened_at = now;
      }
      on_tick();
      if (next_tick == cfg_.window_end_ns) {
        window_closed = true;
        window_wall_ns = now - opened_at;
      }
      next_tick = std::min(next_tick + 1'000'000'000, cfg_.window_end_ns);
    }
    while (next_due <= now && next_due < cfg_.window_end_ns) {
      Issue(next_due, now);
      next_due += next_gap();
    }
    for (Conn& c : conns_) {
      if (!c.sendq.empty()) {
        Flush(c);
      }
    }
    if (window_closed && (outstanding_ == 0 || now >= drain_until)) {
      break;
    }
    int64_t wake = window_closed ? INT64_MAX : next_tick;
    if (next_due < cfg_.window_end_ns) {
      wake = std::min(wake, std::max(next_due, now + kMinWakeGapNs));
    }
    if (wake != INT64_MAX) {
      ArmTimer(wake);
    }
    if (loop_.Wait(10) < 0) {
      io_failed_ = true;
      break;
    }
  }
  // Whatever is still outstanding after the drain never completed.
  for (Conn& c : conns_) {
    while (!c.ops.empty()) {
      if (!c.ops.front().done) {
        Complete(c, c.base_seq, false, NowNs());
      } else {
        c.ops.pop_front();
        ++c.base_seq;
      }
    }
  }
  return !io_failed_;
}

// ---------------------------------------------------------------------------
// In-process cluster
// ---------------------------------------------------------------------------

struct ServerSlot {
  std::unique_ptr<opx::obs::ObsSink> obs;  // traced runs only
  std::unique_ptr<net::OmniTcpServer> server;
  ThreadTrace trace;
  std::atomic<pid_t> tid{0};
  std::thread thread;
};

class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Constructs and starts three servers (node 1 holds BLE priority, so it is
  // the expected leader) and one loop thread each. `wal_prefix` empty means
  // volatile storage; otherwise node i journals under <wal_prefix>/node<i>,
  // which this call creates.
  bool Start(const std::string& wal_prefix, bool traced);
  void Stop();

  std::map<NodeId, net::Endpoint> endpoints;
  std::vector<std::unique_ptr<ServerSlot>> slots;  // slots[i] is node i+1

 private:
  std::atomic<bool> stop_{false};
};

bool Cluster::Start(const std::string& wal_prefix, bool traced) {
  const uint16_t salt = static_cast<uint16_t>(getpid() % 17000);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const uint16_t base = static_cast<uint16_t>(21000 + (salt + attempt * 131) % 17000);
    std::map<NodeId, net::Endpoint> eps;
    for (NodeId id = 1; id <= 3; ++id) {
      eps[id] = {"127.0.0.1", static_cast<uint16_t>(base + id)};
    }
    std::vector<std::unique_ptr<ServerSlot>> fresh;
    bool ok = true;
    for (NodeId id = 1; id <= 3 && ok; ++id) {
      auto slot = std::make_unique<ServerSlot>();
      net::ServerOptions opt;
      opt.id = id;
      opt.listen_port = eps[id].port;
      opt.peers = eps;
      opt.peers.erase(id);
      opt.trim_watermark = kTrimWatermark;
      opt.ble_priority = id == 1 ? 1 : 0;
      if (!wal_prefix.empty()) {
        // A fresh tree per attempt: the server must create its journal, never
        // recover one a failed attempt left behind.
        opt.wal_dir = wal_prefix + "/a" + std::to_string(attempt) + "/node" + std::to_string(id);
        std::error_code ec;
        std::filesystem::create_directories(opt.wal_dir, ec);
        if (ec) {
          return false;
        }
      }
      if (traced) {
        slot->obs = std::make_unique<opx::obs::ObsSink>(1u << 10);
        opt.obs = slot->obs.get();
      }
      slot->server = std::make_unique<net::OmniTcpServer>(opt);
      ok = slot->server->Start();
      fresh.push_back(std::move(slot));
    }
    if (!ok) {
      continue;  // port collision; re-salt and retry
    }
    endpoints = eps;
    slots = std::move(fresh);
    stop_.store(false);
    for (auto& slot : slots) {
      ServerSlot* s = slot.get();
      s->thread = std::thread([this, s, traced] {
        s->tid.store(CurrentTid());
        if (traced) {
          SetThreadTrace(&s->trace);
        }
        while (!stop_.load(std::memory_order_relaxed)) {
          if (traced) {
            s->trace.BeginParent(SpanKind::kStep, NowNs());
            s->server->StepOnce(20);
            s->trace.EndParent(NowNs());
          } else {
            s->server->StepOnce(20);
          }
        }
        SetThreadTrace(nullptr);
      });
    }
    for (auto& slot : slots) {
      while (slot->tid.load() == 0) {
        std::this_thread::yield();
      }
    }
    return true;
  }
  return false;
}

void Cluster::Stop() {
  stop_.store(true);
  for (auto& slot : slots) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
}

// Leader elected and one append decided end to end; returns the leader.
NodeId AwaitFirstDecide(const std::map<NodeId, net::Endpoint>& endpoints) {
  net::OmniClient probe(endpoints);
  if (!probe.Connect(opx::Seconds(10))) {
    return kNoNode;
  }
  const int64_t deadline = NowNs() + 15'000'000'000;
  while (NowNs() < deadline) {
    net::OmniClient::Status status;
    if (probe.GetStatus(&status, opx::Seconds(1)) && status.leader != kNoNode &&
        probe.AppendAndWait((0xB00FULL << 48) | 1, 8, opx::Seconds(2))) {
      return status.leader;
    }
    usleep(1000);
  }
  return kNoNode;
}

struct Snapshot {
  std::vector<ThreadAcct> servers;
  ThreadAcct gen;
  HostCpu host;
};

Snapshot TakeSnapshot(const Cluster& cluster, pid_t gen_tid) {
  Snapshot s;
  for (const auto& slot : cluster.slots) {
    ThreadAcct a;
    ReadThreadAcct(slot->tid.load(), &a);
    s.servers.push_back(a);
  }
  ReadThreadAcct(gen_tid, &s.gen);
  s.host = ReadHostCpu();
  return s;
}

void AddPerLayer(const Cluster& cluster, NodeId leader,
                 const OpenLoopGen& gen, const Snapshot& d, double window_s,
                 RunOutcome* out) {
  MetricList& m = out->layers;
  const double ops = static_cast<double>(gen.completed);
  const double ops_all = static_cast<double>(gen.completed_all);
  const ServerSlot& lead = *cluster.slots[static_cast<size_t>(leader - 1)];
  const ThreadAcct& la = d.servers[static_cast<size_t>(leader - 1)];
  const double window_ns = window_s * 1e9;

  uint64_t net_calls = 0;
  uint64_t syncs = 0;
  uint64_t wal_bytes = 0;
  std::vector<double> sync_ns;
  double user_s = 0;
  double sys_s = 0;
  double runq_ns = 0;
  uint64_t bytes_out = 0;
  double writev_frames = 0;
  double writev_calls = 0;
  double follower_busy = 0;
  for (size_t i = 0; i < cluster.slots.size(); ++i) {
    const ThreadTrace& t = cluster.slots[i]->trace;
    net_calls += t.totals(SpanKind::kRead).count + t.totals(SpanKind::kWritev).count +
                 t.totals(SpanKind::kEpollWait).count;
    syncs += t.totals(SpanKind::kFdatasync).count;
    wal_bytes += t.totals(SpanKind::kWrite).bytes;
    const auto& sd = t.durations(SpanKind::kFdatasync);
    sync_ns.insert(sync_ns.end(), sd.begin(), sd.end());
    user_s += d.servers[i].user_s;
    sys_s += d.servers[i].sys_s;
    runq_ns += static_cast<double>(d.servers[i].runq_ns);
    if (static_cast<NodeId>(i + 1) != leader) {
      follower_busy +=
          0.5 * (1.0 - Ratio(static_cast<double>(t.totals(SpanKind::kEpollWait).wall_ns),
                             window_ns));
    }
    const opx::obs::Metrics& om = cluster.slots[i]->obs->metrics();
    if (const auto* c = om.FindCounter("net.bytes_out")) {
      bytes_out += c->value();
    }
    if (const auto* h = om.FindHistogram("net.writev_batch_frames")) {
      writev_frames += h->sum();
      writev_calls += static_cast<double>(h->count());
    }
  }
  const ThreadTrace& lt = lead.trace;
  const double epoll_ns = static_cast<double>(lt.totals(SpanKind::kEpollWait).wall_ns);
  const double sync_wall_ns = static_cast<double>(lt.totals(SpanKind::kFdatasync).wall_ns +
                                                  lt.totals(SpanKind::kFsync).wall_ns);
  const double other_ns = static_cast<double>(lt.totals(SpanKind::kRead).wall_ns +
                                              lt.totals(SpanKind::kWritev).wall_ns +
                                              lt.totals(SpanKind::kWrite).wall_ns);
  const std::vector<uint32_t>& step_ns = lt.durations(SpanKind::kStep);

  m.push_back({"net.syscalls_per_op", Ratio(static_cast<double>(net_calls), ops), "count"});
  m.push_back({"net.sys_cpu_share", Ratio(sys_s, user_s + sys_s), "ratio"});
  m.push_back({"net.writev_frames_per_call", Ratio(writev_frames, writev_calls), "count"});
  m.push_back({"net.client_push_bytes_per_op",
               Ratio(static_cast<double>(gen.bytes_in), ops_all), "bytes"});
  m.push_back({"net.peer_bytes_per_op",
               Ratio(static_cast<double>(bytes_out) - static_cast<double>(gen.bytes_in), ops_all),
               "bytes"});
  m.push_back({"net.epoll_wait_share", Ratio(epoll_ns, window_ns), "ratio"});
  m.push_back({"wal.syncs_per_kop", Ratio(1000.0 * static_cast<double>(syncs), ops), "count"});
  m.push_back({"wal.bytes_per_op", Ratio(static_cast<double>(wal_bytes), ops), "bytes"});
  m.push_back({"wal.sync_p50_us", PercentileOr0(sync_ns, 50) / 1e3, "us"});
  m.push_back({"wal.sync_p99_us", PercentileOr0(sync_ns, 99) / 1e3, "us"});
  m.push_back({"wal.sync_share", Ratio(sync_wall_ns, window_ns), "ratio"});
  m.push_back({"srv.ops_per_step",
               Ratio(ops, static_cast<double>(lt.totals(SpanKind::kStep).count)), "count"});
  m.push_back({"srv.step_p99_us", PercentileOr0({step_ns.begin(), step_ns.end()}, 99) / 1e3, "us"});
  m.push_back({"paxos.user_us_per_op", Ratio(la.user_s * 1e6, ops), "us"});
  m.push_back({"srv.leader_busy_share", 1.0 - Ratio(epoll_ns, window_ns), "ratio"});
  m.push_back({"srv.follower_busy_share", follower_busy, "ratio"});
  m.push_back({"gen.lag_p99_ms", gen.lag.Quantile(99) / 1e6, "ms"});
  m.push_back({"gen.cpu_share", Ratio(static_cast<double>(d.gen.cpu_ns), window_ns), "ratio"});
  m.push_back({"srv.runqueue_wait_share", Ratio(runq_ns, 3.0 * window_ns), "ratio"});
  // Leader reconciliation: wall = epoll_wait + fdatasync/fsync + other
  // interposed syscalls + user CPU + the rest. The rest (run-queue waits and
  // kernel time outside the interposed calls, e.g. page faults, less the
  // error of tick-sampled user time) is printed as its own number rather
  // than spread over the stages.
  m.push_back({"leader.other_syscall_share", Ratio(other_ns, window_ns), "ratio"});
  m.push_back({"leader.user_share", Ratio(la.user_s * 1e9, window_ns), "ratio"});
  const double accounted = epoll_ns + sync_wall_ns + other_ns + la.user_s * 1e9;
  m.push_back({"leader.unattributed_share", 1.0 - Ratio(accounted, window_ns), "ratio"});
}

}  // namespace

RunOutcome RunTcp(const TcpWorkload& w, const RunSpec& spec) {
  RunOutcome out;
  std::vector<double> setups;
  auto cluster = std::make_unique<Cluster>();
  NodeId leader = kNoNode;
  std::string prefix;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      cluster->Stop();
      cluster = std::make_unique<Cluster>();
      if (!prefix.empty()) {
        std::filesystem::remove_all(prefix);
      }
    }
    prefix = w.wal ? spec.wal_root + "/setup" + std::to_string(k) : "";
    const int64_t t0 = NowNs();
    if (!cluster->Start(prefix, spec.traced)) {
      out.errors.push_back("could not start a 3-node loopback cluster");
      return out;
    }
    leader = AwaitFirstDecide(cluster->endpoints);
    if (leader == kNoNode) {
      out.errors.push_back("no leader decided an append within the deadline");
      return out;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  GenConfig gc;
  gc.rate = w.rate;
  gc.read_fraction = w.read_fraction;
  gc.seed = spec.seed;
  gc.start_ns = NowNs() + 1'000'000;
  gc.window_start_ns = gc.start_ns + kWarmupNs;
  gc.window_end_ns = gc.window_start_ns + static_cast<int64_t>(spec.seconds * 1e9);
  for (auto& slot : cluster->slots) {
    slot->trace.SetWindow(gc.window_start_ns, gc.window_end_ns);
  }
  OpenLoopGen gen(cluster->endpoints, leader, gc);
  const pid_t gen_tid = CurrentTid();
  // Kernel accounting at the window's edges and at every second in between,
  // with the ops completed so far.
  std::vector<Snapshot> ticks;
  std::vector<uint64_t> completed_at_tick;
  const bool ran = gen.Run([&] {
    ticks.push_back(TakeSnapshot(*cluster, gen_tid));
    completed_at_tick.push_back(gen.completed_all);
  });
  cluster->Stop();
  if (!ran || ticks.size() < 2) {
    out.errors.push_back("generator event loop failed");
    return out;
  }

  Snapshot d;
  for (size_t i = 0; i < ticks.front().servers.size(); ++i) {
    d.servers.push_back(ticks.back().servers[i] - ticks.front().servers[i]);
  }
  d.gen = ticks.back().gen - ticks.front().gen;
  const double window_s = static_cast<double>(gen.window_wall_ns) / 1e9;
  // CPU per op: median over the window's seconds of the three server
  // threads' CPU over the ops completed in that second.
  std::vector<double> cpu_per_op;
  for (size_t t = 1; t < ticks.size(); ++t) {
    int64_t cpu = 0;
    for (size_t i = 0; i < ticks[t].servers.size(); ++i) {
      cpu += ticks[t].servers[i].cpu_ns - ticks[t - 1].servers[i].cpu_ns;
    }
    const uint64_t done = completed_at_tick[t] - completed_at_tick[t - 1];
    if (done > 0) {
      cpu_per_op.push_back(static_cast<double>(cpu) / 1e3 / static_cast<double>(done));
    }
  }
  const double lag_p99_ms = gen.lag.Quantile(99) / 1e6;
  const double ops = static_cast<double>(gen.completed);

  out.attempted = gen.attempted;
  out.failed = gen.failed;
  out.e2e.push_back({"setup_s", PercentileOr0(setups, 50), "s"});
  out.e2e.push_back({"p50_ms", gen.WindowedQuantileMs(50), "ms"});
  out.e2e.push_back({"p90_ms", gen.WindowedQuantileMs(90), "ms"});
  out.e2e.push_back({"goodput_ops_s", Ratio(ops, window_s), "ops/s"});
  out.e2e.push_back({"cpu_us_per_op", PercentileOr0(cpu_per_op, 50), "us"});
  out.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  out.extra.push_back({"p99_ms", gen.WindowedQuantileMs(99), "ms"});
  out.extra.push_back({"reconnects", static_cast<double>(gen.reconnects), "count"});
  out.extra.push_back({"late_decides", static_cast<double>(gen.late_decides), "count"});
  out.extra.push_back({"offered_ops_s", w.rate, "ops/s"});
  out.extra.push_back({"write_p50_ms", gen.writes.Quantile(50) / 1e6, "ms"});
  out.extra.push_back({"write_p99_ms", gen.writes.Quantile(99) / 1e6, "ms"});
  out.extra.push_back({"read_p50_ms", gen.reads.Quantile(50) / 1e6, "ms"});
  out.extra.push_back({"read_p99_ms", gen.reads.Quantile(99) / 1e6, "ms"});
  out.extra.push_back({"failed_ops_frac",
                       Ratio(static_cast<double>(gen.failed), static_cast<double>(gen.attempted)),
                       "ratio"});
  out.extra.push_back({"gen.lag_p99_ms", lag_p99_ms, "ms"});
  out.extra.push_back({"srv.runqueue_wait_share",
                       Ratio(static_cast<double>(d.servers[0].runq_ns + d.servers[1].runq_ns +
                                                 d.servers[2].runq_ns),
                             3.0 * window_s * 1e9),
                       "ratio"});
  out.extra.push_back(
      {"host.steal_share", ticks.back().host.steal_share_since(ticks.front().host), "ratio"});

  if (spec.traced) {
    AddPerLayer(*cluster, leader, gen, d, window_s, &out);
    if (!spec.spans_path.empty()) {
      if (std::FILE* f = std::fopen(spec.spans_path.c_str(), "w")) {
        for (size_t i = 0; i < cluster->slots.size(); ++i) {
          cluster->slots[i]->trace.WriteJsonl(f, "node" + std::to_string(i + 1));
        }
        std::fclose(f);
      }
    }
  }

  if (gen.unknown_acks > 0) {
    out.errors.push_back(std::to_string(gen.unknown_acks) +
                         " acks named an op this generator never issued");
  }
  if (gen.duplicate_acks > 0) {
    out.errors.push_back(std::to_string(gen.duplicate_acks) +
                         " ops were acknowledged twice on their own connection");
  }
  if (gen.ryw_violations > 0) {
    out.errors.push_back(std::to_string(gen.ryw_violations) +
                         " lease reads were served below their read watermark");
  }
  if (lag_p99_ms > kMaxLagP99Ms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "invalid run: generator p99 send lag %.3f ms exceeds the %.1f ms limit",
                  lag_p99_ms, kMaxLagP99Ms);
    out.errors.push_back(buf);
  }
  if (gen.completed == 0) {
    out.errors.push_back("no op completed inside the measurement window");
  }
  cluster.reset();
  if (!prefix.empty()) {
    std::filesystem::remove_all(prefix);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Self-test: target and generator stalls
// ---------------------------------------------------------------------------

namespace {
// The generator-stall signal handler notes when it began and sleeps
// (clock_gettime, a lock-free atomic store and nanosleep are all
// async-signal-safe).
timespec g_gen_stall{};
std::atomic<int64_t> g_gen_stall_began{0};
void GenStallHandler(int) {
  g_gen_stall_began.store(NowNs());
  nanosleep(&g_gen_stall, nullptr);
}
}  // namespace

bool RunStallTest(double rate, double seconds, double target_stall_at_ms,
                  double gen_stall_at_ms, double stall_ms, StallOutcome* out) {
  const int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof(addr);
  if (lfd < 0 || bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(lfd, 16) != 0 || getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    if (lfd >= 0) {
      close(lfd);
    }
    return false;
  }
  GenConfig gc;
  gc.rate = rate;
  gc.seed = 7;
  gc.start_ns = NowNs() + 50'000'000;
  gc.window_start_ns = gc.start_ns;
  gc.window_end_ns = gc.start_ns + static_cast<int64_t>(seconds * 1e9);
  gc.drain_ns = 1'000'000'000;
  const int64_t stall_start = gc.start_ns + static_cast<int64_t>(target_stall_at_ms * 1e6);
  const int64_t gen_stall_start = gc.start_ns + static_cast<int64_t>(gen_stall_at_ms * 1e6);
  const int64_t stall_ns = static_cast<int64_t>(stall_ms * 1e6);
  g_gen_stall = {static_cast<time_t>(stall_ns / 1'000'000'000),
                 static_cast<long>(stall_ns % 1'000'000'000)};
  struct sigaction stall_action {};
  struct sigaction old_action {};
  stall_action.sa_handler = GenStallHandler;
  sigemptyset(&stall_action.sa_mask);
  sigaction(SIGUSR1, &stall_action, &old_action);
  g_gen_stall_began.store(0);

  // Acknowledges each append at once, on the connection it came from, except
  // for one deliberate stall.
  std::atomic<bool> stop{false};
  int64_t target_stall_began = 0;  // written by the stub thread, read after join
  std::thread stub([&] {
    std::vector<pollfd> fds{{lfd, POLLIN, 0}};
    std::vector<net::FrameReader> readers(1);
    while (!stop.load()) {
      if (target_stall_began == 0 && NowNs() >= stall_start) {
        target_stall_began = NowNs();
        usleep(static_cast<useconds_t>(stall_ms * 1000));
      }
      if (poll(fds.data(), fds.size(), 1) <= 0) {
        continue;
      }
      if ((fds[0].revents & POLLIN) != 0) {
        const int cfd = accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd >= 0) {
          fds.push_back({cfd, POLLIN, 0});
          readers.emplace_back();
        }
      }
      for (size_t i = 1; i < fds.size(); ++i) {
        if ((fds[i].revents & POLLIN) == 0) {
          continue;
        }
        uint8_t chunk[65536];
        const ssize_t n = read(fds[i].fd, chunk, sizeof(chunk));
        if (n <= 0) {
          continue;
        }
        std::vector<uint8_t> reply;
        readers[i].Feed(chunk, static_cast<size_t>(n), [&](const uint8_t* d, size_t l) {
          if (l == 1 + 8 + 4 && d[0] == 0x01) {
            PutU32(&reply, 1 + 4 + 8);
            reply.push_back(0x02);
            PutU32(&reply, 1);
            PutU64(&reply, GetU64(d + 1));
          }
          return true;
        });
        for (size_t sent = 0; sent < reply.size();) {
          const ssize_t k = write(fds[i].fd, reply.data() + sent, reply.size() - sent);
          if (k <= 0) {
            break;
          }
          sent += static_cast<size_t>(k);
        }
      }
    }
    for (const pollfd& p : fds) {
      close(p.fd);
    }
  });
  // The generator runs on this thread; a helper stalls it once.
  const pthread_t gen_thread = pthread_self();
  std::thread staller([&] {
    while (!stop.load() && NowNs() < gen_stall_start) {
      usleep(200);
    }
    if (!stop.load()) {
      pthread_kill(gen_thread, SIGUSR1);
    }
  });
  bool ok = false;
  {
    OpenLoopGen gen({{1, net::Endpoint{"127.0.0.1", ntohs(addr.sin_port)}}}, 1, gc);
    gen.samples = &out->samples;
    ok = gen.Run([] {}) && gen.failed == 0 && gen.unknown_acks == 0;
  }
  stop.store(true);
  staller.join();
  stub.join();
  sigaction(SIGUSR1, &old_action, nullptr);
  out->target_stall_began_ms = static_cast<double>(target_stall_began - gc.start_ns) / 1e6;
  out->gen_stall_began_ms = static_cast<double>(g_gen_stall_began.load() - gc.start_ns) / 1e6;
  return ok && target_stall_began != 0 && g_gen_stall_began.load() != 0;
}

}  // namespace perfbench
