// Closed-loop load generator for the real TCP runtime (ROADMAP item 4,
// DESIGN.md §14): N client connections, each keeping a fixed pipeline of
// appends outstanding against a 3-node loopback cluster, measuring decided
// ops/s and append→decided latency (p50/p99).
//
// The client engine is built on the same hot-path pieces as the transport —
// EpollLoop for readiness, FrameQueue/FrameReader for framing — so the
// generator itself never becomes the bottleneck being measured.
//
// By default the cluster is spawned in-process (three OmniTcpServer threads
// on loopback, pid-salted ports); --servers=1=h:p,2=h:p,... targets an
// external cluster instead.
//
// --out writes BENCH_net.json: a frozen baseline (the poll()+write() transport
// at kBaselineCommit, measured with this same generator and config) next to
// the numbers just measured, mirroring BENCH_core.json.
//
// With --read-fraction=F each connection dedicates that share of its pipeline
// slots to leader-lease reads (frame 0x06, DESIGN.md §15): served locally by
// the leader with no log append, stamped with a monotonic read watermark (the
// highest serialization point this connection has observed). Reads count
// toward ops and latency alongside writes, and the JSON row is then keyed
// "batched_lease_read". --trim-watermark=N turns on automatic log compaction
// in the in-process cluster, and the report includes the leader's resident
// log-suffix size — the bounded-memory evidence for EXPERIMENTS.md.
//
// Flags:
//   --connections=16     concurrent client connections
//   --pipeline=64        outstanding ops per connection
//   --value-bytes=64     declared payload size per command
//   --duration-s=5       measurement window (after warmup)
//   --warmup-s=1         untimed ramp-up
//   --read-fraction=0.0  share of pipeline slots doing lease reads
//   --trim-watermark=0   in-process cluster auto-trim watermark (0 = off)
//   --batch-limit=0      in-process cluster per-flush accept cap (0 = off)
//   --wal-dir=PREFIX     back the in-process cluster with real segmented WALs
//                        (one directory per node under PREFIX; group commit
//                        per event-loop flush — the JSON row is then keyed
//                        "durable", measuring the fdatasync cost end to end)
//   --out=PATH           write BENCH_net.json-style report
//   --check-fds          verify no fd leaked across cluster start/teardown
//   --servers=...        external cluster (skips the in-process one)

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/time.h"
#include "src/wal/env.h"
#include "src/util/types.h"

namespace opx {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

int CountOpenFds() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  while (readdir(dir) != nullptr) {
    ++count;
  }
  closedir(dir);  // the dirfd itself cancels out across two counts
  return count;
}

struct LoadConfig {
  int connections = 16;
  int pipeline = 64;
  uint32_t value_bytes = 64;
  double duration_s = 5.0;
  double warmup_s = 1.0;
  double read_fraction = 0.0;  // share of pipeline slots doing lease reads
};

struct LoadResult {
  double ops_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t ops = 0;
  uint64_t read_ops = 0;        // lease reads served (subset of ops)
  uint64_t read_bounces = 0;    // 0x06 requests bounced (lease/watermark miss)
  uint64_t ryw_violations = 0;  // served below the carried watermark (must be 0)
  uint64_t unexpected_acks = 0;  // acked off the proposing connection or twice (must be 0)
  uint64_t reconnects = 0;
};

// Closed-loop engine: every decided command immediately refills its owning
// connection back to the configured pipeline depth, so total outstanding work
// is constant and throughput is limited by the cluster, not the generator.
class LoadGen {
 public:
  LoadGen(std::map<NodeId, net::Endpoint> servers, NodeId leader, LoadConfig cfg)
      : servers_(std::move(servers)), leader_(leader), cfg_(cfg) {
    conns_.resize(static_cast<size_t>(cfg_.connections));
  }

  ~LoadGen() {
    for (Conn& c : conns_) {
      CloseConn(c);
    }
  }

  bool DriveLoad(LoadResult* out);

 private:
  struct Conn {
    int fd = -1;
    uint32_t id = 0;        // index; cmd/read ids are (id+1)<<32 | seq
    uint32_t next_seq = 0;
    int outstanding = 0;    // appends + lease reads in flight
    bool connecting = false;  // connect() in flight (EINPROGRESS)
    bool hello_sent = false;
    uint64_t session = 0;  // bumped on every close; detects reconnect mid-parse
    uint64_t issued_total = 0;
    uint64_t issued_reads = 0;
    // Highest serialization point observed by this connection's served reads:
    // the monotonic-read watermark stamped on every 0x06 request.
    uint64_t read_watermark = 0;
    net::FrameQueue sendq;
    net::FrameReader reader;
  };

  bool StartConn(Conn& c, const net::Endpoint& ep);
  void CloseConn(Conn& c);
  void OnIo(Conn& c, uint32_t bits);
  void FinishConnect(Conn& c);
  void Refill(Conn& c);
  void SendAppend(Conn& c);
  void SendRead(Conn& c);
  void FlushConn(Conn& c);
  void HandleFrame(Conn& c, const uint8_t* data, size_t len);
  void OnDecided(Conn& at, uint64_t cmd_id);
  void OnReadReply(Conn& c, const uint8_t* data, size_t len);
  void ReconnectToLeader(Conn& c);

  std::map<NodeId, net::Endpoint> servers_;
  NodeId leader_ = kNoNode;
  LoadConfig cfg_;
  net::EpollLoop loop_;
  net::FramePool pool_;
  std::vector<Conn> conns_;
  std::unordered_map<uint64_t, int64_t> inflight_;        // cmd id -> send ns
  std::unordered_map<uint64_t, int64_t> inflight_reads_;  // read id -> send ns
  std::vector<double> latencies_ms_;
  uint64_t ops_ = 0;
  uint64_t read_ops_ = 0;
  uint64_t read_bounces_ = 0;
  uint64_t ryw_violations_ = 0;
  uint64_t unexpected_acks_ = 0;
  uint64_t reconnects_ = 0;
  bool measuring_ = false;
  bool fatal_ = false;
};

bool LoadGen::StartConn(Conn& c, const net::Endpoint& ep) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return false;
  }
  // The socket is O_NONBLOCK: this either completes on loopback or parks as
  // EINPROGRESS until the loop reports writability.
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));  // NOLINT(opx-blocking-in-loop)
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return false;
  }
  c.fd = fd;
  c.connecting = rc != 0;
  c.hello_sent = false;
  Conn* self = &c;
  if (!loop_.Add(fd, [this, self](uint32_t bits) { OnIo(*self, bits); })) {
    close(fd);
    c.fd = -1;
    return false;
  }
  if (!c.connecting) {
    FinishConnect(c);
  }
  return true;
}

void LoadGen::CloseConn(Conn& c) {
  if (c.fd < 0) {
    return;
  }
  loop_.Remove(c.fd);
  close(c.fd);
  c.fd = -1;
  ++c.session;
  c.connecting = false;
  c.hello_sent = false;
  c.sendq.Clear(&pool_);
  c.reader.Clear();
}

void LoadGen::FinishConnect(Conn& c) {
  c.connecting = false;
  // Hello frame: single byte kHelloClient.
  net::FrameRef hello = pool_.Acquire();
  PutU32(&hello->bytes, 1);
  hello->bytes.push_back(net::kHelloClient);
  c.sendq.Push(std::move(hello));
  c.hello_sent = true;
  Refill(c);
  FlushConn(c);
}

void LoadGen::SendAppend(Conn& c) {
  const uint64_t cmd =
      (static_cast<uint64_t>(c.id + 1) << 32) | static_cast<uint64_t>(c.next_seq++);
  net::FrameRef f = pool_.Acquire();
  PutU32(&f->bytes, 1 + 8 + 4);
  f->bytes.push_back(0x01);  // client append
  PutU64(&f->bytes, cmd);
  PutU32(&f->bytes, cfg_.value_bytes);
  c.sendq.Push(std::move(f));
  inflight_[cmd] = NowNs();
  ++c.outstanding;
}

void LoadGen::SendRead(Conn& c) {
  const uint64_t read_id =
      (static_cast<uint64_t>(c.id + 1) << 32) | static_cast<uint64_t>(c.next_seq++);
  net::FrameRef f = pool_.Acquire();
  PutU32(&f->bytes, 1 + 8 + 8);
  f->bytes.push_back(0x06);  // lease read
  PutU64(&f->bytes, read_id);
  PutU64(&f->bytes, c.read_watermark);
  c.sendq.Push(std::move(f));
  inflight_reads_[read_id] = NowNs();
  ++c.outstanding;
}

void LoadGen::Refill(Conn& c) {
  // Interleave reads into the pipeline so issued_reads/issued_total tracks
  // the configured fraction (appends and reads share one id space; the two
  // inflight maps keep the reply paths apart).
  while (c.outstanding < cfg_.pipeline) {
    if (cfg_.read_fraction > 0.0 &&
        static_cast<double>(c.issued_reads) <
            cfg_.read_fraction * static_cast<double>(c.issued_total + 1)) {
      SendRead(c);
      ++c.issued_reads;
    } else {
      SendAppend(c);
    }
    ++c.issued_total;
  }
}

void LoadGen::FlushConn(Conn& c) {
  if (c.fd < 0) {
    return;
  }
  constexpr size_t kMaxIov = 64;
  struct iovec iov[kMaxIov];
  while (!c.sendq.empty()) {
    const size_t n = c.sendq.BuildIovecs(iov, kMaxIov);
    // O_NONBLOCK socket: returns EAGAIN instead of waiting for buffer space.
    const ssize_t written = writev(c.fd, iov, static_cast<int>(n));  // NOLINT(opx-blocking-in-loop)
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;  // resume on the next EPOLLOUT edge
      }
      ReconnectToLeader(c);
      return;
    }
    c.sendq.Consume(static_cast<size_t>(written), &pool_);
  }
}

void LoadGen::OnDecided(Conn& at, uint64_t cmd_id) {
  // The server pushes a decided id once, to the connection that proposed it.
  // An id this connection does not have in flight (another connection's, a
  // repeat, or one forgotten by a reconnect, whose acks go to the old socket)
  // is a server bug.
  auto it = inflight_.find(cmd_id);
  if (it == inflight_.end() || (cmd_id >> 32) != at.id + 1) {
    ++unexpected_acks_;
    return;
  }
  const int64_t sent = it->second;
  inflight_.erase(it);
  if (measuring_) {
    ++ops_;
    latencies_ms_.push_back(static_cast<double>(NowNs() - sent) / 1e6);
  }
  --at.outstanding;
  if (at.fd >= 0 && !at.connecting) {
    Refill(at);
  }
}

void LoadGen::HandleFrame(Conn& c, const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  switch (data[0]) {
    case 0x02: {  // decided batch
      if (len < 5) {
        return;
      }
      const uint32_t count = GetU32(data + 1);
      for (uint32_t i = 0; i < count && 5 + 8 * (i + 1) <= len; ++i) {
        OnDecided(c, GetU64(data + 5 + 8 * i));
      }
      break;
    }
    case 0x05: {  // redirect: this server is not the leader
      if (len >= 5) {
        const NodeId hint = static_cast<NodeId>(GetU32(data + 1));
        if (hint != kNoNode && servers_.count(hint) > 0) {
          leader_ = hint;
        }
      }
      ReconnectToLeader(c);
      break;
    }
    case 0x07: {  // lease-read reply
      OnReadReply(c, data, len);
      break;
    }
    default:
      break;
  }
}

void LoadGen::OnReadReply(Conn& c, const uint8_t* data, size_t len) {
  if (len < 1 + 8 + 8 + 1 + 4) {
    return;
  }
  const uint64_t read_id = GetU64(data + 1);
  const uint64_t decided = GetU64(data + 9);
  const bool served = data[17] != 0;
  auto it = inflight_reads_.find(read_id);
  if (it == inflight_reads_.end()) {
    return;  // reply outlived a reconnect
  }
  const int64_t sent = it->second;
  inflight_reads_.erase(it);
  --c.outstanding;
  if (served) {
    if (decided < c.read_watermark) {
      ++ryw_violations_;  // server bug: below the watermark we stamped
    }
    if (decided > c.read_watermark) {
      c.read_watermark = decided;
    }
    if (measuring_) {
      ++ops_;
      ++read_ops_;
      latencies_ms_.push_back(static_cast<double>(NowNs() - sent) / 1e6);
    }
  } else {
    ++read_bounces_;
    const NodeId hint = static_cast<NodeId>(GetU32(data + 18));
    if (hint != kNoNode && hint != leader_ && servers_.count(hint) > 0) {
      leader_ = hint;
      ReconnectToLeader(c);
      return;
    }
    // Mid-election or lease lapse on the node we already target: the refill
    // below re-issues the read on the same connection.
  }
  if (c.fd >= 0 && !c.connecting) {
    Refill(c);
  }
}

void LoadGen::ReconnectToLeader(Conn& c) {
  CloseConn(c);
  // Inflight commands this connection owned died with the socket; forget them
  // so the closed loop refills instead of waiting forever.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if ((it->first >> 32) == c.id + 1) {
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = inflight_reads_.begin(); it != inflight_reads_.end();) {
    if ((it->first >> 32) == c.id + 1) {
      it = inflight_reads_.erase(it);
    } else {
      ++it;
    }
  }
  c.outstanding = 0;
  ++reconnects_;
  auto ep = servers_.find(leader_);
  if (ep == servers_.end() || !StartConn(c, ep->second)) {
    fatal_ = true;
  }
}

void LoadGen::OnIo(Conn& c, uint32_t bits) {
  if (c.fd < 0) {
    return;
  }
  if ((bits & net::EpollLoop::kError) != 0) {
    ReconnectToLeader(c);
    return;
  }
  if (c.connecting && (bits & net::EpollLoop::kWritable) != 0) {
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      ReconnectToLeader(c);
      return;
    }
    FinishConnect(c);
  }
  if ((bits & net::EpollLoop::kReadable) != 0) {
    for (;;) {
      uint8_t chunk[65536];
      // O_NONBLOCK read: drains to EAGAIN, never waits (EPOLLET contract).
      const ssize_t n = read(c.fd, chunk, sizeof(chunk));  // NOLINT(opx-blocking-in-loop)
      if (n > 0) {
        const uint64_t session = c.session;
        const bool ok = c.reader.Feed(
            chunk, static_cast<size_t>(n),
            [this, &c, session](const uint8_t* d, size_t l) {
              HandleFrame(c, d, l);
              return c.session == session;  // stop if the handler reconnected us
            });
        if (c.session != session) {
          return;  // old socket is gone; the new one gets fresh edges
        }
        if (!ok) {
          ReconnectToLeader(c);
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
      ReconnectToLeader(c);  // EOF or hard error
      return;
    }
  }
  if ((bits & net::EpollLoop::kWritable) != 0 && !c.connecting) {
    FlushConn(c);
  }
}

bool LoadGen::DriveLoad(LoadResult* out) {
  auto leader_ep = servers_.find(leader_);
  if (leader_ep == servers_.end()) {
    return false;
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].id = static_cast<uint32_t>(i);
    if (!StartConn(conns_[i], leader_ep->second)) {
      return false;
    }
  }
  const int64_t start = NowNs();
  const int64_t measure_at = start + static_cast<int64_t>(cfg_.warmup_s * 1e9);
  const int64_t end_at = measure_at + static_cast<int64_t>(cfg_.duration_s * 1e9);
  int64_t window_start = 0;
  latencies_ms_.reserve(1u << 20);
  while (!fatal_) {
    const int64_t now = NowNs();
    if (now >= end_at) {
      break;
    }
    if (!measuring_ && now >= measure_at) {
      measuring_ = true;
      window_start = now;
      ops_ = 0;
      latencies_ms_.clear();
    }
    const int64_t horizon = measuring_ ? end_at : measure_at;
    const int timeout_ms = static_cast<int>((horizon - now + 999'999) / 1'000'000);
    if (loop_.Wait(std::min(timeout_ms, 100)) < 0) {
      return false;
    }
    // EPOLLET: frames enqueued by this batch's refills never produce a new
    // writable edge on an already-writable socket, so drain queues here.
    for (Conn& c : conns_) {
      if (!c.connecting) {
        FlushConn(c);
      }
    }
  }
  const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  out->ops = ops_;
  out->ops_per_sec = window_s > 0 ? static_cast<double>(ops_) / window_s : 0;
  out->p50_ms = Percentile(latencies_ms_, 50.0);
  out->p99_ms = Percentile(latencies_ms_, 99.0);
  out->read_ops = read_ops_;
  out->read_bounces = read_bounces_;
  out->ryw_violations = ryw_violations_;
  out->unexpected_acks = unexpected_acks_;
  out->reconnects = reconnects_;
  return !fatal_;
}

// ---------------------------------------------------------------------------
// In-process cluster + leader discovery
// ---------------------------------------------------------------------------

struct ClusterSlot {
  std::unique_ptr<net::OmniTcpServer> server;
  std::thread thread;
};

struct Cluster {
  std::map<NodeId, net::Endpoint> endpoints;
  std::vector<ClusterSlot> slots;
  std::atomic<bool> stop{false};

  ~Cluster() { Shutdown(); }

  void Shutdown() {
    stop.store(true);
    for (ClusterSlot& s : slots) {
      if (s.thread.joinable()) {
        s.thread.join();
      }
      s.server.reset();
    }
    slots.clear();
  }
};

// With --wal-dir, each node's journal lives in PREFIX/node<id>; stale
// segments from a previous run are swept so the bench always measures a
// fresh log, not a recovery.
void SweepWalDir(const std::string& dir) {
  std::vector<std::string> names;
  if (wal::PosixEnv()->ListDir(dir, &names)) {
    for (const std::string& name : names) {
      wal::PosixEnv()->DeleteFile(dir + "/" + name);
    }
  }
}

// Binds three servers on loopback with pid-salted ports, retrying on
// collision with another test run on the same host.
bool SpawnCluster(Cluster* cluster, uint64_t trim_watermark, uint64_t batch_limit,
                  const std::string& wal_prefix) {
  const uint16_t salt = static_cast<uint16_t>(getpid() % 17000);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const uint16_t base =
        static_cast<uint16_t>(21000 + (salt + attempt * 131) % 17000);
    std::map<NodeId, net::Endpoint> eps;
    for (NodeId id = 1; id <= 3; ++id) {
      eps[id] = {"127.0.0.1", static_cast<uint16_t>(base + id)};
    }
    std::vector<ClusterSlot> slots(3);
    bool ok = true;
    for (NodeId id = 1; id <= 3; ++id) {
      net::ServerOptions opt;
      opt.id = id;
      opt.listen_port = eps[id].port;
      opt.peers = eps;
      opt.peers.erase(id);
      opt.trim_watermark = trim_watermark;
      opt.batch_limit = batch_limit;
      if (!wal_prefix.empty()) {
        opt.wal_dir = wal_prefix + "/node" + std::to_string(id);
        SweepWalDir(opt.wal_dir);
      }
      slots[static_cast<size_t>(id - 1)].server =
          std::make_unique<net::OmniTcpServer>(opt);
      if (!slots[static_cast<size_t>(id - 1)].server->Start()) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      continue;  // port collision; re-salt and retry
    }
    cluster->endpoints = eps;
    cluster->slots = std::move(slots);
    for (ClusterSlot& s : cluster->slots) {
      net::OmniTcpServer* srv = s.server.get();
      const std::atomic<bool>* stop = &cluster->stop;
      s.thread = std::thread([srv, stop]() { srv->Run(*stop); });
    }
    return true;
  }
  return false;
}

// Waits until the cluster elects a leader and confirms it decides appends.
NodeId AwaitLeader(const std::map<NodeId, net::Endpoint>& endpoints) {
  net::OmniClient probe(endpoints);
  if (!probe.Connect(Seconds(10))) {
    return kNoNode;
  }
  const int64_t deadline = NowNs() + Seconds(15);
  while (NowNs() < deadline) {
    net::OmniClient::Status status;
    if (probe.GetStatus(&status, Seconds(1)) && status.leader != kNoNode) {
      // Priming append proves the leader path end to end.
      if (probe.AppendAndWait((0xB00FULL << 48) | static_cast<uint64_t>(status.leader),
                              8, Seconds(2))) {
        return status.leader;
      }
    }
    usleep(20'000);
  }
  return kNoNode;
}

bool ParseServersFlag(const std::string& spec, std::map<NodeId, net::Endpoint>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const size_t eq = item.find('=');
    const size_t colon = item.rfind(':');
    if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
      return false;
    }
    const NodeId id = static_cast<NodeId>(std::stoul(item.substr(0, eq)));
    net::Endpoint ep;
    ep.host = item.substr(eq + 1, colon - eq - 1);
    ep.port = static_cast<uint16_t>(std::stoul(item.substr(colon + 1)));
    (*out)[id] = ep;
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

// ---------------------------------------------------------------------------
// BENCH_net.json
// ---------------------------------------------------------------------------

// Frozen poll()+write() transport numbers, measured at kBaselineCommit with
// this generator's default config on the CI container. Regenerate by checking
// out that commit and running: loadgen --out=/dev/stdout
constexpr char kBaselineCommit[] = "d64def4";
constexpr double kBaselineOpsPerSec = 13141;  // best of 3, 16x64 pipeline
constexpr double kBaselineP50Ms = 69.808;
constexpr double kBaselineP99Ms = 170.699;

void PrintJsonRow(std::FILE* f, const char* key, double ops, double p50, double p99,
                  bool last) {
  std::fprintf(f, "  \"%s\": {\n", key);
  std::fprintf(f, "    \"ops_per_sec\": %.0f,\n", ops);
  std::fprintf(f, "    \"p50_ms\": %.3f,\n", p50);
  std::fprintf(f, "    \"p99_ms\": %.3f\n", p99);
  std::fprintf(f, "  }%s\n", last ? "" : ",");
}

}  // namespace
}  // namespace opx

int main(int argc, char** argv) {
  using namespace opx;
  // A peer closing mid-send must surface as EPIPE from the syscall, not kill
  // the process (connection churn is routine here).
  signal(SIGPIPE, SIG_IGN);
  Flags flags(argc, argv);
  LoadConfig cfg;
  cfg.connections = static_cast<int>(flags.GetInt("connections", 16));
  cfg.pipeline = static_cast<int>(flags.GetInt("pipeline", 64));
  cfg.value_bytes = static_cast<uint32_t>(flags.GetInt("value-bytes", 64));
  cfg.duration_s = static_cast<double>(flags.GetInt("duration-s", 5));
  cfg.warmup_s = static_cast<double>(flags.GetInt("warmup-s", 1));
  cfg.read_fraction = flags.GetDouble("read-fraction", 0.0);
  const uint64_t trim_watermark =
      static_cast<uint64_t>(flags.GetInt("trim-watermark", 0));
  const uint64_t batch_limit = static_cast<uint64_t>(flags.GetInt("batch-limit", 0));
  const std::string out_path = flags.GetString("out", "");
  const bool check_fds = flags.GetBool("check-fds", false);
  const std::string servers_spec = flags.GetString("servers", "");
  const std::string wal_prefix = flags.GetString("wal-dir", "");

  if (!wal_prefix.empty()) {
    // Each node journals under PREFIX/node<id>; make the tree (parents too)
    // up front so a bad prefix is a usage error, not a bind-retry loop.
    std::error_code ec;
    std::filesystem::create_directories(wal_prefix, ec);
    if (ec) {
      std::fprintf(stderr, "loadgen: --wal-dir=%s: %s\n", wal_prefix.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  const int fds_before = check_fds ? CountOpenFds() : -1;

  auto cluster = std::make_unique<Cluster>();
  std::map<NodeId, net::Endpoint> endpoints;
  if (!servers_spec.empty()) {
    if (!ParseServersFlag(servers_spec, &endpoints)) {
      std::fprintf(stderr, "bad --servers spec\n");
      return 1;
    }
    cluster.reset();
  } else {
    if (!SpawnCluster(cluster.get(), trim_watermark, batch_limit, wal_prefix)) {
      std::fprintf(stderr, "could not bind a 3-node loopback cluster\n");
      return 1;
    }
    endpoints = cluster->endpoints;
  }

  const NodeId leader = AwaitLeader(endpoints);
  if (leader == kNoNode) {
    std::fprintf(stderr, "no leader elected within deadline\n");
    return 1;
  }
  std::printf("leader: node %d; %d conns x %d pipeline, %u-byte values, %.0fs window\n",
              leader, cfg.connections, cfg.pipeline, cfg.value_bytes, cfg.duration_s);

  LoadResult result;
  {
    LoadGen gen(endpoints, leader, cfg);
    if (!gen.DriveLoad(&result)) {
      std::fprintf(stderr, "load loop failed (lost the cluster?)\n");
      return 1;
    }
  }

  if (result.ops == 0) {
    std::fprintf(stderr, "no commands decided during the measurement window\n");
    return 1;
  }
  std::printf("completed ops: %" PRIu64 "  (%.0f ops/s)\n", result.ops,
              result.ops_per_sec);
  std::printf("latency:       p50 %.3f ms   p99 %.3f ms\n", result.p50_ms,
              result.p99_ms);
  if (cfg.read_fraction > 0.0) {
    std::printf("lease reads:   %" PRIu64 " served, %" PRIu64 " bounced, %" PRIu64
                " ryw violations\n",
                result.read_ops, result.read_bounces, result.ryw_violations);
    if (result.ryw_violations > 0) {
      std::fprintf(stderr, "FAIL: lease reads served below their watermark\n");
      return 1;
    }
  }
  std::printf("reconnects:    %" PRIu64 "\n", result.reconnects);
  std::printf("unexpected acks: %" PRIu64 "\n", result.unexpected_acks);
  if (result.unexpected_acks > 0) {
    std::fprintf(stderr, "FAIL: decided ids acked off their proposing connection or twice\n");
    return 1;
  }

  // Bounded-memory evidence: after the run, the leader's resident log suffix
  // (log_len - compacted) must sit near the trim watermark, not near the total
  // number of appends (EXPERIMENTS.md compaction recipe).
  net::OmniClient::Status post{};
  {
    net::OmniClient probe(endpoints);
    // AppendAndWait follows redirects, landing the probe on the leader so the
    // status below is the leader's.
    probe.AppendAndWait((0xF00DULL << 48) | static_cast<uint64_t>(getpid()), 8,
                        Seconds(5));
    if (!probe.GetStatus(&post, Seconds(5))) {
      std::fprintf(stderr, "post-run status probe failed\n");
      return 1;
    }
  }
  const uint64_t suffix_entries = post.log_len - post.compacted;
  std::printf("leader log:    len %" PRIu64 "  compacted %" PRIu64
              "  resident suffix %" PRIu64 " entries\n",
              post.log_len, post.compacted, suffix_entries);
  if (trim_watermark > 0 && post.compacted == 0) {
    std::fprintf(stderr, "FAIL: --trim-watermark set but nothing was compacted\n");
    return 1;
  }

  if (cluster != nullptr) {
    cluster->Shutdown();
    cluster.reset();
  }

  if (!out_path.empty()) {
    std::FILE* f =
        out_path == "/dev/stdout" ? stdout : std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"loadgen\",\n");
    std::fprintf(f, "  \"config\": {\"connections\": %d, \"pipeline\": %d, "
                    "\"value_bytes\": %u, \"duration_s\": %.0f, "
                    "\"read_fraction\": %.2f, \"trim_watermark\": %" PRIu64
                    ", \"batch_limit\": %" PRIu64 ", \"durable\": %s},\n",
                 cfg.connections, cfg.pipeline, cfg.value_bytes, cfg.duration_s,
                 cfg.read_fraction, trim_watermark, batch_limit,
                 wal_prefix.empty() ? "false" : "true");
    std::fprintf(f, "  \"baseline_commit\": \"%s\",\n", kBaselineCommit);
    std::fprintf(f, "  \"leader_log\": {\"len\": %" PRIu64 ", \"compacted\": %" PRIu64
                    ", \"resident_suffix\": %" PRIu64 "},\n",
                 post.log_len, post.compacted, suffix_entries);
    if (cfg.read_fraction > 0.0) {
      std::fprintf(f, "  \"lease_reads\": {\"served\": %" PRIu64
                      ", \"bounced\": %" PRIu64 ", \"ryw_violations\": %" PRIu64
                      "},\n",
                   result.read_ops, result.read_bounces, result.ryw_violations);
    }
    PrintJsonRow(f, "baseline", kBaselineOpsPerSec, kBaselineP50Ms, kBaselineP99Ms,
                 /*last=*/false);
    // Mixed read/write and WAL-backed runs land in their own rows so the
    // pure-append in-memory "current" row stays comparable to the frozen
    // baseline; "durable" is the same append workload paying one fdatasync
    // per event-loop flush.
    const char* row_key = cfg.read_fraction > 0.0 ? "batched_lease_read"
                          : !wal_prefix.empty()   ? "durable"
                                                  : "current";
    PrintJsonRow(f, row_key, result.ops_per_sec, result.p50_ms, result.p99_ms,
                 /*last=*/true);
    std::fprintf(f, "}\n");
    if (f != stdout) {
      std::fclose(f);
      std::printf("wrote %s\n", out_path.c_str());
    }
  }

  if (check_fds) {
    usleep(50'000);  // let closed sockets finish tearing down
    const int fds_after = CountOpenFds();
    if (fds_before >= 0 && fds_after > fds_before) {
      std::fprintf(stderr, "fd leak: %d open before, %d after\n", fds_before,
                   fds_after);
      return 1;
    }
    std::printf("fds: %d before, %d after (no leak)\n", fds_before, fds_after);
  }
  return 0;
}
