// Closed-loop load generator for the real TCP runtime (DESIGN.md §14): N
// client connections, each keeping a fixed pipeline of appends outstanding
// against a 3-node loopback cluster, measuring decided ops/s and
// append→decided latency (p50/p99).
//
// Each connection is an rsm::Client driven by a net::ClientSession — the
// same state machine the simulator measures with, so redirects, rotation and
// re-proposal follow one policy everywhere — and all N share one EpollLoop.
// The sessions only move bytes (FrameQueue/FrameReader, one sendmsg per
// connection per pass), so the generator itself never becomes the
// bottleneck being measured.
//
// By default the cluster is spawned in-process (three OmniTcpServer threads
// on loopback, pid-salted ports); --servers=1=h:p,2=h:p,... targets an
// external cluster instead.
//
// --out writes BENCH_net.json: a frozen baseline (the poll()+write() transport
// at kBaselineCommit, measured with this same generator and config) next to
// the numbers just measured, mirroring BENCH_core.json.
//
// With --read-fraction=F each connection also keeps ceil(pipeline × F)
// leader-lease reads outstanding (frame 0x06, DESIGN.md §15): served locally
// by the leader with no log append, stamped with the client's read watermark
// (the highest serialization point it has observed). Reads count toward ops
// and latency alongside writes, and the JSON row is then keyed
// "batched_lease_read". --trim-watermark=N turns on automatic log compaction
// in the in-process cluster, and the report includes the leader's resident
// log-suffix size — the bounded-memory evidence for EXPERIMENTS.md.
//
// Flags:
//   --connections=16     concurrent client connections
//   --pipeline=64        outstanding appends per connection
//   --value-bytes=64     declared payload size per command
//   --duration-s=5       measurement window (after warmup)
//   --warmup-s=1         untimed ramp-up
//   --read-fraction=0.0  lease reads kept outstanding, as a share of --pipeline
//   --trim-watermark=0   in-process cluster auto-trim watermark (0 = off)
//   --batch-limit=0      in-process cluster per-flush accept cap (0 = off)
//   --wal-dir=PREFIX     back the in-process cluster with real segmented WALs
//                        (one directory per node under PREFIX; group commit
//                        per event-loop flush — the JSON row is then keyed
//                        "durable", measuring the fdatasync cost end to end)
//   --out=PATH           write BENCH_net.json-style report
//   --check-fds          verify no fd leaked across cluster start/teardown
//   --servers=...        external cluster (skips the in-process one)

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/net/epoll_loop.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/rsm/client.h"
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
  double read_fraction = 0.0;  // lease reads outstanding, as a share of pipeline
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

// Closed loop: each client tops itself back up to the pipeline depth as its
// commands are decided, so total outstanding work is constant and throughput
// is limited by the cluster, not the generator. One pass = every session's
// Advance (sends) then one loop wait (receives). Client i numbers its commands
// from (i+1) << 32, so an ack delivered to the wrong connection shows up as
// a stale ack there.
bool RunLoad(const std::map<NodeId, net::Endpoint>& endpoints, NodeId leader,
             const LoadConfig& cfg, LoadResult* out) {
  rsm::ClientParams params;
  params.servers = {leader};  // rotation starts at the discovered leader
  for (const auto& [id, endpoint] : endpoints) {
    if (id != leader) {
      params.servers.push_back(id);
    }
  }
  params.concurrent_proposals = static_cast<size_t>(cfg.pipeline);
  params.payload_bytes = cfg.value_bytes;
  params.read_fraction = cfg.read_fraction;
  net::EpollLoop loop;
  std::vector<std::unique_ptr<net::ClientSession>> sessions;
  for (int i = 0; i < cfg.connections; ++i) {
    sessions.push_back(std::make_unique<net::ClientSession>(
        &loop, endpoints, params, static_cast<uint64_t>(i + 1) << 32));
  }
  auto total = [&sessions](auto metric) {
    uint64_t sum = 0;
    for (const auto& s : sessions) {
      sum += metric(s->client());
    }
    return sum;
  };
  auto writes = [](const rsm::Client& c) { return c.completed(); };
  auto reads = [](const rsm::Client& c) { return c.reads_completed(); };
  std::vector<Time> latencies;
  latencies.reserve(1u << 20);
  const int64_t measure_at = NowNs() + static_cast<int64_t>(cfg.warmup_s * 1e9);
  const int64_t end_at = measure_at + static_cast<int64_t>(cfg.duration_s * 1e9);
  int64_t window_start = 0;
  uint64_t writes_before = 0;
  uint64_t reads_before = 0;
  for (int64_t now = NowNs(); now < end_at; now = NowNs()) {
    if (window_start == 0 && now >= measure_at) {
      window_start = now;
      writes_before = total(writes);
      reads_before = total(reads);
      for (auto& s : sessions) {
        s->client().set_latency_sink(&latencies);
      }
    }
    for (auto& s : sessions) {
      s->Advance();
    }
    const int64_t horizon = window_start == 0 ? measure_at : end_at;
    const int64_t wait_ms = std::min<int64_t>((horizon - now + 999'999) / 1'000'000, 10);
    if (loop.Wait(static_cast<int>(wait_ms)) < 0) {
      return false;
    }
  }
  const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  out->read_ops = total(reads) - reads_before;
  out->ops = total(writes) - writes_before + out->read_ops;
  out->ops_per_sec = window_s > 0 ? static_cast<double>(out->ops) / window_s : 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(latencies.size());
  for (Time t : latencies) {
    latencies_ms.push_back(ToMillis(t));
  }
  out->p50_ms = Percentile(latencies_ms, 50.0);
  out->p99_ms = Percentile(latencies_ms, 99.0);
  out->read_bounces = total([](const rsm::Client& c) { return c.reads_bounced(); });
  out->ryw_violations = total([](const rsm::Client& c) { return c.ryw_violations(); });
  out->unexpected_acks = total([](const rsm::Client& c) { return c.stale_acks(); });
  for (const auto& s : sessions) {
    out->reconnects += s->reconnects();
  }
  return true;
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
    std::string error;
    if (!net::ParseEndpoints(servers_spec, &endpoints, &error)) {
      std::fprintf(stderr, "loadgen: --servers: %s\n", error.c_str());
      return 2;
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
  if (!RunLoad(endpoints, leader, cfg, &result)) {
    std::fprintf(stderr, "load loop failed\n");
    return 1;
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
