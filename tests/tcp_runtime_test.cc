// Integration tests for the real TCP runtime: three OmniTcpServer instances
// on localhost sockets (each on its own thread), driven by OmniClient —
// replication, leader redirect, failover, lease reads, crash + WAL recovery,
// all over actual TCP.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "src/net/client_wire.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/obs/trace.h"
#include "tests/loopback_ports.h"

namespace opx {
namespace {

using net::Endpoint;
using net::OmniClient;
using net::OmniTcpServer;
using net::ServerOptions;

// A 3-server localhost cluster. Ports must be known before peers can
// connect, so each attempt draws a random port block; a bind collision with
// a test running in parallel stops what started and retries on a fresh block.
// `observed` gives each server an obs sink that outlives restarts (read it
// with Counter once the servers are stopped).
class TcpCluster {
 public:
  explicit TcpCluster(const std::string& wal_prefix = "", bool observed = false) {
    for (int attempt = 0; attempt < loopback::kPortAttempts; ++attempt) {
      const uint16_t base = loopback::RandomPortBase();
      endpoints_.clear();
      for (NodeId id = 1; id <= 3; ++id) {
        endpoints_[id] = Endpoint{"127.0.0.1", static_cast<uint16_t>(base + id)};
      }
      for (NodeId id = 1; id <= 3; ++id) {
        ServerOptions& options = options_[static_cast<size_t>(id)];
        options = ServerOptions{};
        options.id = id;
        options.listen_port = endpoints_[id].port;
        options.election_timeout = Millis(30);
        options.ble_priority = id == 1 ? 1 : 0;
        if (!wal_prefix.empty()) {
          options.wal_dir = wal_prefix + std::to_string(id) + ".wal";
        }
        options.peers = endpoints_;
        options.peers.erase(id);
        if (observed) {
          sinks_[static_cast<size_t>(id)] = std::make_unique<obs::ObsSink>(1u << 10);
          options.obs = sinks_[static_cast<size_t>(id)].get();
        }
      }
      bool ok = true;
      for (NodeId id = 1; id <= 3 && ok; ++id) {
        ok = TryStartServer(id);
      }
      if (ok) {
        return;
      }
      StopAll();
      RemoveWals();  // the next attempt must create its journals, not recover
    }
    ADD_FAILURE() << "no free loopback port block after " << loopback::kPortAttempts
                  << " attempts";
  }

  ~TcpCluster() {
    StopAll();
    RemoveWals();
  }

  void StartServer(NodeId id) { ASSERT_TRUE(TryStartServer(id)); }

  void StopServer(NodeId id) {
    auto& slot = servers_[static_cast<size_t>(id)];
    if (slot.server == nullptr) {
      return;
    }
    slot.stop.store(true);
    if (slot.thread.joinable()) {
      slot.thread.join();
    }
    slot.server = nullptr;
  }

  void StopAll() {
    for (NodeId id = 1; id <= 3; ++id) {
      StopServer(id);
    }
  }

  const std::map<NodeId, Endpoint>& endpoints() const { return endpoints_; }

  // Server `id`'s counter `name` over every run of it; 0 if never bumped.
  uint64_t Counter(NodeId id, const std::string& name) const {
    const obs::Counter* c = sinks_[static_cast<size_t>(id)]->metrics().FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }

 private:
  struct Slot {
    std::unique_ptr<OmniTcpServer> server;
    std::thread thread;
    std::atomic<bool> stop{false};
  };

  bool TryStartServer(NodeId id) {
    auto& slot = servers_[static_cast<size_t>(id)];
    if (slot.server != nullptr) {
      return false;
    }
    slot.stop.store(false);
    auto server = std::make_unique<OmniTcpServer>(options_[static_cast<size_t>(id)]);
    if (!server->Start()) {
      return false;
    }
    slot.server = std::move(server);
    slot.thread = std::thread([&slot]() { slot.server->Run(slot.stop); });
    return true;
  }

  void RemoveWals() {
    for (NodeId id = 1; id <= 3; ++id) {
      const std::string& dir = options_[static_cast<size_t>(id)].wal_dir;
      if (dir.empty()) {
        continue;
      }
      // The WAL is a directory of segments; sweep its files.
      std::vector<std::string> names;
      if (wal::PosixEnv()->ListDir(dir, &names)) {
        for (const std::string& name : names) {
          wal::PosixEnv()->DeleteFile(dir + "/" + name);
        }
      }
    }
  }

  std::unique_ptr<obs::ObsSink> sinks_[4];
  ServerOptions options_[4];
  Slot servers_[4];
  std::map<NodeId, Endpoint> endpoints_;
};

// Polls a status probe until some server reports a leader.
NodeId AwaitLeader(const std::map<NodeId, Endpoint>& endpoints) {
  OmniClient probe(endpoints);
  if (!probe.Connect(Seconds(10))) {
    return kNoNode;
  }
  OmniClient::Status status;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (probe.GetStatus(&status, Seconds(5)) && status.leader != kNoNode) {
      return status.leader;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return kNoNode;
}

// One raw client connection speaking client_wire frames, for asserting on a
// server's exact reply. Blocking, with a 5 s receive timeout.
class RawClient {
 public:
  explicit RawClient(const Endpoint& endpoint) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr);
    connected_ = connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval timeout{5, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    Send([](std::vector<uint8_t>* out) {
      net::client_wire::EncodeHello(net::kHelloClient, kNoNode, out);
    });
  }
  ~RawClient() { close(fd_); }

  bool connected() const { return connected_; }

  template <typename Encode>
  void Send(Encode&& encode) {
    std::vector<uint8_t> frame;
    frame.reserve(64);
    frame.resize(4);  // length header, patched below
    encode(&frame);
    net::PatchFrameLength(&frame, 0);
    connected_ = connected_ && write(fd_, frame.data(), frame.size()) ==
                                   static_cast<ssize_t>(frame.size());
  }

  // The next frame's payload; empty on timeout or close.
  std::vector<uint8_t> Next() {
    while (frames_.empty()) {
      uint8_t chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        return {};
      }
      reader_.Feed(chunk, static_cast<size_t>(n), [this](const uint8_t* data, size_t len) {
        frames_.emplace_back(data, data + len);
        return true;
      });
    }
    std::vector<uint8_t> frame = std::move(frames_.front());
    frames_.pop_front();
    return frame;
  }

  rsm::ReadReply LeaseRead(uint64_t read_id, uint64_t watermark) {
    Send([&](std::vector<uint8_t>* out) { net::client_wire::EncodeRead({read_id, watermark}, out); });
    const std::vector<uint8_t> frame = Next();
    rsm::ReadReply reply;
    EXPECT_TRUE(net::client_wire::DecodeReadReply(frame.data(), frame.size(), &reply));
    EXPECT_EQ(reply.read_id, read_id);
    return reply;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  net::FrameReader reader_;
  std::deque<std::vector<uint8_t>> frames_;
};

NodeId SomeFollower(const std::map<NodeId, Endpoint>& endpoints, NodeId leader) {
  for (const auto& [id, endpoint] : endpoints) {
    if (id != leader) {
      return id;
    }
  }
  return kNoNode;
}

TEST(TcpRuntime, ReplicatesCommandsEndToEnd) {
  TcpCluster cluster;
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  OmniClient::Status status;
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  EXPECT_GE(status.decided, 20u);
  EXPECT_NE(status.leader, kNoNode);
}

TEST(TcpRuntime, FollowerRedirectsToLeader) {
  TcpCluster cluster;
  OmniClient probe(cluster.endpoints());
  ASSERT_TRUE(probe.Connect(Seconds(10)));
  OmniClient::Status status;
  ASSERT_TRUE(probe.GetStatus(&status, Seconds(10)));
  // Wait for a leader to emerge.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status.leader == kNoNode && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(probe.GetStatus(&status, Seconds(5)));
  }
  ASSERT_NE(status.leader, kNoNode);
  std::map<NodeId, Endpoint> all = cluster.endpoints();
  OmniClient client(all);
  ASSERT_TRUE(client.Connect(Seconds(5)));
  EXPECT_TRUE(client.AppendAndWait(777, 8, Seconds(10)));
  // A leader elected before node 1 (BLE priority) joined can hand over to
  // it, so pick the follower from the leader named after a decide, and check
  // the session against the leader named once it is done.
  ASSERT_TRUE(probe.GetStatus(&status, Seconds(5)));
  ASSERT_NE(status.leader, kNoNode);
  NodeId follower = kNoNode;
  for (const auto& [id, endpoint] : all) {
    if (id != status.leader) {
      follower = id;
      break;
    }
  }

  // OmniClient starts at the lowest id, usually the leader (node 1 has BLE
  // priority), so drive a session whose rotation starts at the follower.
  net::EpollLoop loop;
  rsm::ClientParams params;
  params.servers = {follower, status.leader};
  params.concurrent_proposals = 0;
  net::ClientSession session(&loop, all, params);
  session.client().Propose(session.Now(), 778);
  for (const Time until = session.Now() + Seconds(10);
       session.client().IsPending(778) && session.Now() < until;) {
    session.Advance();
    loop.Wait(10);
  }
  EXPECT_FALSE(session.client().IsPending(778));
  ASSERT_TRUE(probe.GetStatus(&status, Seconds(5)));
  EXPECT_EQ(session.server(), status.leader);
}

TEST(TcpRuntime, SurvivesServerCrashAndWalRecovery) {
  const std::string wal_prefix = ::testing::TempDir() + "/tcp_e2e_";
  TcpCluster cluster(wal_prefix);
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10)));
  }
  // Crash server 3 (thread stopped, state dropped; WAL remains).
  cluster.StopServer(3);
  for (uint64_t cmd = 11; cmd <= 20; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  // Restart from the WAL; it must catch up with entries decided while down.
  cluster.StartServer(3);
  OmniClient direct(std::map<NodeId, Endpoint>{{3, cluster.endpoints().at(3)}});
  ASSERT_TRUE(direct.Connect(Seconds(10)));
  OmniClient::Status status;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    if (direct.GetStatus(&status, Seconds(5)) && status.decided >= 20u) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(status.decided, 20u) << "recovered server did not catch up";
}

TEST(TcpRuntime, DecidedIdsGoOnlyToTheirProposer) {
  TcpCluster cluster;
  const NodeId leader = AwaitLeader(cluster.endpoints());
  ASSERT_NE(leader, kNoNode);
  NodeId follower = kNoNode;
  for (const auto& [id, endpoint] : cluster.endpoints()) {
    if (id != leader) {
      follower = id;
      break;
    }
  }
  const std::map<NodeId, Endpoint> at_leader{{leader, cluster.endpoints().at(leader)}};
  const std::map<NodeId, Endpoint> at_follower{{follower, cluster.endpoints().at(follower)}};
  OmniClient a(at_leader);
  OmniClient b(at_leader);
  OmniClient watcher(at_follower);
  ASSERT_TRUE(a.Connect(Seconds(5)));
  ASSERT_TRUE(b.Connect(Seconds(5)));
  ASSERT_TRUE(watcher.Connect(Seconds(5)));
  OmniClient::Status status;
  ASSERT_TRUE(watcher.GetStatus(&status, Seconds(5)));  // the follower knows this client

  constexpr uint64_t kEach = 10;
  for (uint64_t i = 1; i <= kEach; ++i) {
    ASSERT_TRUE(a.AppendAndWait(i, 8, Seconds(10))) << "a " << i;
    ASSERT_TRUE(b.AppendAndWait(1000 + i, 8, Seconds(10))) << "b " << i;
  }
  OmniClient::Status leader_status;
  ASSERT_TRUE(a.GetStatus(&leader_status, Seconds(5)));
  ASSERT_TRUE(b.GetStatus(&status, Seconds(5)));
  // A status reply queues behind every push made before it, so both clients
  // have now read everything the leader sent them: their own ids only.
  EXPECT_EQ(a.decided_count(), kEach);
  EXPECT_EQ(b.decided_count(), kEach);

  // Once the follower has decided everything too, its client still got no
  // 0x02 frame: a follower pushes nothing.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    ASSERT_TRUE(watcher.GetStatus(&status, Seconds(5)));
  } while (status.decided < leader_status.decided &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_GE(status.decided, leader_status.decided);
  EXPECT_EQ(watcher.decided_count(), 0u);

  // A re-append on a new connection is acknowledged there, whichever copy is
  // decided first.
  OmniClient c(at_leader);
  ASSERT_TRUE(c.Connect(Seconds(5)));
  ASSERT_TRUE(c.Append(5000));
  ASSERT_TRUE(c.Connect(Seconds(5)));  // drops the first connection
  EXPECT_TRUE(c.AppendAndWait(5000, 8, Seconds(10)));
  ASSERT_TRUE(c.GetStatus(&status, Seconds(5)));
  EXPECT_EQ(c.decided_count(), 1u);
}

// Failover: the leader's thread stops while the client is mid-sequence. The
// client sees its connection drop, finds the old leader unreachable, rotates
// and re-proposes on the new connection; every later command is decided.
TEST(TcpRuntime, ClientKeepsDecidingAfterLeaderStops) {
  TcpCluster cluster;
  OmniClient client(cluster.endpoints());
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  const NodeId leader = client.connected_to();  // decided acks come from the leader
  ASSERT_NE(leader, kNoNode);

  // Appends keep flowing while another thread stops the leader, and the
  // sequence runs until 20 more commands are decided after the stop has
  // completed, so some of them are certainly in flight or issued after it.
  std::atomic<uint64_t> done{10};
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    while (done.load() < 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cluster.StopServer(leader);
    stopped.store(true);
  });
  uint64_t cmd = 11;
  for (int after_stop = 0; after_stop < 20; ++cmd) {
    if (!client.AppendAndWait(cmd, 8, Seconds(10))) {
      ADD_FAILURE() << "cmd " << cmd << " not decided after the leader stopped";
      done.store(UINT64_MAX);
      break;
    }
    done.store(cmd);
    after_stop += stopped.load() ? 1 : 0;
  }
  stopper.join();
  EXPECT_EQ(client.decided_count(), cmd - 1);
  EXPECT_NE(client.connected_to(), leader);
  EXPECT_NE(client.connected_to(), kNoNode);
}

// During a failover the follower the client rotates to keeps naming the
// stopped leader for a while, and each append to it comes back as a redirect
// to the client's suspect. The session answers those redirects on the 1 ms
// client tick, as ClusterSim does, not once per loopback round trip (~15k
// append frames in ~380 ms when every frame was answered at once).
TEST(TcpRuntime, FailoverReproposalsArePacedToTheClientTick) {
#if !defined(OPX_OBS_ENABLED)
  GTEST_SKIP() << "counts appends through the srv/client_appends counter (OPX_OBS=ON)";
#endif
  TcpCluster cluster("", /*observed=*/true);
  ASSERT_NE(AwaitLeader(cluster.endpoints()), kNoNode);  // the first appends find it
  const auto start = std::chrono::steady_clock::now();
  OmniClient client(cluster.endpoints());
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  const NodeId leader = client.connected_to();
  ASSERT_NE(leader, kNoNode);
  cluster.StopServer(leader);
  for (uint64_t cmd = 11; cmd <= 30; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_NE(client.connected_to(), leader);
  cluster.StopAll();
  uint64_t appends = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    appends += cluster.Counter(id, "srv/client_appends");
  }
  // Every command reached a server, with one frame per command, at most one
  // paced re-send per millisecond, and slack for rotations on top.
  EXPECT_GE(appends, 30u);
  EXPECT_LE(appends, 30 + static_cast<uint64_t>(elapsed_ms) + 100)
      << "append frames in " << elapsed_ms << " ms";
}

TEST(TcpRuntime, LeaseReadIsServedAtTheLeaderAtItsWatermark) {
  TcpCluster cluster;
  OmniClient client(cluster.endpoints());
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  OmniClient::Status status;
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  ASSERT_GE(status.decided, 10u);
  uint64_t decided = 0;
  ASSERT_TRUE(client.LeaseRead(status.decided, &decided, Seconds(10)));
  EXPECT_GE(decided, status.decided);
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  EXPECT_TRUE(status.is_leader) << "served by s" << client.connected_to();
}

TEST(TcpRuntime, LeaseReadAtAFollowerBouncesWithTheLeaderHint) {
  TcpCluster cluster;
  OmniClient writer(cluster.endpoints());
  ASSERT_TRUE(writer.AppendAndWait(1, 8, Seconds(10)));
  const NodeId leader = writer.connected_to();
  const NodeId follower = SomeFollower(cluster.endpoints(), leader);
  ASSERT_NE(leader, kNoNode);

  RawClient raw(cluster.endpoints().at(follower));
  ASSERT_TRUE(raw.connected());
  rsm::ReadReply reply;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t id = 1; std::chrono::steady_clock::now() < deadline; ++id) {
    reply = raw.LeaseRead(id, 0);
    if (reply.leader_hint == leader) {
      break;  // the follower has learned who leads
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(reply.served);
  EXPECT_EQ(reply.leader_hint, leader);

  // A client that can reach only the follower is bounced, never served.
  OmniClient follower_only(std::map<NodeId, Endpoint>{{follower, cluster.endpoints().at(follower)}});
  EXPECT_FALSE(follower_only.LeaseRead(0, nullptr, Millis(300)));
  EXPECT_GT(follower_only.read_bounces(), 0u);
}

TEST(TcpRuntime, LeaseReadAboveTheDecidedIndexIsBouncedNotServed) {
  TcpCluster cluster;
  OmniClient writer(cluster.endpoints());
  ASSERT_TRUE(writer.AppendAndWait(1, 8, Seconds(10)));
  const NodeId leader = writer.connected_to();
  ASSERT_NE(leader, kNoNode);
  OmniClient::Status status;
  ASSERT_TRUE(writer.GetStatus(&status, Seconds(5)));
  const uint64_t watermark = status.decided + 1'000'000;

  RawClient raw(cluster.endpoints().at(leader));
  ASSERT_TRUE(raw.connected());
  const rsm::ReadReply reply = raw.LeaseRead(1, watermark);
  EXPECT_FALSE(reply.served);
  EXPECT_LT(reply.decided_idx, watermark);
  EXPECT_EQ(reply.leader_hint, leader);

  OmniClient at_leader(std::map<NodeId, Endpoint>{{leader, cluster.endpoints().at(leader)}});
  EXPECT_FALSE(at_leader.LeaseRead(watermark, nullptr, Millis(300)));
  EXPECT_GT(at_leader.read_bounces(), 0u);
}

// --- One session per server pair (DESIGN.md §14) ---------------------------

// Restarts `victim` from its WAL while the other two keep deciding. Every
// link must carry both directions again afterwards: the victim catches up on
// what was decided while it was down, all three decide what is appended once
// it is back, and each end of its links raised the reconnect cue again.
void ExpectRestartResynchronizesBothEnds(NodeId victim) {
  TcpCluster cluster(::testing::TempDir() + "/tcp_link_" + std::to_string(victim) + "_",
                     /*observed=*/true);
  OmniClient client(cluster.endpoints());
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  cluster.StopServer(victim);
  for (uint64_t cmd = 11; cmd <= 20; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  cluster.StartServer(victim);
  for (uint64_t cmd = 21; cmd <= 30; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  for (const auto& [id, endpoint] : cluster.endpoints()) {
    OmniClient direct(std::map<NodeId, Endpoint>{{id, endpoint}});
    OmniClient::Status status;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (!(direct.GetStatus(&status, Seconds(5)) && status.decided >= 30u) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(status.decided, 30u) << "server " << id << " after restarting " << victim;
  }
  cluster.StopAll();
  // Each server started one session per peer; the victim started both again
  // and each survivor one more.
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_GE(cluster.Counter(id, "net.reconnects"), id == victim ? 4u : 3u) << "server " << id;
  }
}

// Node 1 dials both of its links: after its restart it redials them, and the
// survivors adopt the new sessions from its hellos.
TEST(TcpLink, RestartedLowestIdRedialsEveryLink) {
#if !defined(OPX_OBS_ENABLED)
  GTEST_SKIP() << "reads the net.reconnects counter (OPX_OBS=ON)";
#endif
  ExpectRestartResynchronizesBothEnds(1);
}

// Node 3 dials no link: after its restart both survivors redial it.
TEST(TcpLink, RestartedHighestIdIsRedialledByBothPeers) {
#if !defined(OPX_OBS_ENABLED)
  GTEST_SKIP() << "reads the net.reconnects counter (OPX_OBS=ON)";
#endif
  ExpectRestartResynchronizesBothEnds(3);
}


// --- Endpoint lists (--peers, --servers) -------------------------------------

TEST(TcpEndpoints, ParsesAList) {
  std::map<NodeId, Endpoint> eps;
  std::string error;
  ASSERT_TRUE(net::ParseEndpoints("2=127.0.0.1:7002,9=10.0.0.9:65535", &eps, &error)) << error;
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps.at(2).host, "127.0.0.1");
  EXPECT_EQ(eps.at(2).port, 7002);
  EXPECT_EQ(eps.at(9).host, "10.0.0.9");
  EXPECT_EQ(eps.at(9).port, 65535);
}

bool Rejects(const std::string& spec) {
  std::map<NodeId, Endpoint> eps;
  std::string error;
  const bool ok = net::ParseEndpoints(spec, &eps, &error);
  EXPECT_FALSE(ok) << spec;
  EXPECT_FALSE(error.empty()) << spec;
  return !ok;
}

TEST(TcpEndpoints, RejectsNonNumericValues) {
  EXPECT_TRUE(Rejects("1=127.0.0.1:abc"));
  EXPECT_TRUE(Rejects("x=127.0.0.1:7001"));
  EXPECT_TRUE(Rejects("1=127.0.0.1:70a1"));
  EXPECT_TRUE(Rejects("-1=127.0.0.1:7001"));
  EXPECT_TRUE(Rejects("1=127.0.0.1:"));
}

TEST(TcpEndpoints, RejectsPortZeroOrAbove65535) {
  EXPECT_TRUE(Rejects("1=127.0.0.1:0"));
  EXPECT_TRUE(Rejects("2=127.0.0.1:99999"));
  EXPECT_TRUE(Rejects("2=127.0.0.1:65536"));
  EXPECT_TRUE(Rejects("2=127.0.0.1:99999999999999999999"));
}

TEST(TcpEndpoints, RejectsIdZero) { EXPECT_TRUE(Rejects("0=127.0.0.1:7001")); }

TEST(TcpEndpoints, RejectsDuplicateIds) {
  EXPECT_TRUE(Rejects("1=127.0.0.1:7001,1=127.0.0.1:7002"));
}

TEST(TcpEndpoints, RejectsEmptyItems) {
  EXPECT_TRUE(Rejects(""));
  EXPECT_TRUE(Rejects("1=127.0.0.1:7001,"));
  EXPECT_TRUE(Rejects(",1=127.0.0.1:7001"));
  EXPECT_TRUE(Rejects("1=127.0.0.1:7001,,2=127.0.0.1:7002"));
  EXPECT_TRUE(Rejects("1=:7001"));
}

TEST(TcpRuntime, StartCreatesMissingWalParents) {
  const std::string root = ::testing::TempDir() + "/tcp_walparent_" + std::to_string(getpid());
  std::filesystem::remove_all(root);
  ServerOptions options;
  options.id = 1;
  options.wal_dir = root + "/a/b/node1";
  {
    OmniTcpServer server(options);
    ASSERT_TRUE(server.Start()) << server.start_error();
    EXPECT_TRUE(std::filesystem::is_directory(options.wal_dir));
  }
  std::filesystem::remove_all(root);
}

TEST(TcpRuntime, UncreatableWalDirFailsStartInsteadOfAborting) {
  const std::string file = ::testing::TempDir() + "/tcp_walfile_" + std::to_string(getpid());
  std::ofstream(file) << "not a directory";
  ServerOptions options;
  options.id = 1;
  options.wal_dir = file + "/node1";  // its parent is a regular file
  OmniTcpServer server(options);
  EXPECT_FALSE(server.Start());
  EXPECT_NE(server.start_error().find(options.wal_dir), std::string::npos)
      << server.start_error();
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace opx
