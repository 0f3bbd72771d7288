// Integration tests for the real TCP runtime: three OmniTcpServer instances
// on localhost sockets (each on its own thread), driven by OmniClient —
// replication, leader redirect, crash + WAL recovery, all over actual TCP.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
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
class TcpCluster {
 public:
  explicit TcpCluster(const std::string& wal_prefix = "") {
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

  const std::map<NodeId, Endpoint>& endpoints() const { return endpoints_; }

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

  void StopAll() {
    for (NodeId id = 1; id <= 3; ++id) {
      StopServer(id);
    }
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
  // Connect specifically to a follower and append: the redirect + retry path
  // must still decide the command.
  NodeId follower = kNoNode;
  for (const auto& [id, endpoint] : cluster.endpoints()) {
    if (id != status.leader) {
      follower = id;
      break;
    }
  }
  std::map<NodeId, Endpoint> all = cluster.endpoints();
  OmniClient client(all);
  ASSERT_TRUE(client.Connect(Seconds(5)));
  EXPECT_TRUE(client.AppendAndWait(777, 8, Seconds(10)));
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
