// Unit + integration tests for the net hot path (DESIGN.md §14): framing
// building blocks (FrameQueue/FrameReader partial-I/O resumption), the epoll
// readiness core, and a 64-connection multiplexing run against a real
// three-server loopback cluster. Suite names contain "Tcp" so the TSan smoke
// filter (*Tcp*) picks them up.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client_wire.h"
#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/net/tcp_transport.h"
#include "tests/loopback_ports.h"

namespace opx {
namespace {

using net::EpollLoop;
using net::Endpoint;
using net::FramePool;
using net::FrameQueue;
using net::FrameReader;
using net::FrameRef;
using net::OmniClient;
using net::OmniTcpServer;
using net::ServerOptions;
using net::TcpTransport;
using net::WireFrame;

// Builds a [u32 length][payload] frame whose payload is `n` bytes of `fill`.
FrameRef MakeFrame(FramePool* pool, size_t n, uint8_t fill) {
  FrameRef f = pool->Acquire();
  f->bytes.resize(4);
  f->bytes.insert(f->bytes.end(), n, fill);
  net::PatchFrameLength(&f->bytes, 0);
  return f;
}

// --- FrameQueue: writev building + partial-write resumption ---------------

TEST(TcpFrameQueue, BuildIovecsCoversQueuedFramesInOrder) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 10, 0xAA));
  q.Push(MakeFrame(&pool, 20, 0xBB));
  q.Push(MakeFrame(&pool, 30, 0xCC));
  EXPECT_EQ(q.frames(), 3u);
  EXPECT_EQ(q.bytes(), (4u + 10) + (4 + 20) + (4 + 30));

  struct iovec iov[8];
  const size_t n = q.BuildIovecs(iov, 8);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(iov[0].iov_len, 14u);
  EXPECT_EQ(iov[1].iov_len, 24u);
  EXPECT_EQ(iov[2].iov_len, 34u);
  // max_iov caps the batch without losing frames.
  EXPECT_EQ(q.BuildIovecs(iov, 2), 2u);
}

TEST(TcpFrameQueue, PartialConsumeResumesMidFrame) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 10, 0xAA));  // 14 bytes on the wire
  q.Push(MakeFrame(&pool, 10, 0xBB));  // 14 bytes

  // Kernel accepted the first frame and 5 bytes of the second.
  q.Consume(14 + 5, &pool);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(q.bytes(), 9u);

  struct iovec iov[4];
  ASSERT_EQ(q.BuildIovecs(iov, 4), 1u);
  EXPECT_EQ(iov[0].iov_len, 9u);  // resumes at the offset, not the frame start
  const auto* base = static_cast<const uint8_t*>(iov[0].iov_base);
  EXPECT_EQ(base[0], 0xBB);  // 5 bytes in: past the header, into the payload

  // A second short write inside the SAME frame advances the offset again.
  q.Consume(3, &pool);
  ASSERT_EQ(q.BuildIovecs(iov, 4), 1u);
  EXPECT_EQ(iov[0].iov_len, 6u);

  q.Consume(6, &pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(TcpFrameQueue, ConsumeAcrossSeveralFrameBoundaries) {
  FramePool pool;
  FrameQueue q;
  for (int i = 0; i < 4; ++i) {
    q.Push(MakeFrame(&pool, 6, static_cast<uint8_t>(i)));  // 10 bytes each
  }
  // One writev return spanning frames 0, 1, 2 and one byte of frame 3.
  q.Consume(31, &pool);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(q.bytes(), 9u);
  // The three fully-sent (sole-reference) frames were recycled.
  EXPECT_EQ(pool.pooled(), 3u);
}

TEST(TcpFrameQueue, SharedBroadcastFrameIsPooledOnlyByLastQueue) {
  FramePool pool;
  FrameQueue a;
  FrameQueue b;
  FrameRef shared = MakeFrame(&pool, 8, 0xEE);
  a.Push(shared);
  b.Push(shared);
  shared = nullptr;  // queues hold the only references now

  a.Consume(12, &pool);
  EXPECT_EQ(pool.pooled(), 0u);  // b still holds a reference
  b.Consume(12, &pool);
  EXPECT_EQ(pool.pooled(), 1u);  // last owner recycles it
}

TEST(TcpFrameQueue, ClearRecyclesEverything) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 5, 0x01));
  q.Push(MakeFrame(&pool, 5, 0x02));
  q.Clear(&pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(pool.pooled(), 2u);
  // A cleared queue rebuilds from a zero offset.
  q.Push(MakeFrame(&pool, 5, 0x03));
  struct iovec iov[1];
  ASSERT_EQ(q.BuildIovecs(iov, 1), 1u);
  EXPECT_EQ(iov[0].iov_len, 9u);
}

// --- FrameReader: short reads, including mid-length-header splits ---------

std::vector<uint8_t> EncodedFrame(const std::string& payload) {
  std::vector<uint8_t> out(4 + payload.size());
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  net::PatchFrameLength(&out, 0);
  return out;
}

TEST(TcpFrameReader, ByteAtATimeSplitsTheLengthHeader) {
  FrameReader reader;
  std::vector<std::string> got;
  const std::vector<uint8_t> wire = EncodedFrame("hello");
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(reader.Feed(&wire[i], 1, [&](const uint8_t* d, size_t n) {
      got.emplace_back(reinterpret_cast<const char*>(d), n);
      return true;
    }));
    // Nothing fires until the very last byte arrives.
    EXPECT_EQ(got.size(), i + 1 == wire.size() ? 1u : 0u);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(TcpFrameReader, ChunkBoundaryInsideSecondLengthHeader) {
  FrameReader reader;
  std::vector<std::string> got;
  std::vector<uint8_t> wire = EncodedFrame("first");
  const std::vector<uint8_t> second = EncodedFrame("second!");
  wire.insert(wire.end(), second.begin(), second.end());

  // Split two bytes into the second frame's length field.
  const size_t cut = 4 + 5 + 2;
  auto sink = [&](const uint8_t* d, size_t n) {
    got.emplace_back(reinterpret_cast<const char*>(d), n);
    return true;
  };
  ASSERT_TRUE(reader.Feed(wire.data(), cut, sink));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(reader.buffered(), 2u);  // half a length header retained

  ASSERT_TRUE(reader.Feed(wire.data() + cut, wire.size() - cut, sink));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "second!");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(TcpFrameReader, ManyFramesInOneFeed) {
  FrameReader reader;
  std::vector<uint8_t> wire;
  for (int i = 0; i < 50; ++i) {
    const std::vector<uint8_t> f = EncodedFrame("msg" + std::to_string(i));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  int count = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 50);
}

TEST(TcpFrameReader, OversizedLengthIsRejected) {
  FrameReader reader;
  uint8_t bad[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB, over kMaxFrameBytes
  EXPECT_FALSE(reader.Feed(bad, sizeof(bad), [](const uint8_t*, size_t) {
    ADD_FAILURE() << "no frame should fire";
    return true;
  }));
}

TEST(TcpFrameReader, ConfigurableMaxRejectsOverBudgetFrame) {
  // A client-facing listener can run a much tighter budget than peers.
  FrameReader tight(16);
  EXPECT_EQ(tight.max_frame_bytes(), 16u);
  const std::vector<uint8_t> wire = EncodedFrame(std::string(17, 'x'));
  EXPECT_FALSE(tight.Feed(wire.data(), wire.size(), [](const uint8_t*, size_t) {
    ADD_FAILURE() << "over-budget frame must not fire";
    return true;
  }));
}

TEST(TcpFrameReader, ConfigurableMaxAcceptsFrameAtTheBound) {
  FrameReader reader(16);
  const std::vector<uint8_t> wire = EncodedFrame(std::string(16, 'x'));
  int fired = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t n) {
    ++fired;
    EXPECT_EQ(n, 16u);
    return true;
  }));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reader.buffered(), 0u);

  // The default-constructed reader still enforces the transport-wide bound.
  FrameReader dflt;
  EXPECT_EQ(dflt.max_frame_bytes(), net::kMaxFrameBytes);
}

TEST(TcpFrameReader, OnFrameMayClearTheReaderMidBatch) {
  // A connection teardown inside on_frame Clear()s the reader while Feed is
  // still iterating; the loop must survive the buffer shrinking under it.
  FrameReader reader;
  std::vector<uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    const std::vector<uint8_t> f = EncodedFrame("x");
    wire.insert(wire.end(), f.begin(), f.end());
  }
  int fired = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t) {
    ++fired;
    reader.Clear();
    return false;  // connection is gone; stop extraction
  }));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reader.buffered(), 0u);
}

// --- EpollLoop: edge-triggered readiness over real fds --------------------

class TcpEpollLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv_), 0);
  }
  void TearDown() override {
    if (sv_[0] >= 0) close(sv_[0]);
    if (sv_[1] >= 0) close(sv_[1]);
  }

  // Drains `fd` to EAGAIN, returning the bytes read.
  static size_t DrainFd(int fd) {
    size_t total = 0;
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      total += static_cast<size_t>(n);
    }
    return total;
  }

  int sv_[2] = {-1, -1};
};

TEST_F(TcpEpollLoopTest, EdgeTriggeredReadFiresPerBurst) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  size_t received = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kReadable) {
      received += DrainFd(sv_[0]);
    }
  }));
  ASSERT_EQ(write(sv_[1], "abcde", 5), 5);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(received, 5u);

  // Drained to EAGAIN, so a fresh write produces a fresh edge.
  ASSERT_EQ(write(sv_[1], "xyz", 3), 3);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(received, 8u);
  loop.Remove(sv_[0]);
  EXPECT_EQ(loop.watched(), 0u);
}

TEST_F(TcpEpollLoopTest, WritableEdgeAfterSendBufferDrains) {
  // Shrink the send buffer, fill it to EAGAIN, then free space on the peer
  // side: the loop must deliver a kWritable edge — the EAGAIN-resume contract
  // the transport's FlushConn relies on.
  const int small = 4096;
  setsockopt(sv_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  std::vector<char> chunk(4096, 'z');
  size_t filled = 0;
  while (true) {
    const ssize_t n = write(sv_[0], chunk.data(), chunk.size());
    if (n < 0) {
      ASSERT_EQ(errno, EAGAIN);
      break;
    }
    filled += static_cast<size_t>(n);
  }
  ASSERT_GT(filled, 0u);

  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int writable_edges = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kWritable) {
      ++writable_edges;
    }
  }));
  // Buffer is full: no writable edge yet.
  loop.Wait(0);
  EXPECT_EQ(writable_edges, 0);

  // The reader consumes everything; writability transitions.
  EXPECT_EQ(DrainFd(sv_[1]), filled);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(writable_edges, 1);
}

TEST_F(TcpEpollLoopTest, HandlerMayRemoveItsOwnFd) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int fires = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kReadable) {
      ++fires;
      DrainFd(sv_[0]);
      loop.Remove(sv_[0]);  // closure must stay alive through this
    }
  }));
  ASSERT_EQ(write(sv_[1], "q", 1), 1);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(loop.watched(), 0u);
  // Further traffic reaches nobody.
  ASSERT_EQ(write(sv_[1], "q", 1), 1);
  loop.Wait(50);
  EXPECT_EQ(fires, 1);
}

TEST_F(TcpEpollLoopTest, TimerFiresAndCoalescesMissedPeriods) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int ticks = 0;
  const int timer = loop.AddTimer(Millis(10), [&] { ++ticks; });
  ASSERT_GE(timer, 0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ticks < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.Wait(100);
  }
  EXPECT_GE(ticks, 2);

  // Sleep through several periods without waiting: they coalesce into one
  // dispatch on the next Wait, not a burst of catch-up ticks.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const int before = ticks;
  loop.Wait(100);
  EXPECT_EQ(ticks, before + 1);

  loop.CancelTimer(timer);
  EXPECT_EQ(loop.watched(), 0u);
}

// --- Persist-before-send: Flush() is the only write path ------------------

// A blocking loopback client of `port` that has sent its client hello.
int ConnectClient(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const uint8_t hello[5] = {1, 0, 0, 0, net::kHelloClient};
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      write(fd, hello, sizeof(hello)) != static_cast<ssize_t>(sizeof(hello))) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendByte(int fd, uint8_t b) {
  const uint8_t frame[5] = {1, 0, 0, 0, b};
  return write(fd, frame, sizeof(frame)) == static_cast<ssize_t>(sizeof(frame));
}

TEST(TcpPersistBeforeSend, NoFrameLeavesBeforeTheFlushHook) {
  // Two clients send in the same epoll pass and each one's frame queues a
  // reply to the OTHER client. Whichever is dispatched second carries
  // EPOLLOUT too (its socket is writable); a transport that writes from the
  // writable edge would put the first reply on the wire before the flush
  // hook — the durable server's WAL sync — has run.
  TcpTransport t(1, 0, {});
  ASSERT_TRUE(t.Start());
  const int fds[2] = {ConnectClient(t.listen_port()), ConnectClient(t.listen_port())};
  ASSERT_GE(fds[0], 0);
  ASSERT_GE(fds[1], 0);

  // Registration: each client names itself ('0' / '1') so the handler can
  // map the transport's client handles to the test's sockets.
  uint64_t handle[2] = {0, 0};
  int replies_due = 0;
  t.set_client_frame_handler([&](uint64_t client, const uint8_t* data, size_t len) {
    ASSERT_EQ(len, 1u);
    if (data[0] == '0' || data[0] == '1') {
      handle[data[0] - '0'] = client;
      return;
    }
    const uint64_t other = client == handle[0] ? handle[1] : handle[0];
    const uint8_t reply = 'r';
    t.SendToClient(other, &reply, 1);
    ++replies_due;
  });
  ASSERT_TRUE(SendByte(fds[0], '0'));
  ASSERT_TRUE(SendByte(fds[1], '1'));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((handle[0] == 0 || handle[1] == 0) && std::chrono::steady_clock::now() < deadline) {
    t.Poll(10);
    t.Flush();
  }
  ASSERT_NE(handle[0], 0u);
  ASSERT_NE(handle[1], 0u);

  int hook_runs = 0;
  bool leaked = false;
  t.set_flush_hook([&] {
    ++hook_runs;
    for (int fd : fds) {
      uint8_t b = 0;
      if (recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT) > 0) {
        leaked = true;
      }
    }
  });
  ASSERT_TRUE(SendByte(fds[0], 'x'));
  ASSERT_TRUE(SendByte(fds[1], 'x'));
  // Both frames are in the server's receive queues before the one pass runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  t.Poll(1000);
  t.Flush();
  ASSERT_EQ(replies_due, 2) << "both frames must be handled in one pass";
  EXPECT_EQ(hook_runs, 1);
  EXPECT_FALSE(leaked) << "a reply reached its client before the flush hook ran";

  // After the flush both replies arrive.
  for (int fd : fds) {
    uint8_t got[5] = {};
    ASSERT_EQ(read(fd, got, sizeof(got)), 5);
    EXPECT_EQ(got[4], 'r');
    close(fd);
  }
}

// --- 64-connection multiplexing against a real loopback cluster -----------

TEST(TcpManyClients, SixtyFourConcurrentConnectionsReplicate) {
  // Three servers on loopback, each on its own thread. A random port block
  // per attempt; a collision with a parallel test retries on a fresh one.
  std::map<NodeId, Endpoint> endpoints;
  struct Slot {
    std::unique_ptr<OmniTcpServer> server;
    std::thread thread;
    std::atomic<bool> stop{false};
  };
  Slot slots[4];
  bool started = false;
  for (int attempt = 0; attempt < loopback::kPortAttempts && !started; ++attempt) {
    const uint16_t base = loopback::RandomPortBase();
    for (NodeId id = 1; id <= 3; ++id) {
      endpoints[id] = Endpoint{"127.0.0.1", static_cast<uint16_t>(base + id)};
    }
    started = true;
    for (NodeId id = 1; id <= 3 && started; ++id) {
      ServerOptions options;
      options.id = id;
      options.listen_port = endpoints[id].port;
      options.election_timeout = Millis(30);
      options.ble_priority = id == 1 ? 1 : 0;
      options.peers = endpoints;
      options.peers.erase(id);
      auto& slot = slots[static_cast<size_t>(id)];
      slot.server = std::make_unique<OmniTcpServer>(options);
      started = slot.server->Start();
    }
    if (!started) {
      for (Slot& slot : slots) {
        slot.server = nullptr;
      }
    }
  }
  ASSERT_TRUE(started) << "no free loopback port block";
  for (NodeId id = 1; id <= 3; ++id) {
    auto& slot = slots[static_cast<size_t>(id)];
    slot.thread = std::thread([&slot] { slot.server->Run(slot.stop); });
  }

  constexpr int kClients = 64;
  {
    // All 64 clients connect and STAY connected — the servers' transports
    // multiplex every socket in one epoll set — then each appends twice.
    std::vector<std::unique_ptr<OmniClient>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<OmniClient>(endpoints));
      ASSERT_TRUE(clients.back()->Connect(Seconds(10))) << "client " << i;
    }
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < kClients; ++i) {
        const uint64_t cmd = static_cast<uint64_t>(round * kClients + i + 1);
        ASSERT_TRUE(clients[i]->AppendAndWait(cmd, 8, Seconds(10)))
            << "client " << i << " round " << round;
      }
    }
    OmniClient::Status status;
    ASSERT_TRUE(clients[0]->GetStatus(&status, Seconds(5)));
    EXPECT_GE(status.decided, static_cast<uint64_t>(2 * kClients));
  }

  for (NodeId id = 1; id <= 3; ++id) {
    auto& slot = slots[static_cast<size_t>(id)];
    slot.stop.store(true);
    slot.thread.join();
  }
}

// --- Client frames: one layout, strict decoders ----------------------------

template <typename Decode>
void ExpectEveryTruncationRejected(const std::vector<uint8_t>& frame, Decode decode) {
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode(frame.data(), len)) << "length " << len << " of " << frame.size();
  }
}

// Every frame type survives encode -> decode with its documented size (the
// bytes on the wire), and its decoder rejects every truncated length.
TEST(ClientWire, RoundTripRejectsEveryTruncatedLength) {
  namespace wire = net::client_wire;
  std::vector<uint8_t> f;

  uint8_t kind = 0;
  NodeId peer = kNoNode;
  auto decode_hello = [&](const uint8_t* d, size_t n) {
    return wire::DecodeHello(d, n, &kind, &peer);
  };
  wire::EncodeHello(net::kHelloPeer, 7, &f);
  ASSERT_EQ(f.size(), 5u);
  ASSERT_TRUE(decode_hello(f.data(), f.size()));
  EXPECT_EQ(kind, net::kHelloPeer);
  EXPECT_EQ(peer, 7);
  ExpectEveryTruncationRejected(f, decode_hello);
  f.clear();
  wire::EncodeHello(net::kHelloClient, kNoNode, &f);
  ASSERT_EQ(f, std::vector<uint8_t>{net::kHelloClient});
  ASSERT_TRUE(decode_hello(f.data(), f.size()));
  EXPECT_EQ(kind, net::kHelloClient);
  ExpectEveryTruncationRejected(f, decode_hello);

  f.clear();
  wire::EncodeAppend(0x1122334455667788ULL, 64, &f);
  ASSERT_EQ(f.size(), 13u);
  EXPECT_EQ(f[0], 0x01);
  EXPECT_EQ(f[1], 0x88);  // little-endian
  uint64_t cmd_id = 0;
  uint32_t payload_bytes = 0;
  auto decode_append = [&](const uint8_t* d, size_t n) {
    return wire::DecodeAppend(d, n, &cmd_id, &payload_bytes);
  };
  ASSERT_TRUE(decode_append(f.data(), f.size()));
  EXPECT_EQ(cmd_id, 0x1122334455667788ULL);
  EXPECT_EQ(payload_bytes, 64u);
  ExpectEveryTruncationRejected(f, decode_append);

  f.clear();
  const std::vector<uint64_t> ids{1, 2, 0xFFFFFFFFFFULL};
  wire::EncodeDecided(ids, &f);
  ASSERT_EQ(f.size(), 5u + 8 * ids.size());
  std::vector<uint64_t> got;
  ASSERT_TRUE(wire::DecodeDecided(f.data(), f.size(), &got));
  EXPECT_EQ(got, ids);
  ExpectEveryTruncationRejected(f, [&](const uint8_t* d, size_t n) { return wire::DecodeDecided(d, n, &got); });

  f.clear();
  wire::EncodeStatusRequest(&f);
  ASSERT_EQ(f, std::vector<uint8_t>{0x03});
  EXPECT_EQ(wire::OpOf(f.data(), 0), 0);

  f.clear();
  wire::EncodeStatus({3, 100, 120, true, 50}, &f);
  ASSERT_EQ(f.size(), 30u);
  wire::Status status;
  ASSERT_TRUE(wire::DecodeStatus(f.data(), f.size(), &status));
  EXPECT_EQ(status.leader, 3);
  EXPECT_EQ(status.decided, 100u);
  EXPECT_EQ(status.log_len, 120u);
  EXPECT_TRUE(status.is_leader);
  EXPECT_EQ(status.compacted, 50u);
  ExpectEveryTruncationRejected(f, [&](const uint8_t* d, size_t n) { return wire::DecodeStatus(d, n, &status); });

  f.clear();
  wire::EncodeRedirect(2, &f);
  ASSERT_EQ(f.size(), 5u);
  NodeId leader = kNoNode;
  ASSERT_TRUE(wire::DecodeRedirect(f.data(), f.size(), &leader));
  EXPECT_EQ(leader, 2);
  ExpectEveryTruncationRejected(f, [&](const uint8_t* d, size_t n) { return wire::DecodeRedirect(d, n, &leader); });

  f.clear();
  wire::EncodeRead({9, 77}, &f);
  ASSERT_EQ(f.size(), 17u);
  rsm::ReadRequest read;
  ASSERT_TRUE(wire::DecodeRead(f.data(), f.size(), &read));
  EXPECT_EQ(read.read_id, 9u);
  EXPECT_EQ(read.watermark, 77u);
  ExpectEveryTruncationRejected(f, [&](const uint8_t* d, size_t n) { return wire::DecodeRead(d, n, &read); });
  // A decoder refuses another frame type's bytes.
  EXPECT_FALSE(decode_append(f.data(), f.size()));

  f.clear();
  wire::EncodeReadReply({9, 80, true, 3}, &f);
  ASSERT_EQ(f.size(), 22u);
  rsm::ReadReply reply;
  ASSERT_TRUE(wire::DecodeReadReply(f.data(), f.size(), &reply));
  EXPECT_EQ(reply.read_id, 9u);
  EXPECT_EQ(reply.decided_idx, 80u);
  EXPECT_TRUE(reply.served);
  EXPECT_EQ(reply.leader_hint, 3);
  ExpectEveryTruncationRejected(f, [&](const uint8_t* d, size_t n) { return wire::DecodeReadReply(d, n, &reply); });
}

// --- Client hardening against a hostile frame header ----------------------

// Regression for the ReadFrame length-wrap bug: a server advertising
// len = 0xFFFFFFFF made the old `read_buf_.size() >= 4 + len` comparison
// wrap to `>= 3` in uint32, so assign() read ~4 GiB past the buffer. The
// fixed client treats any length above kMaxFrameBytes as a protocol
// violation and disconnects. (No "Tcp" in the suite name: this test is not
// part of the TSan smoke filter.)
TEST(ClientWire, PoisonedLengthHeaderDisconnectsInsteadOfWrapping) {
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: never collides with a parallel test
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread evil([listen_fd] {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    uint8_t drain[256];
    (void)!read(fd, drain, sizeof(drain));  // client hello
    const uint8_t poison[8] = {0xFF, 0xFF, 0xFF, 0xFF, 'b', 'o', 'o', 'm'};
    (void)!write(fd, poison, sizeof(poison));
    uint8_t b = 0;
    while (read(fd, &b, 1) > 0) {  // hold the socket until the client drops it
    }
    close(fd);
  });

  std::map<NodeId, Endpoint> endpoints{{1, Endpoint{"127.0.0.1", port}}};
  OmniClient client(endpoints);
  ASSERT_TRUE(client.Connect(Seconds(5)));
  OmniClient::Status status;
  EXPECT_FALSE(client.GetStatus(&status, Seconds(5)));

  close(listen_fd);
  evil.join();
}

}  // namespace
}  // namespace opx
