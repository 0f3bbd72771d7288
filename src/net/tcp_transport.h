// Real TCP transport for running Omni-Paxos clusters as actual processes.
//
// Topology: every server listens on one port. For each peer, a server keeps
// ONE outbound connection used exclusively for sending protocol messages to
// that peer; inbound connections are receive-only and identified by a hello
// frame. Outbound connections reconnect with backoff; a successful
// (re-)connect after a drop raises the reconnect callback — the same cue the
// paper derives from TCP session re-establishment (§4.1.3).
//
// Framing: [u32 length][payload]. The first frame on any connection is a
// hello (client_wire.h): [u8 kind][u32 id] from a peer server, [u8 kind] from
// a client. Subsequent frames are codec-encoded protocol messages (peers) or
// client API frames (clients; interpreted by the server layer, not here).
//
// Hot path (DESIGN.md §14): readiness comes from an EpollLoop (registered
// interest lists, edge-triggered, timerfd-driven reconnect sweep) instead of
// a per-iteration pollfd rebuild. Sends are DEFERRED: Send/SendToClient only
// enqueue an encoded, refcounted frame (encode-once for broadcasts — see
// SendRepeat) onto the connection's FrameQueue. Flush() is the only code
// that writes to a socket: the owner calls it once per event-loop pass,
// after Poll() and its own protocol pump, and it drains every dirty queue
// with one writev() per connection (more only past kMaxIov frames or after
// a short write). Poll() only waits and dispatches; an EPOLLOUT edge just
// re-marks its connection dirty for that Flush().
//
// Single-threaded: the owner drives everything through Poll(); callbacks run
// on the polling thread. No locks, no hidden threads.
#ifndef SRC_NET_TCP_TRANSPORT_H_
#define SRC_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/client_wire.h"
#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/obs/net_metrics.h"
#include "src/omnipaxos/codec.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::net {

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

// Parses an endpoint list, "1=127.0.0.1:7001,2=10.0.0.2:7002", into `out`.
// An empty item, a non-numeric id or port, id 0 (kNoNode), a port outside
// 1..65535, an empty host or a repeated id fails with the reason in `error`.
bool ParseEndpoints(const std::string& spec, std::map<NodeId, Endpoint>* out,
                    std::string* error);

class TcpTransport {
 public:
  using MessageHandler = std::function<void(NodeId from, omni::OmniMessage msg)>;
  using ReconnectHandler = std::function<void(NodeId peer)>;
  // Raw frame from a client connection (id = transport-local client handle).
  using ClientFrameHandler = std::function<void(uint64_t client, const uint8_t* data, size_t len)>;
  // Runs at the top of every Flush() that has queued bytes, BEFORE anything
  // is written to a socket. The durable server hangs its WAL group commit
  // here: one fdatasync per flush boundary makes every promise/accept
  // persistent before the message carrying it can leave the process
  // (persist-before-send). Flush() is the only write path — Poll() and
  // EPOLLOUT edges never write — so no frame escapes unsynced.
  using FlushHook = std::function<void()>;

  TcpTransport(NodeId self, uint16_t listen_port, std::map<NodeId, Endpoint> peers);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }
  void set_reconnect_handler(ReconnectHandler h) { on_reconnect_ = std::move(h); }
  void set_client_frame_handler(ClientFrameHandler h) { on_client_frame_ = std::move(h); }
  void set_flush_hook(FlushHook h) { flush_hook_ = std::move(h); }

  // Binds + listens and initiates the first round of peer connects.
  // Returns false if the listen socket cannot be created.
  bool Start();

  // The port actually bound (useful with listen_port = 0).
  uint16_t listen_port() const { return listen_port_; }

  // Queues a protocol message to a peer (encoded once, scratch buffer from
  // the frame pool). Messages are dropped if the connection is down (the
  // protocols handle loss via resynchronization). Actual I/O happens at the
  // next Flush().
  void Send(NodeId to, const omni::OmniMessage& msg);

  // Queues the most recently Send()-encoded frame to another peer WITHOUT
  // re-encoding — the broadcast fast path. Valid only when the caller proved
  // the bytes are identical (codec::SameWireBody on the two messages).
  // Returns false when there is no such frame (the previous Send was dropped
  // link-down); the caller falls back to Send().
  bool SendRepeat(NodeId to);

  // Queues a raw frame to a connected client (dropped if it has gone).
  void SendToClient(uint64_t client, const uint8_t* data, size_t len);

  // Waits up to timeout_ms (0 = non-blocking pass; also when frames are
  // already queued) and dispatches handlers inline. Writes nothing: call
  // Flush() afterwards. Reconnect backoff runs off a timerfd inside the same
  // wait.
  void Poll(int timeout_ms);

  // Runs the flush hook, then drains every connection with pending frames
  // via writev(). The owner calls it once per event-loop pass.
  void Flush();

  void Stop();

  bool PeerConnected(NodeId peer) const;

  // The readiness core, exposed so the owning server can hang its own
  // timerfds (election tick) on the same wait.
  EpollLoop& loop() { return loop_; }

  // Points the net.* instruments at `m` (obs registry). No-op when the build
  // has OPX_OBS=OFF; unwired, every update site is a single null check.
  void WireObs(obs::Metrics* m);

 private:
  struct Connection;

  void AcceptNew();
  void StartConnect(NodeId peer);
  void OnIo(Connection& conn, uint32_t bits);
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void CloseConnection(Connection& conn);
  void OnFrame(Connection& conn, const uint8_t* data, size_t len);
  void FlushConn(Connection& conn);
  void MarkDirty(Connection& conn);
  void ReconnectSweep();

  NodeId self_;
  uint16_t listen_port_;
  std::map<NodeId, Endpoint> peers_;
  int listen_fd_ = -1;
  int reconnect_timer_ = -1;

  EpollLoop loop_;
  FramePool pool_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<NodeId, Connection*> outbound_;  // per-peer send connection
  std::vector<Connection*> dirty_;          // queues touched since last Flush
  FrameRef last_sent_;                      // SendRepeat's share source
  int64_t next_client_id_ = 1;

  obs::NetMetrics met_;  // null instruments until WireObs

  MessageHandler on_message_;
  ReconnectHandler on_reconnect_;
  ClientFrameHandler on_client_frame_;
  FlushHook flush_hook_;
};

}  // namespace opx::net

#endif  // SRC_NET_TCP_TRANSPORT_H_
