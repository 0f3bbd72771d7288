// TCP drivers for rsm::Client, the one client state machine.
//
// ClientSession binds one rsm::Client to one nonblocking socket on an
// EpollLoop and only moves bytes: Advance() sends what the client's Tick()
// returns (dialling the server it chose first), incoming frames become client
// inputs, and a dropped or refused connection is reported back. Where to
// send, when to follow a redirect, when to rotate and re-propose, and which
// watermark a read carries are all decided by rsm::Client.
//
// OmniClient is the blocking API over one session on a private loop: each
// call runs the loop until it is done or its deadline passes, waking as
// frames arrive. bench/loadgen runs N sessions on one shared loop.
#ifndef SRC_NET_OMNI_CLIENT_H_
#define SRC_NET_OMNI_CLIENT_H_

#include <cstdint>
#include <map>

#include "src/net/client_wire.h"
#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/tcp_transport.h"
#include "src/rsm/client.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::net {

class ClientSession {
 public:
  // `params.servers` is the rotation order; each needs an entry in `servers`.
  ClientSession(EpollLoop* loop, std::map<NodeId, Endpoint> servers, rsm::ClientParams params,
                uint64_t first_cmd_id = 1);
  ~ClientSession() { Close(); }

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  // Ticks the client and writes what it returns, dialling its target first.
  // After a redirect or a bounced read the next tick waits for the 1 ms
  // cadence of the previous one (kResendPace): a follower that keeps naming
  // a dead leader is re-proposed to at most once per millisecond, as in
  // ClusterSim, not once per round trip.
  void Advance();
  // Dials the client's target unless a socket is open or a redial is pending.
  void Connect();
  // Closes the socket; the client re-sends its in-flight work on the next.
  void Drop();
  // Queues a status request (0x03); false without an open socket.
  bool RequestStatus();

  // Nanoseconds since construction: the client's time base.
  Time Now() const;
  rsm::Client& client() { return client_; }
  const rsm::Client& client() const { return client_; }
  bool established() const { return fd_ >= 0 && !connecting_; }
  // A redirect or bounced read holds the next tick back until this time.
  Time resend_at() const { return resend_at_; }
  NodeId server() const { return fd_ >= 0 ? server_ : kNoNode; }
  uint64_t reconnects() const { return dials_ == 0 ? 0 : dials_ - 1; }
  // A status request is out and its connection still open.
  bool status_pending() const { return status_pending_; }
  // The reply to the last RequestStatus, or nullptr if none arrived.
  const client_wire::Status* status() const { return status_ready_ ? &status_ : nullptr; }

 private:
  bool Dial(NodeId server);
  void Close();
  void Unreachable(NodeId server);
  void Lost();
  void OnIo(uint32_t bits);
  void HandleFrame(Time now, const uint8_t* data, size_t len);
  void Flush();

  EpollLoop* loop_;
  std::map<NodeId, Endpoint> servers_;
  rsm::Client client_;
  Time epoch_;
  int fd_ = -1;
  NodeId server_ = kNoNode;  // server behind fd_
  bool connecting_ = false;  // nonblocking connect() in flight
  Time redial_at_ = 0;       // backoff after a server refused
  Time last_tick_ = 0;       // when Advance last ticked the client
  Time resend_at_ = 0;       // pacing after a redirect or bounced read
  uint64_t dials_ = 0;
  bool status_pending_ = false;
  bool status_ready_ = false;
  client_wire::Status status_;
  rsm::ResponseBatch response_;  // decode buffer, reused
  FramePool pool_;
  FrameQueue sendq_;
  FrameReader reader_;
};

class OmniClient {
 public:
  using Status = client_wire::Status;

  // `servers` maps node id -> endpoint; the client starts at the lowest id
  // and follows redirects.
  explicit OmniClient(std::map<NodeId, Endpoint> servers);

  // (Re)connects: drops any open connection and dials the current target,
  // rotating past servers that refuse. False if none accepts in time.
  bool Connect(Time deadline = Seconds(5));

  // Appends one command and returns once it is decided. On timeout the
  // command stays outstanding and later calls keep retrying it.
  bool AppendAndWait(uint64_t cmd_id, uint32_t payload_bytes = 8, Time deadline = Seconds(5));

  // Fire-and-forget append; its ack counts in decided_count().
  bool Append(uint64_t cmd_id, uint32_t payload_bytes = 8);

  bool GetStatus(Status* out, Time deadline = Seconds(5));

  // Linearizable leader-lease read (frame 0x06, DESIGN.md §15): returns once
  // a leader holding the lease serves it at a decided index >= `watermark`
  // (and >= any index this client saw before), stored in `*decided_out`.
  bool LeaseRead(uint64_t watermark, uint64_t* decided_out = nullptr, Time deadline = Seconds(5));

  NodeId connected_to() const { return session_.server(); }
  uint64_t decided_count() const { return session_.client().completed(); }
  uint64_t read_bounces() const { return session_.client().reads_bounced(); }

 private:
  template <typename Done>
  bool RunUntil(Done done, Time deadline);

  EpollLoop loop_;
  ClientSession session_;
};

}  // namespace opx::net

#endif  // SRC_NET_OMNI_CLIENT_H_
