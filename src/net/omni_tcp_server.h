// A complete Omni-Paxos server over real TCP: protocol state machine +
// durable WAL storage + transport + a small client API, driven by one
// single-threaded event loop. This is what `tools/omni_node` runs, and what
// a downstream user embeds to deploy an actual cluster.
//
// Client API: the frames of client_wire.h over the same listen port, after a
// kHelloClient hello — append (0x01), decided batch (0x02), status (0x03/0x04),
// redirect (0x05) and lease read (0x06/0x07).
//
// Append requests are admitted into the proposal queue as they arrive but
// flushed into accepts once per event-loop pass (StepOnce's Pump) — request
// batching: a burst of appends becomes one <AcceptDecide> fan-out. Lease
// reads (0x06) are served locally, with no log append, when this server
// leads AND still holds the BLE quorum-connectivity lease AND its decided
// index covers the client's read-your-writes watermark (DESIGN.md §15).
//
// A decided id goes only to the connection that appended it on this leader
// (the latest one, if re-appended); other clients and followers' clients see
// no 0x02 frame for it. Ids outstanding when this server stops leading are
// never pushed: the client retries on silence.
#ifndef SRC_NET_OMNI_TCP_SERVER_H_
#define SRC_NET_OMNI_TCP_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/tcp_transport.h"
#include "src/obs/trace.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/omnipaxos/omni_paxos.h"

namespace opx::net {

struct ServerOptions {
  NodeId id = kNoNode;
  uint16_t listen_port = 0;  // 0 = ephemeral
  std::map<NodeId, Endpoint> peers;
  // WAL directory (segmented group-commit log, DESIGN.md §17); empty =
  // volatile in-memory storage. With a WAL the transport's flush hook issues
  // one fdatasync per event-loop flush, so every promise/accept is durable
  // before the message carrying it leaves the process.
  std::string wal_dir;
  wal::WalOptions wal_options;  // segment size + group-commit thresholds
  Time election_timeout = Millis(100);
  uint32_t ble_priority = 0;
  // Leader-side cap on proposals moved into the log per flush; 0 = unlimited
  // (one flush per event-loop pass is already a batch).
  uint64_t batch_limit = 0;
  // Automatic log-compaction watermark in entries (0 = never trim). With a
  // WAL, trims are journaled and survive recovery (DESIGN.md §15).
  uint64_t trim_watermark = 0;
  // BLE lease length in heartbeat rounds for local reads; 0 disables the
  // lease (0x06 requests are then always bounced).
  uint64_t lease_rounds = 1;
  // Optional observability sink: wires the transport's net.* instruments
  // (bytes/frames in+out, writev batch histograms, reconnects). Never
  // affects protocol behavior; must outlive the server.
  obs::ObsSink* obs = nullptr;
};

class OmniTcpServer {
 public:
  explicit OmniTcpServer(ServerOptions options);
  ~OmniTcpServer();

  OmniTcpServer(const OmniTcpServer&) = delete;
  OmniTcpServer& operator=(const OmniTcpServer&) = delete;

  // Opens (or recovers) storage and starts listening. False, with the reason
  // in start_error(), when the WAL directory cannot be created or the port
  // cannot be bound.
  bool Start();
  const std::string& start_error() const { return start_error_; }

  // Runs the event loop until `stop` becomes true.
  void Run(const std::atomic<bool>& stop);

  // One loop iteration: one epoll pass (≤ timeout_ms; election ticks fire
  // from a timerfd inside the same wait) handling all ready input, then one
  // Pump (protocol output + decided pushes) and one Flush.
  void StepOnce(int timeout_ms);

  uint16_t listen_port() const { return transport_->listen_port(); }
  bool IsLeader() const { return node_->IsLeader(); }
  NodeId leader_hint() const { return node_->leader_hint(); }
  LogIndex decided_idx() const { return node_->decided_idx(); }

 private:
  void OnPeerMessage(NodeId from, omni::OmniMessage msg);
  void OnClientFrame(uint64_t client, const uint8_t* data, size_t len);
  void Pump();

  ServerOptions options_;
  std::unique_ptr<omni::Storage> storage_;
  omni::DurableStorage* durable_ = nullptr;  // storage_ downcast when WAL-backed
  std::unique_ptr<omni::OmniPaxos> node_;
  std::unique_ptr<TcpTransport> transport_;
  // cmd_id -> proposing client, filled on append while leading, erased when
  // the id is pushed, cleared once this server no longer leads.
  std::unordered_map<uint64_t, uint64_t> proposers_;
  // Pump's per-client decided ids under construction, reused across passes.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> replies_;
  std::vector<uint8_t> scratch_;  // one client frame being encoded
  LogIndex pushed_ = 0;   // decided entries already pushed to clients
  int tick_timer_ = -1;   // election timerfd inside the transport's loop
  std::string start_error_;
#if defined(OPX_OBS_ENABLED)
  obs::Counter* lease_reads_ctr_ = nullptr;
#endif
};

}  // namespace opx::net

#endif  // SRC_NET_OMNI_TCP_SERVER_H_
