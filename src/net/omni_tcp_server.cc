#include "src/net/omni_tcp_server.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace opx::net {
OmniTcpServer::OmniTcpServer(ServerOptions options) : options_(std::move(options)) {
  OPX_CHECK_NE(options_.id, kNoNode);
}

OmniTcpServer::~OmniTcpServer() = default;

bool OmniTcpServer::Start() {
  bool recovered = false;
  if (options_.wal_dir.empty()) {
    storage_ = std::make_unique<omni::Storage>();
  } else {
    // Missing parents are created (--wal-dir=/fresh/tree/node1); a path that
    // cannot become a directory fails Start() instead of aborting in the WAL.
    std::error_code ec;
    std::filesystem::create_directories(options_.wal_dir, ec);
    if (ec) {
      start_error_ = "cannot create WAL directory " + options_.wal_dir + ": " + ec.message();
      OPX_ELOG << "server " << options_.id << ": " << start_error_;
      return false;
    }
    std::string error;
    auto from_disk = omni::DurableStorage::Recover(wal::PosixEnv(), options_.wal_dir,
                                                   options_.wal_options, &error);
    // Corruption is not "nothing to recover": re-creating over an unreadable
    // journal would silently discard acknowledged state.
    OPX_CHECK(error.empty()) << "server " << options_.id << ": WAL in "
                             << options_.wal_dir << " is corrupt: " << error;
    if (from_disk != nullptr) {
      recovered = true;
      durable_ = from_disk.get();
      storage_ = std::move(from_disk);
      OPX_ILOG << "server " << options_.id << ": recovered WAL, log_len="
               << storage_->log_len() << " decided=" << storage_->decided_idx();
    } else {
      auto fresh = omni::DurableStorage::Create(wal::PosixEnv(), options_.wal_dir,
                                                options_.wal_options);
      durable_ = fresh.get();
      storage_ = std::move(fresh);
    }
  }

  omni::OmniConfig cfg;
  cfg.pid = options_.id;
  for (const auto& [peer, endpoint] : options_.peers) {
    cfg.peers.push_back(peer);
  }
  cfg.ble_priority = options_.ble_priority;
  cfg.batch_limit = options_.batch_limit;
  cfg.trim_watermark = options_.trim_watermark;
  cfg.lease_rounds = options_.lease_rounds;
  cfg.obs = options_.obs;
  node_ = std::make_unique<omni::OmniPaxos>(cfg, storage_.get(), recovered);
  pushed_ = storage_->decided_idx();

  transport_ = std::make_unique<TcpTransport>(options_.id, options_.listen_port,
                                              options_.peers);
  // Peer input and reconnect cues only feed the protocol; their output
  // leaves with the pass's single Pump (StepOnce).
  transport_->set_message_handler(
      [this](NodeId from, omni::OmniMessage msg) { OnPeerMessage(from, std::move(msg)); });
  transport_->set_reconnect_handler([this](NodeId peer) { node_->Reconnected(peer); });
  transport_->set_client_frame_handler(
      [this](uint64_t client, const uint8_t* data, size_t len) {
        OnClientFrame(client, data, len);
      });
  if (durable_ != nullptr) {
    // Persist-before-send: the WAL group commit rides the transport's flush
    // boundary, so one fdatasync covers every mutation of this event-loop
    // pass before any promise/accept/decide leaves the process. A dead disk
    // must halt the server rather than let it keep voting from memory.
    transport_->set_flush_hook([this] {
      OPX_CHECK(durable_->Sync()) << "server " << options_.id
                                  << ": WAL group commit failed: " << durable_->wal_error();
    });
  }
  if (options_.obs != nullptr) {
    transport_->WireObs(&options_.obs->metrics());
#if defined(OPX_OBS_ENABLED)
    lease_reads_ctr_ = options_.obs->metrics().GetCounter("srv/lease_reads");
#endif
  }
  if (!transport_->Start()) {
    start_error_ = "cannot listen on port " + std::to_string(options_.listen_port);
    return false;
  }
  // Election ticks ride a timerfd in the transport's epoll wait; missed
  // periods coalesce into one firing (the old loop's catch-up reset).
  tick_timer_ = transport_->loop().AddTimer(options_.election_timeout, [this] {
    // Push already-decided entries to clients before the tick: TickElection
    // may auto-trim up to the decided index, and a trimmed entry can no
    // longer be read back for the 0x02 batch. The tick's own output leaves
    // with StepOnce's Pump.
    Pump();
    node_->TickElection();
  });
  return tick_timer_ >= 0;
}

void OmniTcpServer::StepOnce(int timeout_ms) {
  // The tick timerfd interrupts the wait, so the full timeout is available.
  // One pass: handle all ready input, pump the protocol once, write once —
  // Flush() runs the WAL hook before any byte leaves.
  transport_->Poll(timeout_ms);
  Pump();
  transport_->Flush();
}

void OmniTcpServer::Run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    StepOnce(20);
  }
}

void OmniTcpServer::OnPeerMessage(NodeId from, omni::OmniMessage msg) {
  node_->Handle(from, std::move(msg));
}

void OmniTcpServer::OnClientFrame(uint64_t client, const uint8_t* data, size_t len) {
  namespace wire = client_wire;
  scratch_.clear();
  switch (wire::OpOf(data, len)) {
    case wire::kAppend: {
      uint64_t cmd_id = 0;
      uint32_t payload_bytes = 0;
      if (!wire::DecodeAppend(data, len, &cmd_id, &payload_bytes)) {
        return;
      }
      if (node_->IsLeader()) {
        // No Pump here: appends admitted during this epoll pass flush
        // together in StepOnce's post-Poll Pump — request batching turns an
        // append burst into one <AcceptDecide> fan-out. The decided id is
        // pushed back to this connection only; a re-append moves it here.
        node_->Append(omni::Entry::Command(cmd_id, payload_bytes));
        proposers_[cmd_id] = client;
        return;
      }
      wire::EncodeRedirect(node_->leader_hint(), &scratch_);
      break;
    }
    case wire::kRead: {
      rsm::ReadRequest read;
      if (!wire::DecodeRead(data, len, &read)) {
        return;
      }
      const LogIndex decided = node_->decided_idx();
      const bool served = node_->CanServeLocalReads() && decided >= read.watermark;
      if (served) {
        OPX_TRACE(options_.obs, obs::EventKind::kLeaseRead, options_.id, kNoNode, 0,
                  decided, read.watermark);
#if defined(OPX_OBS_ENABLED)
        if (lease_reads_ctr_ != nullptr) {
          lease_reads_ctr_->Inc();
        }
#endif
      }
      wire::EncodeReadReply({read.read_id, decided, served, node_->leader_hint()}, &scratch_);
      break;
    }
    case wire::kStatusRequest:
      wire::EncodeStatus({node_->leader_hint(), node_->decided_idx(), node_->log_len(),
                          node_->IsLeader(), storage_->compacted_idx()},
                         &scratch_);
      break;
    default:
      return;
  }
  transport_->SendToClient(client, scratch_.data(), scratch_.size());
}

void OmniTcpServer::Pump() {
  // Broadcast fan-outs (heartbeats, AcceptDecide with a SharedSuffix) arrive
  // from TakeOutgoing as per-peer copies of identical bytes: prove identity
  // with SameWireBody and share the one encoded frame instead of re-encoding.
  const std::vector<omni::OmniOut> outs = node_->TakeOutgoing();
  const omni::OmniMessage* prev = nullptr;
  for (const omni::OmniOut& out : outs) {
    if (prev == nullptr || !omni::SameWireBody(*prev, out.body) ||
        !transport_->SendRepeat(out.to)) {
      transport_->Send(out.to, out.body);
    }
    prev = &out.body;
  }
  const LogIndex decided = node_->decided_idx();
  if (pushed_ < storage_->compacted_idx()) {
    pushed_ = storage_->compacted_idx();
  }
  if (pushed_ < decided && !proposers_.empty()) {
    // One 0x02 frame per proposing connection, holding only its own ids.
    // Ids nobody here proposed (decided under another leader, or a client
    // of an earlier term) are not pushed.
    size_t used = 0;
    for (LogIndex i = pushed_; i < decided; ++i) {
      const omni::Entry& e = storage_->At(i);
      const auto it = e.IsStopSign() ? proposers_.end() : proposers_.find(e.cmd_id);
      if (it == proposers_.end()) {
        continue;
      }
      size_t r = 0;
      while (r < used && replies_[r].first != it->second) {
        ++r;
      }
      if (r == used) {
        if (used == replies_.size()) {
          replies_.emplace_back();
        }
        replies_[r].first = it->second;
        replies_[r].second.clear();
        ++used;
      }
      replies_[r].second.push_back(e.cmd_id);
      proposers_.erase(it);
    }
    for (size_t r = 0; r < used; ++r) {
      scratch_.clear();
      client_wire::EncodeDecided(replies_[r].second, &scratch_);
      transport_->SendToClient(replies_[r].first, scratch_.data(), scratch_.size());
    }
  }
  pushed_ = decided;
  if (!node_->IsLeader()) {
    // A follower answers nothing; what it proposed as leader is the new
    // leader's to decide, and the client retries on silence.
    proposers_.clear();
  }
}

}  // namespace opx::net
