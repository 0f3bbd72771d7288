// ClusterSim — drives one protocol cluster plus a closed-loop client on the
// discrete-event simulator. This is the engine behind the Fig. 7 / Fig. 8 /
// Table 1 experiments: servers are nodes 1..N, the client is node N+1, all
// connected through sim::Network (latency, partial partitions, egress
// bandwidth, I/O accounting).
//
// Leader admission: real RSM leaders saturate on CPU/serialization long
// before a 10 Gb NIC does; a token bucket caps admitted proposals per second
// so throughput saturates realistically with growing CP (§7.1 shapes).
#ifndef SRC_RSM_CLUSTER_SIM_H_
#define SRC_RSM_CLUSTER_SIM_H_

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/audit/auditor.h"
#include "src/rsm/client.h"
#include "src/rsm/client_messages.h"
#include "src/rsm/node_options.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/wal/fault_fs.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::rsm {

struct ClusterParams {
  int num_servers = 5;
  // The experiment's election-timeout parameter T (§7.2); adapters derive
  // their tick cadence from it.
  Time election_timeout = Millis(50);
  Time client_tick = Millis(1);
  size_t concurrent_proposals = 500;
  uint32_t payload_bytes = 8;
  Time retry_timeout = 0;  // 0 = auto: max(4T, 200 ms)
  sim::NetworkParams net;
  uint64_t seed = 1;
  // Max proposals admitted into the leader per second (token bucket);
  // 0 disables the model.
  double proposal_rate = 600'000.0;
  // Omni-Paxos: server given BLE priority 1 so it wins the first election.
  NodeId preferred_leader = kNoNode;
  // Fraction of client work issued as leader-lease local reads (DESIGN.md
  // §15). 0 keeps the read path fully off: no extra messages, schedules and
  // EventHash() identical to builds predating the feature.
  double read_fraction = 0.0;
  // Forwarded to NodeOptions: leader-side per-flush proposal cap (request
  // batching; 0 = unlimited) and the Omni-Paxos auto-compaction watermark in
  // entries (0 = never trim).
  uint64_t batch_limit = 0;
  uint64_t trim_watermark = 0;
  Time metrics_window = Seconds(5);
  // Omni-Paxos only: back every server with the real segmented WAL on an
  // in-memory FaultFs instead of plain in-memory Storage. Crash()/Restart()
  // then go through genuine journal recovery (torn-tail truncation,
  // checkpoint replay, recovered=true rejoin), and the run's EventHash must
  // be identical to a memory-backed run of the same seed — the group commit
  // sits on the TakeOutgoing boundary, so no acknowledged state is ever lost.
  // Segments are kept small (4 KiB) so chaos runs exercise rotation,
  // checkpoints, and trimmed-segment deletion, not just appends.
  bool wal = false;
  // Run the cross-replica safety auditor after every delivered event.
  // Default on; benches pass --audit=false to take it off the hot path.
  bool audit = true;
  // Abort the process on the first auditor violation (the default, so a
  // failing seed is never papered over). The chaos fuzzer sets this false and
  // reads auditor().violations() instead, turning violations into shrinkable,
  // replayable artifacts rather than a dead process.
  bool audit_abort = true;
  // Optional trace/metrics sink (DESIGN.md §12). Forwarded to every protocol
  // node and (unless net.obs is already set) to the network; the harness
  // stamps virtual time into it before each dispatch. nullptr records
  // nothing, and tracing never perturbs the event schedule or EventHash().
  obs::ObsSink* obs = nullptr;
};

template <typename Node>
class ClusterSim {
 public:
  using Message = typename Node::Message;
  using Wire = std::variant<Message, ProposeBatch, ResponseBatch, ReadRequest, ReadReply>;

  explicit ClusterSim(ClusterParams params)
      : params_(params),
        net_(&sim_, params.num_servers + 1, NetParamsWithObs(params)),
        client_(MakeClientParams(params)),
        rng_(params.seed),
        auditor_(audit::SafetyAuditor::Options{params.audit_abort}) {
    if (params_.retry_timeout == 0) {
      params_.retry_timeout = std::max<Time>(4 * params_.election_timeout, Millis(200));
    }
    client_.set_window_width(params_.metrics_window);

    const int n = params_.num_servers;
    nodes_.resize(static_cast<size_t>(n) + 1);
    node_opts_.resize(static_cast<size_t>(n) + 1);
    crashed_.resize(static_cast<size_t>(n) + 1, 0);
    was_leader_.resize(static_cast<size_t>(n) + 1, false);
    admission_.resize(static_cast<size_t>(n) + 1);
    election_bytes_.resize(static_cast<size_t>(n) + 1, 0);
    for (NodeId id = 1; id <= n; ++id) {
      std::vector<NodeId> peers;
      for (NodeId other = 1; other <= n; ++other) {
        if (other != id) {
          peers.push_back(other);
        }
      }
      NodeOptions opts;
      opts.seed = rng_.Next();
      opts.ble_priority = (id == params_.preferred_leader) ? 1u : 0u;
      opts.batch_limit = params_.batch_limit;
      opts.trim_watermark = params_.trim_watermark;
      opts.obs = params_.obs;
      if (params_.wal) {
        if (wal_fs_ == nullptr) {
          wal_fs_ = std::make_unique<wal::FaultFs>();
        }
        opts.wal_env = wal_fs_.get();
        opts.wal_dir = "node" + std::to_string(id);
        opts.wal_options.segment_bytes = 4 * 1024;
      }
      node_opts_[static_cast<size_t>(id)] = opts;
      nodes_[static_cast<size_t>(id)] = std::make_unique<Node>(id, std::move(peers), opts);

      net_.SetHandler(id, [this, id](NodeId from, Wire w) { OnServerWire(id, from, std::move(w)); });
      net_.SetReconnectHandler(id, [this, id](NodeId peer) {
        if (peer >= 1 && peer <= params_.num_servers && !IsCrashed(id)) {
          OPX_TRACE_NOW(params_.obs, sim_.Now());
          nodes_[static_cast<size_t>(id)]->Reconnected(peer);
          PumpServer(id);
          AuditNow("reconnect", id);
        }
      });
    }
    net_.SetHandler(ClientId(), [this](NodeId from, Wire w) { OnClientWire(from, std::move(w)); });

    // Staggered protocol tick timers.
    const Time period = Node::TickPeriod(params_.election_timeout);
    for (NodeId id = 1; id <= n; ++id) {
      const Time offset = (period / (2 * n)) * (id - 1);
      sim_.ScheduleAfter(offset, [this, id, period]() { TickServer(id, period); });
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
    sim_.ScheduleAfter(params_.metrics_window, [this]() { SampleIo(); });
    io_samples_.push_back(SnapshotIo());
#if defined(OPX_OBS_ENABLED)
    if (params_.obs != nullptr) {
      // Resolved once here; PumpServer only bumps stable pointers.
      election_bytes_ctr_ = params_.obs->metrics().GetCounter("cluster/election_bytes");
      elevations_ctr_ = params_.obs->metrics().GetCounter("cluster/leader_elevations");
      lease_reads_ctr_ = params_.obs->metrics().GetCounter("cluster/lease_reads");
    }
#endif
  }

  // --- Driving --------------------------------------------------------------

  void RunUntil(Time t) { sim_.RunUntil(t); }

  // --- Access ---------------------------------------------------------------

  sim::Simulator& simulator() { return sim_; }
  sim::Network<Wire>& network() { return net_; }
  Client& client() { return client_; }
  Node& node(NodeId id) { return *nodes_[static_cast<size_t>(id)]; }
  int num_servers() const { return params_.num_servers; }
  NodeId ClientId() const { return params_.num_servers + 1; }
  const ClusterParams& params() const { return params_; }
  const audit::SafetyAuditor& auditor() const { return auditor_; }
  // Non-null iff params.wal: the in-memory filesystem every server's WAL
  // lives on (segments under "node<id>/").
  wal::FaultFs* wal_fs() { return wal_fs_.get(); }

  // Rolling hash over the audited event sequence (virtual time + node of
  // every event), seeded with params.seed. Two runs of the same seed and
  // scenario must produce identical hashes — the determinism regression
  // check in sim_test.cc.
  uint64_t EventHash() const { return event_hash_; }

  // Leader claimant with the highest epoch (stale claimants lose).
  NodeId CurrentLeader() {
    NodeId best = kNoNode;
    uint64_t best_epoch = 0;
    for (NodeId id = 1; id <= params_.num_servers; ++id) {
      if (!IsCrashed(id) && node(id).IsLeader() && node(id).Epoch() + 1 > best_epoch) {
        best = id;
        best_epoch = node(id).Epoch() + 1;
      }
    }
    return best;
  }

  // --- Fault injection: fail-stop crash + restart from durable state --------
  //
  // Crash() makes the server inert: its timers keep firing but do nothing, it
  // stops receiving messages, and all of its network sessions are torn down
  // (in-flight messages in both directions drop, as with a real process
  // death). Restart() rebuilds the protocol node from whatever the adapter
  // persists (Node::Restart — Omni-Paxos recovers from its storage with the
  // recovered=true PrepareReq path, §4.1.3) and tears sessions down again so
  // the revived server starts on fresh sessions.
  void Crash(NodeId id) {
    OPX_CHECK(!IsCrashed(id));
    crashed_[static_cast<size_t>(id)] = 1;
    was_leader_[static_cast<size_t>(id)] = false;
    admission_[static_cast<size_t>(id)].pending.clear();
    net_.ResetNode(id);
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    OPX_TRACE(params_.obs, obs::EventKind::kCrash, id);
  }

  void Restart(NodeId id) {
    OPX_CHECK(IsCrashed(id));
    crashed_[static_cast<size_t>(id)] = 0;
    net_.ResetNode(id);
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    OPX_TRACE(params_.obs, obs::EventKind::kRestart, id);
    nodes_[static_cast<size_t>(id)]->Restart(node_opts_[static_cast<size_t>(id)]);
    PumpServer(id);  // a recovering server emits <PrepareReq> immediately
    AuditNow("restart", id);
  }

  bool IsCrashed(NodeId id) const { return crashed_[static_cast<size_t>(id)] != 0; }

  // Chaos hook: forces `id` to compact its log up to its decided index,
  // independent of the automatic trim policy — lets fault plans race
  // compaction against crashes, partitions, and snapshot catch-up.
  void TrimNode(NodeId id) {
    if (IsCrashed(id)) {
      return;
    }
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    node(id).Trim(node(id).ReadDecided());
    PumpServer(id);
    AuditNow("trim", id);
  }

  // --- Metrics ----------------------------------------------------------------

  uint64_t leader_elevations() const { return leader_elevations_; }
  uint64_t MaxEpoch() {
    uint64_t max_epoch = 0;
    for (NodeId id = 1; id <= params_.num_servers; ++id) {
      if (!IsCrashed(id)) {
        max_epoch = std::max(max_epoch, node(id).Epoch());
      }
    }
    return max_epoch;
  }
  uint64_t ElectionBytes(NodeId id) const {
    return election_bytes_[static_cast<size_t>(id)];
  }
  uint64_t TotalElectionBytes() const {
    uint64_t total = 0;
    for (NodeId id = 1; id <= params_.num_servers; ++id) {
      total += ElectionBytes(id);
    }
    return total;
  }

  // Per-window egress bytes for `id` (deltas between metric samples).
  std::vector<uint64_t> WindowEgressBytes(NodeId id) const {
    std::vector<uint64_t> deltas;
    for (size_t w = 1; w < io_samples_.size(); ++w) {
      deltas.push_back(io_samples_[w][static_cast<size_t>(id)] -
                       io_samples_[w - 1][static_cast<size_t>(id)]);
    }
    return deltas;
  }

 private:
  struct Admission {
    double tokens = 0.0;
    Time last_refill = 0;
    std::deque<uint64_t> pending;
    bool drain_scheduled = false;
  };

  static sim::NetworkParams NetParamsWithObs(const ClusterParams& p) {
    sim::NetworkParams np = p.net;
    if (np.obs == nullptr) {
      np.obs = p.obs;
    }
    return np;
  }

  static ClientParams MakeClientParams(const ClusterParams& p) {
    ClientParams cp;
    cp.servers = ServerIds(p.num_servers);
    cp.concurrent_proposals = p.concurrent_proposals;
    cp.payload_bytes = p.payload_bytes;
    cp.retry_timeout = p.retry_timeout == 0 ? std::max<Time>(4 * p.election_timeout, Millis(200))
                                            : p.retry_timeout;
    cp.read_fraction = p.read_fraction;
    return cp;
  }

  void TickServer(NodeId id, Time period) {
    // A crashed server's timer keeps firing (so the schedule stays identical
    // across crash windows) but drives nothing until restart.
    if (!IsCrashed(id)) {
      OPX_TRACE_NOW(params_.obs, sim_.Now());
      node(id).Tick();
      PumpServer(id);
      AuditNow("tick", id);
    }
    sim_.ScheduleAfter(period, [this, id, period]() { TickServer(id, period); });
  }

  void TickClient() {
    for (Client::Send& send : client_.Tick(sim_.Now())) {
      if (!send.batch.cmd_ids.empty()) {
        const uint64_t bytes = WireBytes(send.batch);
        net_.Send(ClientId(), send.to, Wire(std::move(send.batch)), static_cast<uint32_t>(bytes));
      }
      for (ReadRequest& read : send.reads) {
        const uint64_t bytes = WireBytes(read);
        net_.Send(ClientId(), send.to, Wire(read), static_cast<uint32_t>(bytes));
      }
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
  }

  void OnServerWire(NodeId id, NodeId from, Wire w) {
    if (IsCrashed(id)) {
      return;  // message raced the crash's session teardown
    }
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    if (auto* proposals = std::get_if<ProposeBatch>(&w)) {
      OnProposals(id, std::move(*proposals));
    } else if (auto* read = std::get_if<ReadRequest>(&w)) {
      OnRead(id, *read);
    } else if (auto* msg = std::get_if<Message>(&w)) {
      node(id).Handle(from, std::move(*msg));
    }
    PumpServer(id);
    AuditNow("deliver", id);
  }

  void OnClientWire(NodeId from, Wire w) {
    if (auto* resp = std::get_if<ResponseBatch>(&w)) {
      client_.OnResponse(sim_.Now(), from, *resp);
    } else if (auto* reply = std::get_if<ReadReply>(&w)) {
      client_.OnReadReply(sim_.Now(), from, *reply);
    }
  }

  // Lease read: served locally — no log append, no replication round-trip —
  // iff this server is a leader still holding the BLE lease and its decided
  // index covers the client's read-your-writes watermark (DESIGN.md §15).
  void OnRead(NodeId id, const ReadRequest& read) {
    Node& n = node(id);
    ReadReply reply;
    reply.read_id = read.read_id;
    if (n.CanServeLocalReads() && n.ReadDecided() >= read.watermark) {
      reply.served = true;
      reply.decided_idx = n.ReadDecided();
      OPX_TRACE(params_.obs, obs::EventKind::kLeaseRead, id, ClientId(), 0,
                reply.decided_idx, read.watermark);
#if defined(OPX_OBS_ENABLED)
      if (lease_reads_ctr_ != nullptr) {
        lease_reads_ctr_->Inc();
      }
#endif
    } else {
      reply.leader_hint = n.LeaderHint();
    }
    const uint64_t bytes = WireBytes(reply);
    net_.Send(id, ClientId(), Wire(reply), static_cast<uint32_t>(bytes));
  }

  void OnProposals(NodeId id, ProposeBatch batch) {
    if (!node(id).IsLeader()) {
      ResponseBatch reject;
      reject.leader_hint = node(id).LeaderHint();
      net_.Send(id, ClientId(), Wire(std::move(reject)), 24);
      return;
    }
    Admission& adm = admission_[static_cast<size_t>(id)];
    for (uint64_t cmd : batch.cmd_ids) {
      adm.pending.push_back(cmd);
    }
    DrainAdmission(id);
  }

  void DrainAdmission(NodeId id) {
    Admission& adm = admission_[static_cast<size_t>(id)];
    if (!node(id).IsLeader()) {
      // Deposed with proposals queued: bounce the client to the new leader.
      adm.pending.clear();
      ResponseBatch reject;
      reject.leader_hint = node(id).LeaderHint();
      net_.Send(id, ClientId(), Wire(std::move(reject)), 24);
      return;
    }
    if (params_.proposal_rate > 0.0) {
      const Time now = sim_.Now();
      adm.tokens += ToSeconds(now - adm.last_refill) * params_.proposal_rate;
      const double burst = params_.proposal_rate * 0.01;  // 10 ms of burst
      if (adm.tokens > burst) {
        adm.tokens = burst;
      }
      adm.last_refill = now;
    }
    while (!adm.pending.empty() &&
           (params_.proposal_rate <= 0.0 || adm.tokens >= 1.0)) {
      if (node(id).Propose(adm.pending.front(), params_.payload_bytes)) {
        adm.tokens -= 1.0;
      }
      adm.pending.pop_front();
    }
    if (!adm.pending.empty() && !adm.drain_scheduled) {
      adm.drain_scheduled = true;
      // Wake up with enough tokens for a whole batch (~1 ms worth), not one
      // entry at a time.
      const double batch = std::min(static_cast<double>(adm.pending.size()),
                                    std::max(1.0, params_.proposal_rate / 1000.0));
      const double deficit = batch - adm.tokens;
      const Time wait = std::max<Time>(
          Micros(50), static_cast<Time>(deficit / params_.proposal_rate * 1e9));
      sim_.ScheduleAfter(wait, [this, id]() {
        admission_[static_cast<size_t>(id)].drain_scheduled = false;
        if (IsCrashed(id)) {
          return;
        }
        OPX_TRACE_NOW(params_.obs, sim_.Now());
        DrainAdmission(id);
        PumpServer(id);
        AuditNow("admission", id);
      });
    }
  }

  // Snapshot every server's AuditView and run the cross-replica safety
  // checks. Called after each event that can change protocol state (message
  // delivery, tick, reconnect, admission drain).
  void AuditNow(const char* label, NodeId id) {
    event_hash_ = audit::HashMix(event_hash_, static_cast<uint64_t>(sim_.Now()));
    event_hash_ = audit::HashMix(event_hash_, static_cast<uint64_t>(static_cast<uint32_t>(id)));
    if (!params_.audit) {
      return;
    }
    views_scratch_.clear();
    for (NodeId s = 1; s <= params_.num_servers; ++s) {
      if (!IsCrashed(s)) {  // crashed nodes are omitted; see SafetyAuditor
        views_scratch_.push_back(node(s).Audit());
      }
    }
    audit::AuditContext ctx;
    ctx.seed = params_.seed;
    ctx.now = sim_.Now();
    ctx.event_id = ++audit_events_;
    ctx.label = label;
    auditor_.Observe(views_scratch_, ctx);
  }

  void PumpServer(NodeId id) {
    Node& n = node(id);
    for (auto& [to, msg] : n.TakeOutgoing()) {
      const uint64_t bytes = WireBytes(msg);
      if (Node::IsElectionMessage(msg)) {
        election_bytes_[static_cast<size_t>(id)] += bytes;
#if defined(OPX_OBS_ENABLED)
        if (election_bytes_ctr_ != nullptr) {
          election_bytes_ctr_->Inc(bytes);
        }
#endif
      }
      net_.Send(id, to, Wire(std::move(msg)), static_cast<uint32_t>(bytes));
    }
    decided_scratch_.clear();
    n.PollDecided(&decided_scratch_);
    if (!decided_scratch_.empty() && n.IsLeader()) {
      ResponseBatch resp;
      resp.cmd_ids = std::move(decided_scratch_);
      resp.decided_idx = n.ReadDecided();
      decided_scratch_ = {};
      const uint64_t bytes = WireBytes(resp);
      net_.Send(id, ClientId(), Wire(std::move(resp)), static_cast<uint32_t>(bytes));
    }
    const bool lead = n.IsLeader();
    if (lead && !was_leader_[static_cast<size_t>(id)]) {
      ++leader_elevations_;
      OPX_TRACE_NOW(params_.obs, sim_.Now());
      OPX_TRACE(params_.obs, obs::EventKind::kLeaderElevation, id, id, n.Epoch());
#if defined(OPX_OBS_ENABLED)
      if (elevations_ctr_ != nullptr) {
        elevations_ctr_->Inc();
      }
#endif
    }
    was_leader_[static_cast<size_t>(id)] = lead;
  }

  std::vector<uint64_t> SnapshotIo() const {
    std::vector<uint64_t> snap(static_cast<size_t>(params_.num_servers) + 2, 0);
    for (NodeId id = 1; id <= params_.num_servers + 1; ++id) {
      snap[static_cast<size_t>(id)] = net_.BytesSent(id);
    }
    return snap;
  }

  void SampleIo() {
    io_samples_.push_back(SnapshotIo());
    sim_.ScheduleAfter(params_.metrics_window, [this]() { SampleIo(); });
  }

  ClusterParams params_;
  std::unique_ptr<wal::FaultFs> wal_fs_;  // before nodes_: storages write here at destruction
  sim::Simulator sim_;
  sim::Network<Wire> net_;
  Client client_;
  Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<NodeOptions> node_opts_;
  std::vector<char> crashed_;

  std::vector<bool> was_leader_;
  uint64_t leader_elevations_ = 0;
  std::vector<Admission> admission_;
  std::vector<uint64_t> election_bytes_;
  std::vector<std::vector<uint64_t>> io_samples_;
  std::vector<uint64_t> decided_scratch_;

  audit::SafetyAuditor auditor_;
  std::vector<audit::AuditView> views_scratch_;
  uint64_t audit_events_ = 0;
  uint64_t event_hash_ = audit::Hash64(params_.seed);
#if defined(OPX_OBS_ENABLED)
  obs::Counter* election_bytes_ctr_ = nullptr;
  obs::Counter* elevations_ctr_ = nullptr;
  obs::Counter* lease_reads_ctr_ = nullptr;
#endif
};

}  // namespace opx::rsm

#endif  // SRC_RSM_CLUSTER_SIM_H_
