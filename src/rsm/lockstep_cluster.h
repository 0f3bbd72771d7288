// LockstepCluster<Node> — an in-process cluster of pull-based protocol
// servers (Omni-Paxos, Raft, Multi-Paxos or VR) with no simulator and no
// network: messages wait in one FIFO queue, ticks are explicit, and links,
// crashes and restarts are switched by hand. The protocol unit tests, the
// examples and library users drive it; for latency- and bandwidth-faithful
// experiments use rsm::ClusterSim instead.
//
// The contract every protocol gets:
//   - Tick() runs one timer period on every live server (TickElection for
//     Omni-Paxos, Tick otherwise), then delivers until the cluster is quiet.
//   - A crash destroys the server and purges its in-flight messages.
//   - A restart (Omni-Paxos only) rebuilds the storage through
//     RecoveredStorage::Restore — the RestoreForRecovery entry point of WAL
//     recovery — and the server from the same config with recovered=true.
//   - Healing a link calls Reconnected(peer) on both ends where the node type
//     has it (the Sequence-Paxos-based protocols).
//   - The safety auditor runs after every tick, delivery and reconnect, for
//     node types that expose Audit().
#ifndef SRC_RSM_LOCKSTEP_CLUSTER_H_
#define SRC_RSM_LOCKSTEP_CLUSTER_H_

#include <algorithm>
#include <concepts>
#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/audit/auditor.h"
#include "src/obs/trace.h"
#include "src/rsm/adapters.h"
#include "src/util/check.h"
#include "src/util/types.h"
#include "src/util/unique_function.h"

namespace opx::rsm {

// What one server is built from, besides the cluster's config.
struct LockstepMember {
  NodeId id = kNoNode;
  std::vector<NodeId> peers;         // every other member, ascending
  omni::Storage* storage = nullptr;  // outlives the server; unused by Raft/MPX
  bool recovered = false;            // rebuilt by Restart after a crash
};

// Per protocol: the Config a cluster is built from, Make (one server from the
// config) and Epoch (the leader epoch CurrentLeader ranks claimants by).
template <typename Node>
struct LockstepTraits;

// Omni-Paxos servers share trim_watermark and obs; `priority_node` alone
// gets a BLE priority and so wins the first election — and keeps it across
// restarts.
struct OmniLockstepConfig {
  size_t trim_watermark = 0;
  obs::ObsSink* obs = nullptr;
  NodeId priority_node = kNoNode;
};

template <>
struct LockstepTraits<omni::OmniPaxos> {
  using Config = OmniLockstepConfig;
  static std::unique_ptr<omni::OmniPaxos> Make(const Config& c, LockstepMember m) {
    omni::OmniConfig cfg;
    cfg.pid = m.id;
    cfg.peers = std::move(m.peers);
    cfg.ble_priority = m.id == c.priority_node ? 10 : 0;
    cfg.trim_watermark = c.trim_watermark;
    cfg.obs = c.obs;
    return std::make_unique<omni::OmniPaxos>(cfg, m.storage, m.recovered);
  }
  static omni::Ballot Epoch(const omni::OmniPaxos& n) { return n.paxos().leader_ballot(); }
};

// Every member votes; server `id` draws from seed + id * 7919.
template <>
struct LockstepTraits<raft::Raft> {
  using Config = raft::RaftConfig;
  static std::unique_ptr<raft::Raft> Make(const Config& base, LockstepMember m) {
    raft::RaftConfig cfg = base;
    cfg.pid = m.id;
    cfg.voters = std::move(m.peers);
    cfg.voters.insert(std::upper_bound(cfg.voters.begin(), cfg.voters.end(), m.id), m.id);
    cfg.seed = base.seed + static_cast<uint64_t>(m.id) * 7919;
    return std::make_unique<raft::Raft>(cfg);
  }
  static uint64_t Epoch(const raft::Raft& n) { return n.term(); }
};

// Server `id` draws from seed + id.
template <>
struct LockstepTraits<mpx::MultiPaxos> {
  using Config = mpx::MpxConfig;
  static std::unique_ptr<mpx::MultiPaxos> Make(const Config& base, LockstepMember m) {
    mpx::MpxConfig cfg = base;
    cfg.pid = m.id;
    cfg.peers = std::move(m.peers);
    cfg.seed = base.seed + static_cast<uint64_t>(m.id);
    return std::make_unique<mpx::MultiPaxos>(cfg);
  }
  static omni::Ballot Epoch(const mpx::MultiPaxos& n) { return n.ballot(); }
};

// Server `id` draws from seed + id.
template <>
struct LockstepTraits<vr::VrReplica> {
  using Config = vr::VrReplicaConfig;
  static std::unique_ptr<vr::VrReplica> Make(const Config& base, LockstepMember m) {
    vr::VrReplicaConfig cfg = base;
    cfg.pid = m.id;
    cfg.peers = std::move(m.peers);
    cfg.seed = base.seed + static_cast<uint64_t>(m.id);
    return std::make_unique<vr::VrReplica>(cfg, m.storage);
  }
  static uint64_t Epoch(const vr::VrReplica& n) { return n.election().view(); }
};

// Node types whose decided log lives in an omni::Storage (Omni-Paxos, VR):
// they get storage(id) and the apply callback.
template <typename Node>
concept LogsToStorage = requires(const Node& n) {
  { n.storage() } -> std::same_as<const omni::Storage&>;
  n.decided_idx();
};

template <typename Node>
class LockstepCluster {
 public:
  using Traits = LockstepTraits<Node>;
  using Config = typename Traits::Config;
  // Called for every newly decided entry, on every live server, in log order,
  // each time the cluster settles.
  using ApplyFn = util::UniqueFunction<void(NodeId server, LogIndex idx, const omni::Entry& entry)>;

  // Servers 1..n, fully connected.
  explicit LockstepCluster(int n, Config config = {}) : n_(n), config_(std::move(config)) {
    OPX_CHECK_GT(n, 0);
    nodes_.resize(static_cast<size_t>(n_) + 1);
    storages_.resize(static_cast<size_t>(n_) + 1);
    applied_.resize(static_cast<size_t>(n_) + 1, 0);
    for (NodeId id = 1; id <= n_; ++id) {
      storages_[static_cast<size_t>(id)] = std::make_unique<omni::Storage>();
      nodes_[static_cast<size_t>(id)] = Build(id, /*recovered=*/false);
    }
  }

  Node& node(NodeId id) {
    Node* n = nodes_[Checked(id)].get();
    OPX_CHECK(n != nullptr) << "server " << id << " is crashed";
    return *n;
  }
  int size() const { return n_; }

  const omni::Storage& storage(NodeId id)
    requires LogsToStorage<Node>
  {
    return node(id).storage();
  }

  void set_apply(ApplyFn fn)
    requires LogsToStorage<Node>
  {
    apply_ = std::move(fn);
  }

  // Adds server size() + 1, built by the caller — e.g. a fresh Raft server
  // that joins through a membership change. Returns its id.
  NodeId AddServer(std::unique_ptr<Node> server) {
    ++n_;
    nodes_.push_back(std::move(server));
    storages_.push_back(nullptr);  // the caller's server brings its own state
    applied_.push_back(0);
    return n_;
  }

  // --- Links and faults -------------------------------------------------------

  void SetLink(NodeId a, NodeId b, bool up) {
    const std::pair<NodeId, NodeId> key = std::minmax(a, b);
    const bool changed = up ? down_links_.erase(key) > 0 : down_links_.insert(key).second;
    if (!changed) {
      return;
    }
    OPX_TRACE(config_.obs, up ? obs::EventKind::kLinkUp : obs::EventKind::kLinkDown, a, b);
    if (up && !IsCrashed(a) && !IsCrashed(b)) {
      NotifyReconnect(a, b);
      NotifyReconnect(b, a);
      Collect();
      AuditNow("reconnect");
    }
  }

  bool LinkUp(NodeId a, NodeId b) const { return down_links_.count(std::minmax(a, b)) == 0; }

  void Isolate(NodeId id) {
    for (NodeId other = 1; other <= n_; ++other) {
      if (other != id) {
        SetLink(id, other, false);
      }
    }
  }

  void HealAll() {
    for (NodeId a = 1; a <= n_; ++a) {
      for (NodeId b = a + 1; b <= n_; ++b) {
        SetLink(a, b, true);
      }
    }
  }

  void Crash(NodeId id) {
    OPX_CHECK(!IsCrashed(id));
    crashed_.insert(id);
    nodes_[Checked(id)] = nullptr;
    std::erase_if(queue_, [id](const Wire& w) { return w.from == id || w.to == id; });
    OPX_TRACE(config_.obs, obs::EventKind::kCrash, id);
  }

  // Fail-recovery (§4.1.3): the server resumes from what its storage
  // persisted, with its BLE priority, renounced candidacy and a <PrepareReq>
  // to every peer. The apply callback replays its decided log from the start.
  void Restart(NodeId id)
    requires std::same_as<Node, omni::OmniPaxos>
  {
    OPX_CHECK(IsCrashed(id));
    std::unique_ptr<omni::Storage>& storage = storages_[Checked(id)];
    OPX_CHECK(storage != nullptr) << "server " << id << " was added without a storage";
    auto fresh = std::make_unique<RecoveredStorage>();
    fresh->Restore(*storage);
    storage = std::move(fresh);
    crashed_.erase(id);
    OPX_TRACE(config_.obs, obs::EventKind::kRestart, id);
    nodes_[Checked(id)] = Build(id, /*recovered=*/true);
    applied_[Checked(id)] = 0;
    Collect();
  }

  bool IsCrashed(NodeId id) const { return crashed_.count(id) > 0; }

  // --- Driving ----------------------------------------------------------------

  void Tick() {
    ++ticks_;
    OPX_TRACE_NOW(config_.obs, ticks_);
    for (NodeId id = 1; id <= n_; ++id) {
      if (IsCrashed(id)) {
        continue;
      }
      if constexpr (requires(Node& n) { n.TickElection(); }) {
        node(id).TickElection();
      } else {
        node(id).Tick();
      }
    }
    Collect();
    AuditNow("tick");
    DeliverAll();
  }

  void TickRounds(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      Tick();
    }
  }

  // Collects every live server's sends, then delivers queued messages (and
  // any they cause) until the cluster is quiet, then runs the apply callback.
  void DeliverAll() {
    Collect();
    size_t guard = 0;
    while (!queue_.empty()) {
      OPX_CHECK_LT(++guard, 1'000'000u) << "message storm: protocol not quiescing";
      Wire w = std::move(queue_.front());
      queue_.pop_front();
      if (IsCrashed(w.to) || IsCrashed(w.from) || !LinkUp(w.from, w.to)) {
        continue;
      }
      node(w.to).Handle(w.from, std::move(w.body));
      Collect();
      AuditNow("deliver");
    }
    Apply();
  }

  // Proposes a command at `id` (Omni-Paxos followers forward it) and settles.
  // Returns the server's verdict: false if it rejected the command.
  bool Append(NodeId id, uint64_t cmd_id) {
    const bool ok = node(id).Append(omni::Entry::Command(cmd_id, 8));
    DeliverAll();
    return ok;
  }

  // The live leader claimant with the highest epoch. A leader cut off from
  // its quorum keeps its role until it sees a higher epoch, so claimants can
  // coexist for a while; the highest is the cluster's live leader.
  NodeId CurrentLeader() {
    NodeId best = kNoNode;
    for (NodeId id = 1; id <= n_; ++id) {
      if (!IsCrashed(id) && node(id).IsLeader() &&
          (best == kNoNode || Traits::Epoch(node(best)) < Traits::Epoch(node(id)))) {
        best = id;
      }
    }
    return best;
  }

  // Ticks until some server leads, for at most ten ticks.
  NodeId ElectLeader() {
    for (int round = 0; round < 10; ++round) {
      Tick();
      if (const NodeId leader = CurrentLeader(); leader != kNoNode) {
        return leader;
      }
    }
    return kNoNode;
  }

  const audit::SafetyAuditor& auditor() const { return auditor_; }

 private:
  using Out = typename decltype(std::declval<Node&>().TakeOutgoing())::value_type;
  using Message = decltype(Out::body);
  struct Wire {
    NodeId from;
    NodeId to;
    Message body;
  };

  std::unique_ptr<Node> Build(NodeId id, bool recovered) {
    LockstepMember m;
    m.id = id;
    for (NodeId other = 1; other <= n_; ++other) {
      if (other != id) {
        m.peers.push_back(other);
      }
    }
    m.storage = storages_[Checked(id)].get();
    m.recovered = recovered;
    return Traits::Make(config_, std::move(m));
  }

  void Collect() {
    for (NodeId id = 1; id <= n_; ++id) {
      if (IsCrashed(id)) {
        continue;
      }
      for (Out& out : node(id).TakeOutgoing()) {
        if (out.to >= 1 && out.to <= n_ && LinkUp(id, out.to) && !IsCrashed(out.to)) {
          queue_.push_back(Wire{id, out.to, std::move(out.body)});
        }
      }
    }
  }

  void NotifyReconnect(NodeId id, NodeId peer) {
    if constexpr (requires(Node& n, NodeId p) { n.Reconnected(p); }) {
      node(id).Reconnected(peer);
    }
  }

  // Runs the cross-replica safety auditor over all live servers.
  void AuditNow(const char* label) {
    if constexpr (requires(const Node& n) { n.Audit(); }) {
      views_.clear();
      for (NodeId id = 1; id <= n_; ++id) {
        if (!IsCrashed(id)) {
          views_.push_back(node(id).Audit());
        }
      }
      audit::AuditContext ctx;
      ctx.now = ticks_;  // lockstep time is the tick count
      ctx.event_id = ++audit_events_;
      ctx.label = label;
      auditor_.Observe(views_, ctx);
    }
  }

  void Apply() {
    if constexpr (LogsToStorage<Node>) {
      if (!apply_) {
        return;
      }
      for (NodeId id = 1; id <= n_; ++id) {
        if (IsCrashed(id)) {
          continue;
        }
        const omni::Storage& st = storage(id);
        const LogIndex decided = node(id).decided_idx();
        LogIndex& applied = applied_[Checked(id)];
        applied = std::max(applied, st.compacted_idx());
        for (; applied < decided; ++applied) {
          apply_(id, applied, st.At(applied));
        }
      }
    }
  }

  size_t Checked(NodeId id) const {
    OPX_CHECK(id >= 1 && id <= n_);
    return static_cast<size_t>(id);
  }

  int n_;
  Config config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Each member's log storage, surviving its crashes; nullptr for servers
  // added through AddServer.
  std::vector<std::unique_ptr<omni::Storage>> storages_;
  std::vector<LogIndex> applied_;
  ApplyFn apply_;
  std::deque<Wire> queue_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::set<NodeId> crashed_;

  audit::SafetyAuditor auditor_;
  std::vector<audit::AuditView> views_;
  uint64_t audit_events_ = 0;
  int64_t ticks_ = 0;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_LOCKSTEP_CLUSTER_H_
