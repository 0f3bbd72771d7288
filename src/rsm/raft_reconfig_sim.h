// Raft reconfiguration harness (§7.3 baseline).
//
// Raft performs membership change inside the replication protocol: fresh
// servers join as learners with empty logs and the *leader* back-fills the
// entire history through its own NIC while still serving client traffic —
// the leader-bottleneck behaviour Fig. 9 contrasts with Omni-Paxos' parallel
// service-layer migration. Removed servers are retired by the operator once
// the change commits (they would otherwise disrupt the cluster with term
// bumps; the residual disruption before retirement is authentic §7.3 Raft
// behaviour).
#ifndef SRC_RSM_RAFT_RECONFIG_SIM_H_
#define SRC_RSM_RAFT_RECONFIG_SIM_H_

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <variant>
#include <vector>

#include "src/raft/raft.h"
#include "src/rsm/client.h"
#include "src/rsm/client_messages.h"
#include "src/rsm/omni_reconfig_sim.h"  // ReconfigParams / ReconfigResult
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/time.h"

namespace opx::rsm {

class RaftReconfigSim {
 public:
  explicit RaftReconfigSim(ReconfigParams params)
      : params_(params),
        pool_(params.initial_servers + params.replace_count),
        net_(&sim_, pool_ + 1, MakeNetParams(params)),
        client_(MakeClientParams(params, pool_)) {
    client_.set_window_width(params_.metrics_window);

    std::vector<NodeId> voters;
    for (NodeId id = 1; id <= params_.initial_servers; ++id) {
      voters.push_back(id);
      old_members_.push_back(id);
    }
    for (NodeId id = 1; id <= params_.initial_servers - params_.replace_count; ++id) {
      new_members_.push_back(id);
    }
    for (int i = 0; i < params_.replace_count; ++i) {
      new_members_.push_back(params_.initial_servers + 1 + i);
    }

    nodes_.resize(static_cast<size_t>(pool_) + 1);
    polled_.resize(static_cast<size_t>(pool_) + 1, 0);
    retired_.resize(static_cast<size_t>(pool_) + 1, false);
    for (NodeId id = 1; id <= pool_; ++id) {
      raft::RaftConfig cfg;
      cfg.pid = id;
      cfg.seed = params_.seed + static_cast<uint64_t>(id) * 7919;
      cfg.election_ticks = 5;
      if (id <= params_.initial_servers) {
        cfg.voters = voters;
        cfg.preload_entries = params_.preload_entries;
        cfg.preload_payload_bytes = params_.payload_bytes;
        polled_[static_cast<size_t>(id)] = params_.preload_entries;
      } else {
        // Fresh server: empty log, never self-elects before joining.
        cfg.voters = {id};
        cfg.election_ticks = 1 << 20;
      }
      nodes_[static_cast<size_t>(id)] = std::make_unique<raft::Raft>(cfg);
      net_.SetHandler(id, [this, id](NodeId from, Wire w) { OnServerWire(id, from, std::move(w)); });
    }
    net_.SetHandler(ClientId(), [this](NodeId from, Wire w) {
      if (auto* resp = std::get_if<ResponseBatch>(&w)) {
        client_.OnResponse(sim_.Now(), from, *resp);
      }
    });

    const Time tick = params_.election_timeout / 5;
    for (NodeId id = 1; id <= pool_; ++id) {
      const Time offset = (tick / (2 * pool_)) * (id - 1);
      sim_.ScheduleAfter(offset, [this, id, tick]() { TickServer(id, tick); });
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
  }

  ReconfigResult Run() {
    sim_.RunUntil(params_.warmup);
    const uint64_t completed_at_warmup = client_.completed();
    const NodeId leader = CurrentLeader();
    OPX_CHECK_NE(leader, kNoNode) << "no Raft leader after warmup";
    old_leader_ = leader;

    OPX_CHECK(node(leader).ProposeMembership(new_members_));
    PumpServer(leader);
    result_.reconfig_proposed_at = sim_.Now();
    result_.steady_throughput =
        static_cast<double>(completed_at_warmup) / ToSeconds(params_.warmup);

    sim_.RunUntil(params_.warmup + params_.run_after);

    result_.window_counts = client_.window_counts();
    result_.downtime =
        client_.LongestGap(result_.reconfig_proposed_at, params_.warmup + params_.run_after);
    for (size_t w = 1; w < io_samples_.size(); ++w) {
      for (NodeId id = 1; id <= pool_; ++id) {
        const uint64_t delta = io_samples_[w][static_cast<size_t>(id)] -
                               io_samples_[w - 1][static_cast<size_t>(id)];
        result_.peak_window_egress_any = std::max(result_.peak_window_egress_any, delta);
        if (id == old_leader_) {
          result_.peak_window_egress_old_leader =
              std::max(result_.peak_window_egress_old_leader, delta);
        }
      }
    }
    return result_;
  }

  Client& client() { return client_; }

 private:
  using Wire = std::variant<raft::RaftMessage, ProposeBatch, ResponseBatch>;

  static uint64_t BytesOf(const Wire& w) {
    if (const auto* m = std::get_if<raft::RaftMessage>(&w)) {
      return raft::WireBytes(*m);
    }
    if (const auto* p = std::get_if<ProposeBatch>(&w)) {
      return WireBytes(*p);
    }
    return WireBytes(std::get<ResponseBatch>(w));
  }

  static sim::NetworkParams MakeNetParams(const ReconfigParams& p) {
    sim::NetworkParams np;
    np.default_latency = Micros(100);
    np.egress_bytes_per_sec = p.egress_bytes_per_sec;
    return np;
  }

  static ClientParams MakeClientParams(const ReconfigParams& p, int pool) {
    ClientParams cp;
    cp.servers = ServerIds(pool);
    cp.concurrent_proposals = p.concurrent_proposals;
    cp.payload_bytes = p.payload_bytes;
    cp.retry_timeout = std::max<Time>(4 * p.election_timeout, p.client_retry);
    return cp;
  }

  raft::Raft& node(NodeId id) { return *nodes_[static_cast<size_t>(id)]; }
  NodeId ClientId() const { return pool_ + 1; }

  void TickServer(NodeId id, Time tick) {
    if (!retired_[static_cast<size_t>(id)]) {
      node(id).Tick();
      PumpServer(id);
    }
    sim_.ScheduleAfter(tick, [this, id, tick]() { TickServer(id, tick); });
    if (id == 1 && sim_.Now() >= next_io_sample_) {
      std::vector<uint64_t> snap(static_cast<size_t>(pool_) + 1, 0);
      for (NodeId n = 1; n <= pool_; ++n) {
        snap[static_cast<size_t>(n)] = net_.BytesSent(n);
      }
      io_samples_.push_back(std::move(snap));
      next_io_sample_ = sim_.Now() + params_.metrics_window;
    }
  }

  void TickClient() {
    for (Client::Send& send : client_.Tick(sim_.Now())) {
      const uint64_t bytes = WireBytes(send.batch);
      net_.Send(ClientId(), send.to, Wire(std::move(send.batch)), static_cast<uint32_t>(bytes));
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
  }

  void OnServerWire(NodeId id, NodeId from, Wire w) {
    if (retired_[static_cast<size_t>(id)]) {
      return;
    }
    if (auto* proposals = std::get_if<ProposeBatch>(&w)) {
      if (!node(id).IsLeader()) {
        ResponseBatch reject;
        reject.leader_hint = node(id).leader_hint();
        net_.Send(id, ClientId(), Wire(std::move(reject)), 24);
      } else {
        for (uint64_t cmd : proposals->cmd_ids) {
          node(id).Append(raft::Entry::Command(cmd, params_.payload_bytes));
        }
      }
    } else if (auto* msg = std::get_if<raft::RaftMessage>(&w)) {
      node(id).Handle(from, std::move(*msg));
    }
    PumpServer(id);
  }

  void PumpServer(NodeId id) {
    raft::Raft& n = node(id);
    for (raft::RaftOut& out : n.TakeOutgoing()) {
      if (out.to < 1 || out.to > pool_ || retired_[static_cast<size_t>(out.to)]) {
        continue;
      }
      const uint64_t bytes = raft::WireBytes(out.body);
      net_.Send(id, out.to, Wire(std::move(out.body)), static_cast<uint32_t>(bytes));
    }
    // Client responses.
    LogIndex& polled = polled_[static_cast<size_t>(id)];
    const LogIndex commit = n.commit_idx();
    if (polled < commit) {
      ResponseBatch resp;
      for (; polled < commit; ++polled) {
        const raft::LogEntry& e = n.log()[polled];
        if (!e.data.IsStopSign() && e.data.cmd_id != 0) {
          resp.cmd_ids.push_back(e.data.cmd_id);
        }
      }
      if (!resp.cmd_ids.empty() && n.IsLeader()) {
        if (result_.new_config_first_decide == 0 && membership_committed_) {
          result_.new_config_first_decide = sim_.Now();
        }
        const uint64_t bytes = WireBytes(resp);
        net_.Send(id, ClientId(), Wire(std::move(resp)), static_cast<uint32_t>(bytes));
      }
    }
    // Operator: once the membership change commits, retire removed servers.
    if (!membership_committed_ && n.CommittedMembership().has_value() &&
        *n.CommittedMembership() == new_members_) {
      membership_committed_ = true;
      result_.ss_decided_at = sim_.Now();
      for (NodeId m : old_members_) {
        if (std::find(new_members_.begin(), new_members_.end(), m) == new_members_.end()) {
          retired_[static_cast<size_t>(m)] = true;
        }
      }
    }
    // Migration completes when every fresh server caught up to the change.
    if (membership_committed_ && result_.migration_done_at == 0) {
      bool all_caught_up = true;
      for (NodeId m : new_members_) {
        if (m > params_.initial_servers &&
            node(m).commit_idx() < params_.preload_entries) {
          all_caught_up = false;
          break;
        }
      }
      if (all_caught_up) {
        result_.migration_done_at = sim_.Now();
      }
    }
  }

  NodeId CurrentLeader() {
    NodeId best = kNoNode;
    uint64_t best_term = 0;
    for (NodeId id = 1; id <= pool_; ++id) {
      if (!retired_[static_cast<size_t>(id)] && node(id).IsLeader() &&
          node(id).term() + 1 > best_term) {
        best = id;
        best_term = node(id).term() + 1;
      }
    }
    return best;
  }

  ReconfigParams params_;
  int pool_;
  sim::Simulator sim_;
  sim::Network<Wire> net_;
  Client client_;

  std::vector<NodeId> old_members_;
  std::vector<NodeId> new_members_;
  NodeId old_leader_ = kNoNode;
  std::vector<std::unique_ptr<raft::Raft>> nodes_;
  std::vector<LogIndex> polled_;
  std::vector<bool> retired_;
  bool membership_committed_ = false;
  std::vector<std::vector<uint64_t>> io_samples_;
  Time next_io_sample_ = 0;
  ReconfigResult result_;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_RAFT_RECONFIG_SIM_H_
