// Omni-Paxos reconfiguration harness (§6, §7.3 — Fig. 9 and the Fig. 6
// migration ablation).
//
// Each server runs a *service layer* with cross-configuration scope above its
// per-configuration OmniPaxos instances. Reconfiguring from c0 to c1:
//
//   1. the client/operator proposes a stop-sign in c0;
//   2. once the SS is decided, continuing servers immediately start their c1
//      instances (they already hold the whole c0 segment) and notify the new
//      servers;
//   3. new servers fetch the decided c0 segment in chunks — in parallel from
//      every continuing server (and from new servers that already finished),
//      or only from the old leader in the leader-only ablation (Fig. 6a) —
//      then start their c1 instances;
//   4. c1 elects a leader among started members and resumes serving.
//
// Segment transfers ride the same simulated network as replication traffic,
// so donor NIC egress is the contended resource — the mechanism behind the
// paper's leader-bottleneck results.
#ifndef SRC_RSM_OMNI_RECONFIG_SIM_H_
#define SRC_RSM_OMNI_RECONFIG_SIM_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <variant>
#include <vector>

#include "src/omnipaxos/omni_paxos.h"
#include "src/rsm/client.h"
#include "src/rsm/client_messages.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::rsm {

// Fills a storage with `n` identical committed commands (a long-running
// cluster's history, §7.3).
inline void PreloadStorage(omni::Storage* storage, LogIndex n, uint32_t payload_bytes) {
  for (LogIndex i = 0; i < n; ++i) {
    storage->Append(omni::Entry::Command(0, payload_bytes));
  }
  storage->set_decided_idx(n);
}

struct ReconfigParams {
  int initial_servers = 5;
  int replace_count = 1;  // 1 = Fig. 9a/9b; 3 = Fig. 9c (replace a majority)
  LogIndex preload_entries = 1'000'000;
  uint32_t payload_bytes = 8;
  size_t concurrent_proposals = 5'000;
  Time election_timeout = Millis(50);
  Time client_tick = Millis(1);
  double proposal_rate = 50'000.0;
  // Effective application-level egress rate per server; the paper's leader
  // peaked at ~22 MB/s over 5 s windows during migration.
  double egress_bytes_per_sec = 8e6;
  Time warmup = Seconds(20);
  Time run_after = Seconds(100);
  Time metrics_window = Seconds(5);
  LogIndex migration_chunk = 50'000;  // entries per segment request
  Time chunk_timeout = Seconds(10);
  bool leader_only_migration = false;  // ablation: Fig. 6a behaviour
  // Client re-proposal timeout. Must exceed the queueing latency at high CP
  // (CP / service rate), or retries snowball into duplicate storms under the
  // NIC saturation these experiments deliberately create.
  Time client_retry = Seconds(1);
  uint64_t seed = 1;
  // Optional trace/metrics sink (DESIGN.md §12): stop-sign decides, migration
  // segments, and link events; nullptr records nothing.
  obs::ObsSink* obs = nullptr;
};

struct ReconfigResult {
  std::vector<uint64_t> window_counts;  // client completions per window
  Time reconfig_proposed_at = 0;
  Time ss_decided_at = 0;
  Time migration_done_at = 0;        // last new server finished fetching
  Time new_config_first_decide = 0;  // c1 serving again
  Time downtime = 0;                 // longest no-decides gap after the proposal
  uint64_t peak_window_egress_old_leader = 0;  // bytes in the busiest window
  uint64_t peak_window_egress_any = 0;
  double steady_throughput = 0.0;  // pre-reconfiguration, per second
};

class OmniReconfigSim {
 public:
  explicit OmniReconfigSim(ReconfigParams params)
      : params_(params),
        pool_(params.initial_servers + params.replace_count),
        net_(&sim_, pool_ + 1, MakeNetParams(params)),
        client_(MakeClientParams(params, pool_)),
        rng_(params.seed) {
    OPX_CHECK_GT(params_.initial_servers, params_.replace_count);
    client_.set_window_width(params_.metrics_window);

    for (NodeId id = 1; id <= params_.initial_servers; ++id) {
      old_members_.push_back(id);
    }
    for (NodeId id = 1; id <= params_.initial_servers - params_.replace_count; ++id) {
      new_members_.push_back(id);  // continuing
    }
    for (int i = 0; i < params_.replace_count; ++i) {
      new_members_.push_back(params_.initial_servers + 1 + i);  // fresh
    }

    actors_.resize(static_cast<size_t>(pool_) + 1);
    for (NodeId id = 1; id <= pool_; ++id) {
      actors_[static_cast<size_t>(id)] = std::make_unique<Actor>();
      net_.SetHandler(id, [this, id](NodeId from, Wire w) { OnServerWire(id, from, std::move(w)); });
      net_.SetReconnectHandler(id, [this, id](NodeId peer) { OnReconnect(id, peer); });
    }
    net_.SetHandler(ClientId(), [this](NodeId from, Wire w) {
      if (auto* resp = std::get_if<ResponseBatch>(&w)) {
        client_.OnResponse(sim_.Now(), from, *resp);
      }
    });

    // Configuration c0 on the initial servers, with preloaded history.
    for (NodeId id : old_members_) {
      StartInstance(id, /*cfg=*/0, old_members_, /*preload=*/params_.preload_entries,
                    /*priority=*/id == 1 ? 1u : 0u);
    }

    for (NodeId id = 1; id <= pool_; ++id) {
      const Time offset = (params_.election_timeout / (2 * pool_)) * (id - 1);
      sim_.ScheduleAfter(offset, [this, id]() { TickServer(id); });
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
  }

  ReconfigResult Run() {
    sim_.RunUntil(params_.warmup);
    const uint64_t completed_at_warmup = client_.completed();
    const NodeId old_leader = CurrentLeaderOf(0);
    OPX_CHECK_NE(old_leader, kNoNode) << "no c0 leader after warmup";
    old_leader_ = old_leader;

    // Propose the reconfiguration at the current leader.
    omni::StopSign ss;
    ss.next_config = 1;
    ss.next_nodes = new_members_;
    const bool ok = ActorOf(old_leader).instances.at(0).node->ProposeReconfiguration(ss);
    OPX_CHECK(ok);
    PumpServer(old_leader);
    result_.reconfig_proposed_at = sim_.Now();
    result_.steady_throughput = static_cast<double>(completed_at_warmup) /
                                ToSeconds(params_.warmup);

    sim_.RunUntil(params_.warmup + params_.run_after);

    result_.window_counts = client_.window_counts();
    result_.downtime =
        client_.LongestGap(result_.reconfig_proposed_at, params_.warmup + params_.run_after);
    // Peak egress over metric windows.
    const auto& samples = io_samples_;
    for (size_t w = 1; w < samples.size(); ++w) {
      for (NodeId id = 1; id <= pool_; ++id) {
        const uint64_t delta =
            samples[w][static_cast<size_t>(id)] - samples[w - 1][static_cast<size_t>(id)];
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
  sim::Simulator& simulator() { return sim_; }
  int pool() const { return pool_; }

  // Link control for resilience tests (e.g., cutting a donor mid-migration).
  void SetLink(NodeId a, NodeId b, bool up) { net_.SetLink(a, b, up); }

  // Schedules an arbitrary action at absolute simulated time `at`.
  void At(Time at, sim::EventFn fn) { sim_.ScheduleAt(at, std::move(fn)); }

  // Proposes a further reconfiguration (rolling upgrades, §6.1): ends `cfg`
  // with a stop-sign whose next configuration is cfg+1 on `members`. Returns
  // false if `cfg` has no leader yet.
  bool ProposeNextReconfiguration(ConfigId cfg, std::vector<NodeId> members) {
    const NodeId leader = LeaderOf(cfg);
    if (leader == kNoNode) {
      return false;
    }
    omni::StopSign ss;
    ss.next_config = cfg + 1;
    ss.next_nodes = std::move(members);
    const bool ok =
        ActorOf(leader).instances.at(cfg).node->ProposeReconfiguration(std::move(ss));
    PumpServer(leader);
    return ok;
  }

  // Leader of configuration `cfg` (highest-ballot claimant), or kNoNode.
  NodeId LeaderOf(ConfigId cfg) { return CurrentLeaderOf(cfg); }

  // Introspection (tests/debugging): the instance of `cfg` on `id`, if any.
  const omni::OmniPaxos* instance(NodeId id, ConfigId cfg) {
    auto it = ActorOf(id).instances.find(cfg);
    return it == ActorOf(id).instances.end() ? nullptr : it->second.node.get();
  }

 private:
  // --- Wire ------------------------------------------------------------------

  struct Tagged {
    ConfigId cfg = 0;
    omni::OmniMessage m;
  };
  struct NewConfigNotice {
    ConfigId cfg = 0;  // the configuration to join
    LogIndex old_len = 0;
    std::vector<NodeId> donors;
    std::vector<NodeId> members;
  };
  struct SegmentRequest {
    ConfigId cfg = 0;  // the configuration whose segment is requested
    LogIndex start = 0;
    LogIndex count = 0;
  };
  struct SegmentData {
    ConfigId cfg = 0;
    LogIndex start = 0;
    std::vector<omni::Entry> entries;
  };
  struct MigrationDone {
    ConfigId cfg = 0;
  };

  using Wire = std::variant<Tagged, NewConfigNotice, SegmentRequest, SegmentData, MigrationDone,
                            ProposeBatch, ResponseBatch>;

  static uint64_t BytesOf(const Wire& w) {
    if (const auto* t = std::get_if<Tagged>(&w)) {
      return 4 + omni::WireBytes(t->m);
    }
    if (const auto* d = std::get_if<SegmentData>(&w)) {
      return 24 + omni::EntriesWireBytes(d->entries);
    }
    if (const auto* p = std::get_if<ProposeBatch>(&w)) {
      return WireBytes(*p);
    }
    if (const auto* r = std::get_if<ResponseBatch>(&w)) {
      return WireBytes(*r);
    }
    return 24;
  }

  // --- Per-server actor --------------------------------------------------------

  struct Instance {
    std::unique_ptr<omni::Storage> storage;
    std::unique_ptr<omni::OmniPaxos> node;
    LogIndex polled = 0;
    bool stop_handled = false;
  };

  struct Migration {
    bool active = false;
    bool complete = false;
    ConfigId target = 0;  // the configuration this server is joining
    ConfigId source = 0;  // the configuration whose segment is fetched
    std::vector<NodeId> members;
    LogIndex old_len = 0;
    LogIndex chunk = 0;
    std::vector<NodeId> donors;
    std::vector<int8_t> chunk_state;      // 0=todo 1=requested 2=done
    std::vector<uint32_t> chunk_attempt;  // guards stale timeout events
    std::map<NodeId, std::vector<size_t>> donor_queue;
    size_t done_count = 0;
    std::vector<omni::Entry> fetched;
  };

  struct Actor {
    std::map<ConfigId, Instance> instances;
    std::map<ConfigId, Migration> migrations;  // keyed by target config
  };

  Actor& ActorOf(NodeId id) { return *actors_[static_cast<size_t>(id)]; }
  NodeId ClientId() const { return pool_ + 1; }

  static sim::NetworkParams MakeNetParams(const ReconfigParams& p) {
    sim::NetworkParams np;
    np.default_latency = Micros(100);
    np.egress_bytes_per_sec = p.egress_bytes_per_sec;
    np.obs = p.obs;
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

  void StartInstance(NodeId id, ConfigId cfg, const std::vector<NodeId>& members,
                     LogIndex preload, uint32_t priority) {
    omni::OmniConfig config;
    config.pid = id;
    config.config_id = cfg;
    config.ble_priority = priority;
    config.obs = params_.obs;
    for (NodeId m : members) {
      if (m != id) {
        config.peers.push_back(m);
      }
    }
    Instance inst;
    inst.storage = std::make_unique<omni::Storage>();
    if (preload > 0) {
      PreloadStorage(inst.storage.get(), preload, params_.payload_bytes);
      inst.polled = preload;
    }
    inst.node = std::make_unique<omni::OmniPaxos>(config, inst.storage.get());
    ActorOf(id).instances.emplace(cfg, std::move(inst));
    known_members_[cfg] = members;
  }

  // --- Timers -----------------------------------------------------------------

  void TickServer(NodeId id) {
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    for (auto& [cfg, inst] : ActorOf(id).instances) {
      inst.node->TickElection();
    }
    PumpServer(id);
    sim_.ScheduleAfter(params_.election_timeout, [this, id]() { TickServer(id); });
    // Piggyback the I/O sampler on server 1's tick-aligned schedule.
    if (id == 1 && sim_.Now() >= next_io_sample_) {
      SampleIo();
    }
  }

  void TickClient() {
    for (Client::Send& send : client_.Tick(sim_.Now())) {
      const uint64_t bytes = WireBytes(send.batch);
      net_.Send(ClientId(), send.to, Wire(std::move(send.batch)), static_cast<uint32_t>(bytes));
    }
    sim_.ScheduleAfter(params_.client_tick, [this]() { TickClient(); });
  }

  void SampleIo() {
    std::vector<uint64_t> snap(static_cast<size_t>(pool_) + 1, 0);
    for (NodeId id = 1; id <= pool_; ++id) {
      snap[static_cast<size_t>(id)] = net_.BytesSent(id);
    }
    io_samples_.push_back(std::move(snap));
    next_io_sample_ = sim_.Now() + params_.metrics_window;
  }

  // --- Message handling -----------------------------------------------------

  void OnServerWire(NodeId id, NodeId from, Wire w) {
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    Actor& actor = ActorOf(id);
    if (auto* tagged = std::get_if<Tagged>(&w)) {
      auto it = actor.instances.find(tagged->cfg);
      if (it != actor.instances.end()) {
        it->second.node->Handle(from, std::move(tagged->m));
      }
    } else if (auto* proposals = std::get_if<ProposeBatch>(&w)) {
      OnProposals(id, std::move(*proposals));
    } else if (auto* notice = std::get_if<NewConfigNotice>(&w)) {
      OnNewConfigNotice(id, *notice);
    } else if (auto* req = std::get_if<SegmentRequest>(&w)) {
      OnSegmentRequest(id, from, *req);
    } else if (auto* data = std::get_if<SegmentData>(&w)) {
      OnSegmentData(id, from, std::move(*data));
    } else if (const auto* done = std::get_if<MigrationDone>(&w)) {
      OnMigrationDone(id, from, done->cfg);
    }
    PumpServer(id);
  }

  void OnReconnect(NodeId id, NodeId peer) {
    if (peer < 1 || peer > pool_) {
      return;
    }
    OPX_TRACE_NOW(params_.obs, sim_.Now());
    for (auto& [cfg, inst] : ActorOf(id).instances) {
      inst.node->Reconnected(peer);
    }
    PumpServer(id);
  }

  void OnProposals(NodeId id, ProposeBatch batch) {
    Actor& actor = ActorOf(id);
    // Serve from the newest started instance.
    Instance* serving = actor.instances.empty() ? nullptr : &actor.instances.rbegin()->second;
    if (serving == nullptr || !serving->node->IsLeader() || serving->node->IsStopped()) {
      ResponseBatch reject;
      reject.leader_hint = serving == nullptr ? kNoNode : serving->node->leader_hint();
      net_.Send(id, ClientId(), Wire(std::move(reject)), 24);
      return;
    }
    for (uint64_t cmd : batch.cmd_ids) {
      serving->node->Append(omni::Entry::Command(cmd, params_.payload_bytes));
    }
  }

  // --- Service layer (§6) -----------------------------------------------------

  void MaybeHandleStop(NodeId id, ConfigId cfg, Instance& inst) {
    if (inst.stop_handled || !inst.node->IsStopped()) {
      return;
    }
    inst.stop_handled = true;
    if (result_.ss_decided_at == 0) {
      result_.ss_decided_at = sim_.Now();
    }
    const std::optional<omni::StopSign> ss = inst.node->DecidedStopSign();
    OPX_CHECK(ss.has_value());
    const ConfigId next_cfg = ss->next_config;
    OPX_TRACE(params_.obs, obs::EventKind::kReconfigStopSign, id, kNoNode, 0,
              inst.node->decided_idx(), 0, next_cfg);
    const std::vector<NodeId>& next_members = ss->next_nodes;
    const std::vector<NodeId>& current_members = MembersOf(cfg);
    const bool continuing =
        std::find(next_members.begin(), next_members.end(), id) != next_members.end();
    if (continuing && ActorOf(id).instances.count(next_cfg) == 0) {
      // §6: a server in both configurations starts the next one directly.
      StartInstance(id, next_cfg, next_members, /*preload=*/0, /*priority=*/0);
    }
    // Notify the fresh servers; they fetch the decided segment via the
    // service layer, outside log replication.
    NewConfigNotice notice;
    notice.cfg = next_cfg;
    notice.old_len = inst.node->decided_idx();
    notice.members = next_members;
    if (params_.leader_only_migration) {
      notice.donors = {CurrentLeaderOf(cfg) != kNoNode ? CurrentLeaderOf(cfg) : old_leader_};
    } else {
      for (NodeId m : current_members) {
        if (std::find(next_members.begin(), next_members.end(), m) != next_members.end()) {
          notice.donors.push_back(m);
        }
      }
      if (notice.donors.empty()) {
        notice.donors = current_members;  // degenerate: no continuing servers
      }
    }
    for (NodeId m : next_members) {
      if (std::find(current_members.begin(), current_members.end(), m) ==
          current_members.end()) {
        net_.Send(id, m, Wire(notice), 64);
      }
    }
  }

  // Membership of `cfg` as known to the harness; recorded whenever any
  // instance of `cfg` starts (and for c0 at construction).
  const std::vector<NodeId>& MembersOf(ConfigId cfg) const {
    auto it = known_members_.find(cfg);
    OPX_CHECK(it != known_members_.end()) << "unknown configuration " << cfg;
    return it->second;
  }

  void OnNewConfigNotice(NodeId id, const NewConfigNotice& notice) {
    Actor& actor = ActorOf(id);
    if (actor.instances.count(notice.cfg) > 0 || actor.migrations.count(notice.cfg) > 0) {
      return;
    }
    Migration& mig = actor.migrations[notice.cfg];
    mig.active = true;
    mig.target = notice.cfg;
    mig.source = notice.cfg - 1;
    mig.members = notice.members;
    mig.old_len = notice.old_len;
    mig.chunk = params_.migration_chunk;
    mig.donors = notice.donors;
    const size_t chunks =
        static_cast<size_t>((notice.old_len + mig.chunk - 1) / mig.chunk);
    mig.chunk_state.assign(chunks, 0);
    mig.chunk_attempt.assign(chunks, 0);
    mig.fetched.resize(notice.old_len);
    if (chunks == 0) {
      FinishMigration(id, mig.target);
      return;
    }
    for (size_t c = 0; c < chunks; ++c) {
      mig.donor_queue[mig.donors[c % mig.donors.size()]].push_back(c);
    }
    for (NodeId donor : mig.donors) {
      RequestNextChunk(id, mig.target, donor);
    }
  }

  void RequestNextChunk(NodeId id, ConfigId target, NodeId donor) {
    auto mig_it = ActorOf(id).migrations.find(target);
    if (mig_it == ActorOf(id).migrations.end() || !mig_it->second.active) {
      return;
    }
    Migration& mig = mig_it->second;
    auto queue_it = mig.donor_queue.find(donor);
    if (queue_it == mig.donor_queue.end()) {
      return;
    }
    auto& queue = queue_it->second;
    while (!queue.empty() && mig.chunk_state[queue.front()] == 2) {
      queue.erase(queue.begin());
    }
    if (queue.empty()) {
      return;
    }
    const size_t chunk_idx = queue.front();
    mig.chunk_state[chunk_idx] = 1;
    const uint32_t attempt = ++mig.chunk_attempt[chunk_idx];
    SegmentRequest req;
    req.cfg = mig.source;
    req.start = static_cast<LogIndex>(chunk_idx) * mig.chunk;
    req.count = std::min<LogIndex>(mig.chunk, mig.old_len - req.start);
    net_.Send(id, donor, Wire(req), 32);
    // On timeout, treat the donor as failed: redistribute its whole queue to
    // the other donors so nothing stays orphaned behind a dead front chunk.
    sim_.ScheduleAfter(params_.chunk_timeout,
                       [this, id, target, donor, chunk_idx, attempt]() {
      auto it = ActorOf(id).migrations.find(target);
      if (it == ActorOf(id).migrations.end()) {
        return;
      }
      Migration& m = it->second;
      if (!m.active || chunk_idx >= m.chunk_state.size() ||
          m.chunk_state[chunk_idx] != 1 || m.chunk_attempt[chunk_idx] != attempt) {
        return;
      }
      std::vector<size_t> stranded = std::exchange(m.donor_queue[donor], {});
      std::set<NodeId> poked;
      size_t rotation = 0;
      for (size_t c : stranded) {
        if (m.chunk_state[c] == 2) {
          continue;
        }
        m.chunk_state[c] = 0;
        NodeId next_donor = donor;
        for (size_t k = 1; k <= m.donors.size() && next_donor == donor; ++k) {
          next_donor = m.donors[(c + rotation + k) % m.donors.size()];
        }
        ++rotation;
        m.donor_queue[next_donor].push_back(c);
        poked.insert(next_donor);
      }
      for (NodeId d : poked) {
        RequestNextChunk(id, target, d);
      }
    });
  }

  void OnSegmentRequest(NodeId id, NodeId from, const SegmentRequest& req) {
    // Serve decided entries of the requested configuration's segment: any
    // server that has them may donate — members of that configuration, or
    // fresh servers that already completed their own migration (§6.1).
    Actor& actor = ActorOf(id);
    std::vector<omni::Entry> entries;
    auto it = actor.instances.find(req.cfg);
    if (it != actor.instances.end() &&
        it->second.storage->decided_idx() >= req.start + req.count &&
        it->second.storage->compacted_idx() <= req.start) {
      for (LogIndex i = req.start; i < req.start + req.count; ++i) {
        entries.push_back(it->second.storage->At(i));
      }
    } else {
      auto mig_it = actor.migrations.find(req.cfg + 1);
      if (mig_it != actor.migrations.end() && mig_it->second.complete &&
          mig_it->second.fetched.size() >= req.start + req.count) {
        entries.assign(
            mig_it->second.fetched.begin() + static_cast<ptrdiff_t>(req.start),
            mig_it->second.fetched.begin() + static_cast<ptrdiff_t>(req.start + req.count));
      } else {
        return;  // cannot serve; requester's timeout reassigns the chunk
      }
    }
    SegmentData data;
    data.cfg = req.cfg;
    data.start = req.start;
    data.entries = std::move(entries);
    const uint64_t bytes = BytesOf(Wire(data));
    net_.Send(id, from, Wire(std::move(data)), static_cast<uint32_t>(bytes));
  }

  void OnSegmentData(NodeId id, NodeId from, SegmentData data) {
    Actor& actor = ActorOf(id);
    auto mig_it = actor.migrations.find(data.cfg + 1);
    if (mig_it == actor.migrations.end() || !mig_it->second.active) {
      return;
    }
    Migration& mig = mig_it->second;
    const size_t chunk_idx = static_cast<size_t>(data.start / mig.chunk);
    if (chunk_idx >= mig.chunk_state.size() || mig.chunk_state[chunk_idx] == 2) {
      return;
    }
    std::copy(data.entries.begin(), data.entries.end(),
              mig.fetched.begin() + static_cast<ptrdiff_t>(data.start));
    mig.chunk_state[chunk_idx] = 2;
    ++mig.done_count;
    OPX_TRACE(params_.obs, obs::EventKind::kMigSegment, id, from, 0, data.start,
              data.entries.size(), mig.target);
#if defined(OPX_OBS_ENABLED)
    if (params_.obs != nullptr) {
      // Rare (one per migration chunk), so an inline name lookup is fine.
      params_.obs->metrics()
          .GetCounter("migration/segment_entries")
          ->Inc(data.entries.size());
    }
#endif
    if (mig.done_count == mig.chunk_state.size()) {
      FinishMigration(id, mig.target);
      return;
    }
    RequestNextChunk(id, mig.target, from);
  }

  void FinishMigration(NodeId id, ConfigId target) {
    Actor& actor = ActorOf(id);
    Migration& mig = actor.migrations.at(target);
    mig.active = false;
    mig.complete = true;
    result_.migration_done_at = sim_.Now();
    OPX_TRACE(params_.obs, obs::EventKind::kMigDone, id, kNoNode, 0,
              mig.fetched.size(), 0, target);
    // §6: the fresh server starts its components only after holding the
    // complete previous segment.
    if (actor.instances.count(target) == 0) {
      StartInstance(id, target, mig.members, /*preload=*/0, /*priority=*/0);
    }
    const std::vector<NodeId>& previous = MembersOf(target - 1);
    for (NodeId m : mig.members) {
      if (m != id &&
          std::find(previous.begin(), previous.end(), m) == previous.end()) {
        net_.Send(id, m, Wire(MigrationDone{target}), 16);
      }
    }
  }

  void OnMigrationDone(NodeId id, NodeId from, ConfigId target) {
    // A fresh server that finished becomes an additional donor (§6.1).
    auto mig_it = ActorOf(id).migrations.find(target);
    if (mig_it == ActorOf(id).migrations.end()) {
      return;
    }
    Migration& mig = mig_it->second;
    if (mig.active &&
        std::find(mig.donors.begin(), mig.donors.end(), from) == mig.donors.end()) {
      mig.donors.push_back(from);
      RequestNextChunk(id, mig.target, from);
    }
  }

  // --- Pumping ----------------------------------------------------------------

  void PumpServer(NodeId id) {
    Actor& actor = ActorOf(id);
    for (auto& [cfg, inst] : actor.instances) {
      for (omni::OmniOut& out : inst.node->TakeOutgoing()) {
        if (out.to < 1 || out.to > pool_) {
          continue;
        }
        const bool control = std::holds_alternative<omni::BleMessage>(out.body);
        Tagged tagged{cfg, std::move(out.body)};
        const uint64_t bytes = BytesOf(Wire(tagged));
        net_.Send(id, out.to, Wire(std::move(tagged)), static_cast<uint32_t>(bytes), control);
      }
      // Report decided commands to the client (leaders only).
      const LogIndex decided = inst.node->decided_idx();
      if (inst.polled < decided) {
        ResponseBatch resp;
        for (; inst.polled < decided; ++inst.polled) {
          const omni::Entry& e = inst.storage->At(inst.polled);
          if (!e.IsStopSign() && e.cmd_id != 0) {
            resp.cmd_ids.push_back(e.cmd_id);
          }
        }
        if (!resp.cmd_ids.empty() && inst.node->IsLeader()) {
          if (cfg > 0 && result_.new_config_first_decide == 0) {
            result_.new_config_first_decide = sim_.Now();
          }
          const uint64_t bytes = WireBytes(resp);
          net_.Send(id, ClientId(), Wire(std::move(resp)), static_cast<uint32_t>(bytes));
        }
      }
      MaybeHandleStop(id, cfg, inst);
    }
  }

  NodeId CurrentLeaderOf(ConfigId cfg) {
    NodeId best = kNoNode;
    omni::Ballot best_ballot;
    for (NodeId id = 1; id <= pool_; ++id) {
      auto it = ActorOf(id).instances.find(cfg);
      if (it != ActorOf(id).instances.end() && it->second.node->IsLeader() &&
          it->second.node->paxos().leader_ballot() > best_ballot) {
        best = id;
        best_ballot = it->second.node->paxos().leader_ballot();
      }
    }
    return best;
  }

  ReconfigParams params_;
  int pool_;
  sim::Simulator sim_;
  sim::Network<Wire> net_;
  Client client_;
  Rng rng_;

  std::vector<NodeId> old_members_;
  std::vector<NodeId> new_members_;
  std::map<ConfigId, std::vector<NodeId>> known_members_;
  NodeId old_leader_ = kNoNode;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::vector<uint64_t>> io_samples_;
  Time next_io_sample_ = 0;
  ReconfigResult result_;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_OMNI_RECONFIG_SIM_H_
