#include "sim.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "src/rsm/experiments.h"
#include "trace.h"

namespace perfbench {
namespace {

using opx::Time;
namespace rsm = opx::rsm;

// Each simulation advances in RunUntil calls of this much simulated time; the
// wall time of one call is the sim-paper latency sample.
constexpr Time kSlice = opx::Millis(100);
// Bring-ups of the Fig. 7 cluster (construction until the first decided
// command) before every pass; setup_s is the fastest of all of them, like
// every other sim-paper time. The samples span the whole run rather than one
// moment of it. Their median moved by 26% between two sets of ten runs on the
// calibration host as other tenants' load changed, more than any other
// sim-paper figure, all of which take the fastest repetition.
constexpr int kSetupsPerPass = 5;

struct SimCase {
  const char* name;
  bool normal;  // Fig. 7 regular execution, else a Table 1 partition scenario
  rsm::Scenario scenario;
  bool raft;  // Raft PV+CQ instead of Omni-Paxos
  // Every server on the real segmented WAL + DurableStorage over the
  // in-memory FaultFs (ClusterParams::wal): the WAL layer's CPU cost without
  // the host disk, whose latency this host cannot hold steady.
  bool wal;
};

constexpr SimCase kCases[] = {
    {"fig7", true, rsm::Scenario::kQuorumLoss, false, false},
    {"omni-quorum-loss", false, rsm::Scenario::kQuorumLoss, false, false},
    {"omni-constrained", false, rsm::Scenario::kConstrained, false, false},
    {"omni-chained", false, rsm::Scenario::kChained, false, false},
    {"raftpvcq-quorum-loss", false, rsm::Scenario::kQuorumLoss, true, false},
    {"fig7-wal", true, rsm::Scenario::kQuorumLoss, false, true},
};
constexpr size_t kNumCases = sizeof(kCases) / sizeof(kCases[0]);
static_assert(kCases[0].normal && !kCases[0].wal && kCases[kNumCases - 1].wal,
              "audit/wal shares compare the first case with the last");

// Outcomes of the fixed schedule, stored with the benchmark. The simulator is
// deterministic, so every pass must reproduce them exactly.
struct Expected {
  double throughput;  // fig7: decided/s over the measured interval
  bool recovered;     // partition cases
  Time downtime;      // partition cases, ns
};
constexpr Expected kExpected[kNumCases] = {
    {500'000, false, 0},
    {0, true, 155'500'001},
    {0, true, 81'400'000},
    {0, true, 600'000},
    {0, true, 111'900'000},
    {500'000, false, 0},
};

struct CaseResult {
  double throughput = 0;
  bool recovered = false;
  Time downtime = 0;
  uint64_t decided = 0;
  uint64_t messages = 0;
  double election_io_share = 0;
  uint64_t wal_bytes = 0;  // appended to the servers' WALs (wal cases)
};

rsm::NormalConfig Fig7Config(bool audit) {
  rsm::NormalConfig cfg;
  cfg.num_servers = 3;
  cfg.concurrent_proposals = 500;
  cfg.election_timeout = opx::Millis(50);
  cfg.warmup = opx::Millis(500);
  cfg.duration = opx::Millis(1500);
  cfg.seed = 42;
  cfg.audit = audit;
  return cfg;
}

rsm::PartitionConfig TableConfig(rsm::Scenario s) {
  rsm::PartitionConfig cfg;
  cfg.scenario = s;
  cfg.num_servers = s == rsm::Scenario::kChained ? 3 : 5;
  cfg.warmup = opx::Seconds(2);
  cfg.partition_duration = opx::Seconds(10);
  cfg.post_heal = opx::Seconds(3);
  cfg.seed = 1000;
  return cfg;
}

// Advances a simulation in kSlice steps, timing each ClusterSim::RunUntil
// in wall time and in this thread's CPU time.
struct Slicer {
  std::vector<double>* slice_ns = nullptr;
  std::vector<double>* slice_cpu_ns = nullptr;
  ThreadTrace* trace = nullptr;

  template <typename Sim>
  void Advance(Sim& sim, Time until) {
    while (sim.simulator().Now() < until) {
      const Time t = std::min(sim.simulator().Now() + kSlice, until);
      const int64_t start = NowNs();
      const int64_t cpu_start = ThreadCpuNs();
      sim.RunUntil(t);
      const int64_t cpu_end = ThreadCpuNs();
      const int64_t end = NowNs();
      if (slice_ns != nullptr) {
        slice_ns->push_back(static_cast<double>(end - start));
        slice_cpu_ns->push_back(static_cast<double>(cpu_end - cpu_start));
      }
      if (trace != nullptr) {
        trace->Leaf(SpanKind::kSimSlice, start, end);
      }
    }
  }
};

template <typename Sim>
uint64_t MessagesSent(Sim& sim) {
  uint64_t total = 0;
  for (opx::NodeId id = 1; id <= sim.num_servers() + 1; ++id) {
    total += sim.network().MessagesSent(id);
  }
  return total;
}

// rsm::RunNormal (LAN) driven in slices, optionally WAL-backed.
template <typename Node>
CaseResult SlicedNormal(const rsm::NormalConfig& cfg, bool wal, Slicer& sl) {
  rsm::ClusterParams params;
  params.num_servers = cfg.num_servers;
  params.election_timeout = cfg.election_timeout;
  params.concurrent_proposals = cfg.concurrent_proposals;
  params.seed = cfg.seed;
  params.proposal_rate = cfg.proposal_rate;
  params.preferred_leader = 1;
  params.audit = cfg.audit;
  params.wal = wal;
  params.net.default_latency = opx::Micros(100);
  rsm::ClusterSim<Node> sim(params);

  sl.Advance(sim, cfg.warmup);
  const uint64_t at_warmup = sim.client().completed();
  sl.Advance(sim, cfg.warmup + cfg.duration);
  CaseResult r;
  r.throughput = static_cast<double>(sim.client().completed() - at_warmup) /
                 opx::ToSeconds(cfg.duration);
  const uint64_t total = sim.network().TotalBytesSent();
  r.election_io_share = Ratio(static_cast<double>(sim.TotalElectionBytes()),
                              static_cast<double>(total));
  r.decided = sim.client().completed();
  r.messages = MessagesSent(sim);
  r.wal_bytes = sim.wal_fs() != nullptr ? sim.wal_fs()->total_appended() : 0;
  return r;
}

// rsm::RunPartition driven in slices.
template <typename Node>
CaseResult SlicedPartition(const rsm::PartitionConfig& cfg, Slicer& sl) {
  rsm::ClusterParams params;
  params.num_servers = cfg.num_servers;
  params.election_timeout = cfg.election_timeout;
  params.concurrent_proposals = cfg.concurrent_proposals;
  params.seed = cfg.seed;
  params.proposal_rate = cfg.proposal_rate;
  params.preferred_leader = 1;
  params.audit = cfg.audit;
  params.net.default_latency = opx::Micros(100);
  rsm::ClusterSim<Node> sim(params);
  const Time warmup =
      cfg.warmup != 0 ? cfg.warmup : std::max<Time>(opx::Seconds(10), 6 * cfg.election_timeout);

  rsm::LinkControl lc;
  lc.num_servers = cfg.num_servers;
  lc.set_link = [&sim](opx::NodeId a, opx::NodeId b, bool up) {
    sim.network().SetLink(a, b, up);
  };

  CaseResult r;
  sl.Advance(sim, warmup);
  const opx::NodeId leader = sim.CurrentLeader();
  if (leader == opx::kNoNode) {
    r.downtime = cfg.partition_duration;
    return r;
  }
  const opx::NodeId hub = leader % cfg.num_servers + 1;
  Time cut_time = sim.simulator().Now();
  switch (cfg.scenario) {
    case rsm::Scenario::kQuorumLoss:
      rsm::ApplyQuorumLoss(lc, hub);
      break;
    case rsm::Scenario::kConstrained:
      rsm::ApplyConstrainedEarlyCut(lc, hub, leader);
      sl.Advance(sim, cut_time + cfg.election_timeout / 2);
      cut_time = sim.simulator().Now();
      rsm::ApplyConstrainedMainCut(lc, hub, leader);
      break;
    case rsm::Scenario::kChained: {
      opx::NodeId other = opx::kNoNode;
      for (opx::NodeId id = 1; id <= cfg.num_servers; ++id) {
        if (id != leader && id != hub) {
          other = id;
        }
      }
      rsm::ApplyChained(lc, leader, hub, other);
      break;
    }
  }
  const uint64_t completed_at_cut = sim.client().completed();
  const Time heal_time = cut_time + cfg.partition_duration;
  sl.Advance(sim, heal_time);
  const uint64_t decided_during = sim.client().completed() - completed_at_cut;
  r.recovered = sim.client().last_completion_time() > cut_time + 8 * cfg.election_timeout &&
                decided_during > 0;
  rsm::HealAll(lc);
  sl.Advance(sim, heal_time + cfg.post_heal);
  r.downtime = sim.client().LongestGap(cut_time, heal_time + cfg.post_heal);
  r.decided = sim.client().completed();
  r.messages = MessagesSent(sim);
  return r;
}

CaseResult RunCase(const SimCase& c, bool audit, Slicer& sl) {
  if (c.normal) {
    rsm::NormalConfig cfg = Fig7Config(audit);
    if (c.wal) {
      cfg.duration = opx::Millis(500);  // the in-memory journal grows with every append
    }
    return SlicedNormal<rsm::OmniNode>(cfg, c.wal, sl);
  }
  rsm::PartitionConfig cfg = TableConfig(c.scenario);
  cfg.audit = audit;
  return c.raft ? SlicedPartition<rsm::RaftPvCqNode>(cfg, sl)
                : SlicedPartition<rsm::OmniNode>(cfg, sl);
}

// Differences between a case's outcome and its stored value.
void CheckCase(size_t i, const CaseResult& r, std::vector<std::string>* errors) {
  const SimCase& c = kCases[i];
  const Expected& e = kExpected[i];
  char buf[200];
  if (c.normal && r.throughput != e.throughput) {
    std::snprintf(buf, sizeof(buf), "%s: decided throughput %.6f != stored %.6f", c.name,
                  r.throughput, e.throughput);
    errors->push_back(buf);
  }
  if (!c.normal && (r.recovered != e.recovered || r.downtime != e.downtime)) {
    std::snprintf(buf, sizeof(buf), "%s: recovered=%d downtime=%lld ns != stored %d / %lld ns",
                  c.name, r.recovered ? 1 : 0, static_cast<long long>(r.downtime),
                  e.recovered ? 1 : 0, static_cast<long long>(e.downtime));
    errors->push_back(buf);
  }
}

struct PassStats {
  ProcAcct cpu;
  uint64_t decided = 0;
  uint64_t messages = 0;
  std::array<double, kNumCases> case_cpu_s{};
  // Untraced passes: wall and CPU time of each RunUntil slice, per case, in
  // order.
  std::array<std::vector<double>, kNumCases> case_slice_ns;
  std::array<std::vector<double>, kNumCases> case_slice_cpu_ns;
  std::array<CaseResult, kNumCases> results{};
};

// One pass over every case, in an order rotated by the seed (the cases
// themselves are fixed inputs). A traced pass records spans into `trace`;
// an untraced one (trace == nullptr) times every slice instead.
PassStats RunPass(uint64_t seed, ThreadTrace* trace, std::vector<std::string>* errors) {
  PassStats p;
  const ProcAcct cpu0 = ReadProcAcct();
  for (size_t k = 0; k < kNumCases; ++k) {
    const size_t i = (k + seed) % kNumCases;
    Slicer sl{trace == nullptr ? &p.case_slice_ns[i] : nullptr,
              trace == nullptr ? &p.case_slice_cpu_ns[i] : nullptr, trace};
    const ProcAcct c0 = ReadProcAcct();
    const int64_t start = NowNs();
    if (trace != nullptr) {
      trace->BeginParent(SpanKind::kSimRun, start);
    }
    p.results[i] = RunCase(kCases[i], /*audit=*/true, sl);
    if (trace != nullptr) {
      trace->EndParent(NowNs());
    }
    p.case_cpu_s[i] = (ReadProcAcct() - c0).cpu_s();
    p.decided += p.results[i].decided;
    p.messages += p.results[i].messages;
    CheckCase(i, p.results[i], errors);
  }
  p.cpu = ReadProcAcct() - cpu0;
  return p;
}

// One bring-up of the Fig. 7 cluster until its first decided command.
double SetupSeconds() {
  const rsm::NormalConfig cfg = Fig7Config(true);
  rsm::ClusterParams params;
  params.num_servers = cfg.num_servers;
  params.election_timeout = cfg.election_timeout;
  params.concurrent_proposals = cfg.concurrent_proposals;
  params.seed = cfg.seed;
  params.preferred_leader = 1;
  params.net.default_latency = opx::Micros(100);
  const int64_t t0 = NowNs();
  {
    rsm::ClusterSim<rsm::OmniNode> sim(params);
    while (sim.client().completed() == 0 && sim.simulator().Now() < cfg.warmup) {
      sim.RunUntil(sim.simulator().Now() + opx::Millis(1));
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

}  // namespace

RunOutcome RunSimPaper(const RunSpec& spec) {
  // Keep every page the simulator has touched for the rest of the process:
  // no mmap'd chunks, no heap trimming. Each case frees 75-150 MB that the
  // next one allocates again. Returned to the kernel, those pages were
  // faulted in again by every case (about 30% of a pass was kernel time on
  // the calibration host, a 2.7 s pass now takes 2.0 s), and a VM's
  // free-page reporting can hand them to the hypervisor in between, so the
  // faults' cost followed the host. Only the first pass touches fresh memory
  // now (see sim.minor_faults_per_decided); later passes reuse the heap.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  RunOutcome out;
  std::vector<double> setups;
  std::vector<PassStats> passes;
  std::vector<PassStats> traced_passes;
  std::vector<double> raw_fig7_cpu;
  ThreadTrace trace;
  trace.SetWindow(0, INT64_MAX);
  const int64_t deadline = NowNs() + static_cast<int64_t>(spec.seconds * 1e9);
  const HostCpu host0 = ReadHostCpu();
  uint64_t seed = spec.seed;
  do {
    for (int k = 0; k < kSetupsPerPass; ++k) {
      setups.push_back(SetupSeconds());
    }
    passes.push_back(RunPass(seed++, nullptr, &out.errors));
    if (spec.traced) {
      SetThreadTrace(&trace);
      traced_passes.push_back(RunPass(seed++, &trace, &out.errors));
      SetThreadTrace(nullptr);
      // Fig. 7 once more with the auditor off: the audit layer's CPU share.
      Slicer none;
      const ProcAcct c0 = ReadProcAcct();
      RunCase(kCases[0], /*audit=*/false, none);
      raw_fig7_cpu.push_back((ReadProcAcct() - c0).cpu_s());
    }
  } while (NowNs() < deadline);

  std::vector<double> pass_cpu;
  for (const PassStats& p : passes) {
    pass_cpu.push_back(p.cpu.cpu_s());
  }
  // Every pass repeats the same deterministic cases, and interference from
  // the rest of the host only ever adds time, so each slice counts with its
  // fastest repetition in the run, in wall and in CPU time alike. On the
  // calibration host (300 MB of L3 shared with other tenants) this ~290 MB
  // thread ran 30-50% slower for seconds to minutes at a time, while the TCP
  // workloads' CPU per op held within 3%. A whole case at its fastest pass
  // still moved by more than a third of the bound from run to run; a 100 ms
  // slice is short enough that some pass usually runs it in a quiet moment.
  // A slowdown that lasts the whole run remains, and is why this workload
  // spreads most.
  double fastest_cpu_ns = 0;
  double fastest_wall_ns = 0;
  double decided = 0;
  std::vector<double> slice_ns;
  for (size_t i = 0; i < kNumCases; ++i) {
    std::vector<double> wall = passes.front().case_slice_ns[i];
    std::vector<double> cpu = passes.front().case_slice_cpu_ns[i];
    for (const PassStats& p : passes) {
      for (size_t j = 0; j < wall.size() && j < p.case_slice_ns[i].size(); ++j) {
        wall[j] = std::min(wall[j], p.case_slice_ns[i][j]);
        cpu[j] = std::min(cpu[j], p.case_slice_cpu_ns[i][j]);
      }
    }
    for (size_t j = 0; j < wall.size(); ++j) {
      fastest_wall_ns += wall[j];
      fastest_cpu_ns += cpu[j];
    }
    decided += static_cast<double>(passes.front().results[i].decided);
    slice_ns.insert(slice_ns.end(), wall.begin(), wall.end());
  }
  const PassStats& first = passes.front();
  Time max_omni_downtime = 0;
  for (size_t i = 0; i < kNumCases; ++i) {
    if (!kCases[i].normal && !kCases[i].raft) {
      max_omni_downtime = std::max(max_omni_downtime, first.results[i].downtime);
    }
  }
  out.attempted = passes.size() * kNumCases;
  out.failed = 0;
  out.e2e.push_back({"setup_s", *std::min_element(setups.begin(), setups.end()), "s"});
  out.e2e.push_back({"p50_ms", PercentileOr0(slice_ns, 50) / 1e6, "ms"});
  out.e2e.push_back({"p90_ms", PercentileOr0(slice_ns, 90) / 1e6, "ms"});
  out.e2e.push_back({"goodput_ops_s", Ratio(decided * 1e9, fastest_wall_ns), "ops/s"});
  out.e2e.push_back({"cpu_us_per_op", Ratio(fastest_cpu_ns / 1e3, decided), "us"});
  out.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  out.extra.push_back({"p99_ms", PercentileOr0(slice_ns, 99) / 1e6, "ms"});
  out.extra.push_back({"sim_cpu_s", PercentileOr0(pass_cpu, 50), "s"});
  out.extra.push_back({"sim_downtime_ms", static_cast<double>(max_omni_downtime) / 1e6, "sim-ms"});
  out.extra.push_back({"fig7_decided_per_s", first.results[0].throughput, "ops/s"});
  out.extra.push_back({"passes", static_cast<double>(passes.size()), "count"});
  out.extra.push_back({"host.steal_share", ReadHostCpu().steal_share_since(host0), "ratio"});
  for (size_t i = 0; i < kNumCases; ++i) {
    if (kCases[i].normal) {
      continue;
    }
    out.extra.push_back({std::string(kCases[i].name) + ".downtime_ms",
                         static_cast<double>(first.results[i].downtime) / 1e6, "sim-ms"});
    out.extra.push_back({std::string(kCases[i].name) + ".recovered",
                         first.results[i].recovered ? 1.0 : 0.0, "bool"});
  }

  if (spec.traced) {
    std::vector<double> traced_cpu;
    std::vector<double> traced_cpu_per_op;
    for (const PassStats& p : traced_passes) {
      traced_cpu.push_back(p.cpu.cpu_s());
      traced_cpu_per_op.push_back(p.cpu.cpu_s() * 1e6 / static_cast<double>(p.decided));
    }
    const PassStats& tp = traced_passes.front();
    const double dec = static_cast<double>(tp.decided);
    MetricList& m = out.layers;
    m.push_back({"sim.cpu_us_per_decided", PercentileOr0(traced_cpu_per_op, 50), "us"});
    m.push_back({"sim.msgs_per_decided", Ratio(static_cast<double>(tp.messages), dec), "count"});
    // Kernel share and page faults of the run's first pass, the only one that
    // touches fresh memory (later passes reuse the retained heap): a measure
    // of how much memory the cases use.
    m.push_back({"sim.sys_cpu_share", Ratio(first.cpu.sys_s, first.cpu.cpu_s()), "ratio"});
    m.push_back({"sim.minor_faults_per_decided",
                 Ratio(static_cast<double>(first.cpu.minflt), static_cast<double>(first.decided)),
                 "count"});
    for (size_t i = 0; i < kNumCases; ++i) {
      std::vector<double> v;
      for (const PassStats& p : traced_passes) {
        v.push_back(p.case_cpu_s[i]);
      }
      m.push_back(
          {std::string("rsm.scenario_cpu_s.") + kCases[i].name, PercentileOr0(v, 50), "s"});
    }
    std::vector<double> audited;
    for (const PassStats& p : traced_passes) {
      audited.push_back(p.case_cpu_s[0]);
    }
    const double a = PercentileOr0(audited, 50);
    m.push_back({"audit.cpu_share", Ratio(a - PercentileOr0(raw_fig7_cpu, 50), a), "ratio"});
    // The WAL layer: what fig7-wal spends per decided command beyond fig7.
    const size_t wal_case = kNumCases - 1;
    std::vector<double> plain_per_op;
    std::vector<double> wal_per_op;
    for (const PassStats& p : traced_passes) {
      plain_per_op.push_back(
          Ratio(p.case_cpu_s[0], static_cast<double>(p.results[0].decided)));
      wal_per_op.push_back(
          Ratio(p.case_cpu_s[wal_case], static_cast<double>(p.results[wal_case].decided)));
    }
    const double w = PercentileOr0(wal_per_op, 50);
    m.push_back({"wal.sim_cpu_share", Ratio(w - PercentileOr0(plain_per_op, 50), w), "ratio"});
    m.push_back({"wal.sim_bytes_per_op",
                 Ratio(static_cast<double>(tp.results[wal_case].wal_bytes),
                       static_cast<double>(tp.results[wal_case].decided)),
                 "bytes"});
    m.push_back({"sim.election_io_share", tp.results[0].election_io_share, "ratio"});
    const double untraced = PercentileOr0(pass_cpu, 50);
    m.push_back({"trace.overhead_cpu_share",
                 Ratio(PercentileOr0(traced_cpu, 50) - untraced, untraced), "ratio"});
    if (!spec.spans_path.empty()) {
      if (std::FILE* f = std::fopen(spec.spans_path.c_str(), "w")) {
        trace.WriteJsonl(f, "sim");
        std::fclose(f);
      }
    }
  }
  return out;
}

std::vector<std::string> CheckSlicedMatchesLibrary() {
  std::vector<std::string> errors;
  Slicer none;
  const rsm::NormalResult lib7 = rsm::RunNormal<rsm::OmniNode>(Fig7Config(true));
  const CaseResult s7 = RunCase(kCases[0], true, none);
  if (lib7.throughput != s7.throughput ||
      lib7.election_io_share != s7.election_io_share) {
    errors.push_back("fig7: sliced run differs from rsm::RunNormal");
  }
  for (size_t i = 0; i < kNumCases; ++i) {
    if (kCases[i].normal) {
      continue;  // fig7 is compared above; RunNormal has no WAL-backed form
    }
    const rsm::PartitionConfig cfg = TableConfig(kCases[i].scenario);
    const rsm::PartitionResult lib = kCases[i].raft
                                         ? rsm::RunPartition<rsm::RaftPvCqNode>(cfg)
                                         : rsm::RunPartition<rsm::OmniNode>(cfg);
    const CaseResult s = RunCase(kCases[i], true, none);
    if (lib.downtime != s.downtime || lib.recovered != s.recovered) {
      errors.push_back(std::string(kCases[i].name) +
                       ": sliced run differs from rsm::RunPartition");
    }
  }
  return errors;
}

}  // namespace perfbench
