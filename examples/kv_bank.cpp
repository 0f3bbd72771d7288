// kv_bank — a replicated bank ledger on Omni-Paxos.
//
//   $ ./kv_bank
//
// Demonstrates building a real state machine on the replicated log: every
// server applies decided commands (account transfers) to its local KvStore.
// The run injects a leader crash and a partial partition mid-workload, then
// verifies the banking invariants: total balance conserved, and all replicas
// converge to the same state digest.
#include <cstdio>
#include <string>
#include <vector>

#include "src/kvstore/kv_store.h"
#include "src/rsm/lockstep_cluster.h"
#include "src/util/rng.h"

namespace {

constexpr int kServers = 5;
constexpr int kAccounts = 16;
constexpr int64_t kInitialBalance = 1'000;

std::string AccountKey(int i) { return "acct-" + std::to_string(i); }

}  // namespace

int main() {
  using namespace opx;

  std::printf("== replicated bank ledger on Omni-Paxos ==\n\n");

  kv::CommandLog command_log;               // cmd_id -> command payload
  std::vector<kv::KvStore> replicas(kServers + 1);  // state machine per server

  rsm::LockstepCluster<omni::OmniPaxos> cluster(kServers, {.priority_node = 1});
  cluster.set_apply([&](NodeId server, LogIndex, const omni::Entry& entry) {
    if (entry.cmd_id != 0 && !entry.IsStopSign()) {
      replicas[static_cast<size_t>(server)].Apply(command_log.Lookup(entry.cmd_id));
    }
  });

  NodeId leader = cluster.ElectLeader();
  std::printf("leader: s%d\n", leader);

  // Fund the accounts.
  for (int i = 0; i < kAccounts; ++i) {
    kv::Command put;
    put.type = kv::OpType::kPut;
    put.key = AccountKey(i);
    put.value = kInitialBalance;
    cluster.Append(leader, command_log.Register(put));
  }
  std::printf("funded %d accounts with %ld each (total %ld)\n", kAccounts, kInitialBalance,
              static_cast<int64_t>(kAccounts) * kInitialBalance);

  // Random transfers: each is two kAdd legs — both replicated, so the ledger
  // total is conserved on every replica that applied the decided prefix.
  Rng rng(2024);
  auto transfer = [&](NodeId at) {
    const int from = static_cast<int>(rng.NextBounded(kAccounts));
    int to = static_cast<int>(rng.NextBounded(kAccounts));
    if (to == from) {
      to = (to + 1) % kAccounts;
    }
    const int64_t amount = rng.NextInRange(1, 50);
    kv::Command debit;
    debit.type = kv::OpType::kAdd;
    debit.key = AccountKey(from);
    debit.value = -amount;
    kv::Command credit;
    credit.type = kv::OpType::kAdd;
    credit.key = AccountKey(to);
    credit.value = amount;
    cluster.Append(at, command_log.Register(debit));
    cluster.Append(at, command_log.Register(credit));
  };

  for (int i = 0; i < 200; ++i) {
    transfer(leader);
  }
  std::printf("applied 200 transfers\n");

  // Fault 1: crash the leader mid-stream.
  std::printf("\ncrashing leader s%d...\n", leader);
  cluster.Crash(leader);
  leader = cluster.ElectLeader();
  std::printf("new leader: s%d; continuing transfers\n", leader);
  for (int i = 0; i < 200; ++i) {
    transfer(leader);
  }

  // Fault 2: partial partition — the leader keeps only a chained connection.
  const NodeId cutoff = leader % kServers + 1;
  std::printf("\ncutting link s%d <-> s%d (partial partition)...\n", leader, cutoff);
  cluster.SetLink(leader, cutoff, false);
  for (int round = 0; round < 4; ++round) {
    cluster.Tick();
  }
  leader = cluster.CurrentLeader();
  std::printf("cluster still live with leader s%d (quorum-connected)\n", leader);
  for (int i = 0; i < 100; ++i) {
    transfer(leader);
  }

  cluster.SetLink(leader, cutoff, true);
  for (int round = 0; round < 4; ++round) {
    cluster.Tick();
  }

  // Verify: conserved total + identical digests on replicas that are caught up.
  std::printf("\nledger state per replica:\n");
  bool all_consistent = true;
  uint64_t reference_digest = 0;
  for (NodeId id = 1; id <= kServers; ++id) {
    if (cluster.IsCrashed(id)) {
      std::printf("  s%d: crashed\n", id);
      continue;
    }
    const kv::KvStore& store = replicas[static_cast<size_t>(id)];
    std::printf("  s%d: total=%ld version=%lu digest=%016lx\n", id, store.SumAll(),
                store.version(), store.Digest());
    if (store.SumAll() != static_cast<int64_t>(kAccounts) * kInitialBalance) {
      all_consistent = false;
    }
    if (reference_digest == 0) {
      reference_digest = store.Digest();
    } else if (store.Digest() != reference_digest) {
      all_consistent = false;
    }
  }
  std::printf("\ninvariants %s: balances conserved and replicas identical\n",
              all_consistent ? "HOLD" : "VIOLATED");
  return all_consistent ? 0 : 1;
}
