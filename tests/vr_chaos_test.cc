// Seeded chaos sweep for the VR baseline (view-change election over Sequence
// Paxos): decided prefixes must agree on every round of every seed, and the
// cluster must recover once fully healed.
#include <gtest/gtest.h>

#include "src/rsm/lockstep_cluster.h"
#include "src/util/rng.h"
#include "src/vr/vr_replica.h"

namespace opx {
namespace {

constexpr int kServers = 5;

class VrChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VrChaosTest, DecidedPrefixesAgree) {
  Rng rng(GetParam());
  vr::VrReplicaConfig base;
  base.seed = GetParam() * 10;
  rsm::LockstepCluster<vr::VrReplica> cluster(kServers, base);
  cluster.TickRounds(5);

  uint64_t next_cmd = 1;
  for (int round = 0; round < 100; ++round) {
    switch (rng.NextBounded(8)) {
      case 0: {
        const NodeId a = static_cast<NodeId>(rng.NextInRange(1, kServers));
        const NodeId b = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (a != b) {
          cluster.SetLink(a, b, false);
        }
        break;
      }
      case 1:
        cluster.HealAll();
        break;
      default:
        break;
    }
    if (const NodeId leader = cluster.CurrentLeader(); leader != kNoNode) {
      cluster.node(leader).Append(omni::Entry::Command(next_cmd++, 8));
    }
    cluster.Tick();
    for (NodeId a = 1; a <= kServers; ++a) {
      for (NodeId b = a + 1; b <= kServers; ++b) {
        const LogIndex common = std::min(cluster.node(a).decided_idx(),
                                         cluster.node(b).decided_idx());
        for (LogIndex i = 0; i < common; ++i) {
          ASSERT_EQ(cluster.storage(a).At(i), cluster.storage(b).At(i))
              << "divergence at " << i << " (seed " << GetParam() << ", round "
              << round << ")";
        }
      }
    }
  }
  cluster.HealAll();
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode) << "seed " << GetParam();
  const LogIndex before = cluster.node(leader).decided_idx();
  cluster.Append(leader, next_cmd++);
  EXPECT_GT(cluster.node(leader).decided_idx(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VrChaosTest, ::testing::Range<uint64_t>(600, 608));

}  // namespace
}  // namespace opx
