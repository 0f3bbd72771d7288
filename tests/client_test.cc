// Unit tests for the closed-loop benchmark client: CP maintenance, leader
// redirection, retry/rotation, duplicate suppression, and the down-time /
// windowed-throughput metrics every figure depends on.
#include <gtest/gtest.h>

#include "src/rsm/client.h"

namespace opx {
namespace {

using rsm::Client;
using rsm::ClientParams;
using rsm::ResponseBatch;

ClientParams Params(size_t cp = 10) {
  ClientParams p;
  p.servers = {1, 2, 3};
  p.concurrent_proposals = cp;
  p.retry_timeout = Millis(100);
  return p;
}

TEST(Client, TopsUpToConcurrentProposals) {
  Client client(Params(10));
  const auto sends = client.Tick(0);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].batch.cmd_ids.size(), 10u);
}

TEST(Client, NoSendWhenSaturated) {
  Client client(Params(10));
  (void)client.Tick(0);
  EXPECT_TRUE(client.Tick(Millis(1)).empty());
}

TEST(Client, RefillsAfterCompletions) {
  Client client(Params(10));
  const auto first = client.Tick(0);
  ResponseBatch resp;
  resp.cmd_ids = {first[0].batch.cmd_ids[0], first[0].batch.cmd_ids[1]};
  client.OnResponse(Millis(5), 1, resp);
  EXPECT_EQ(client.completed(), 2u);
  const auto refill = client.Tick(Millis(6));
  ASSERT_EQ(refill.size(), 1u);
  EXPECT_EQ(refill[0].batch.cmd_ids.size(), 2u);
}

TEST(Client, DuplicateResponsesCountedOnce) {
  Client client(Params(5));
  const auto first = client.Tick(0);
  ResponseBatch resp;
  resp.cmd_ids = {first[0].batch.cmd_ids[0]};
  client.OnResponse(Millis(1), 1, resp);
  client.OnResponse(Millis(2), 1, resp);
  client.OnResponse(Millis(3), 2, resp);
  EXPECT_EQ(client.completed(), 1u);
}

TEST(Client, RedirectsToHintedLeaderAndReproposes) {
  Client client(Params(5));
  (void)client.Tick(0);
  ResponseBatch reject;
  reject.leader_hint = 3;
  client.OnResponse(Millis(1), 1, reject);
  const auto resend = client.Tick(Millis(2));
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].to, 3);
  EXPECT_EQ(resend[0].batch.cmd_ids.size(), 5u);  // outstanding re-proposed
}

TEST(Client, RotatesTargetAfterSilence) {
  Client client(Params(5));
  const auto first = client.Tick(0);
  const NodeId first_target = first[0].to;
  // No responses for > retry_timeout: rotate and re-propose.
  const auto retry = client.Tick(Millis(150));
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_NE(retry[0].to, first_target);
  EXPECT_EQ(retry[0].batch.cmd_ids.size(), 5u);
}

TEST(Client, SticksWithRespondingServer) {
  Client client(Params(5));
  const auto first = client.Tick(0);
  ResponseBatch resp;
  resp.cmd_ids = {first[0].batch.cmd_ids[0]};
  client.OnResponse(Millis(1), 2, resp);  // server 2 decided something
  const auto next = client.Tick(Millis(2));
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].to, 2);
}

TEST(Client, WindowCountsBucketCompletions) {
  Client client(Params(4));
  client.set_window_width(Seconds(1));
  const auto first = client.Tick(0);
  ResponseBatch resp;
  resp.cmd_ids = {first[0].batch.cmd_ids[0]};
  client.OnResponse(Millis(500), 1, resp);     // window 0
  ResponseBatch resp2;
  resp2.cmd_ids = {first[0].batch.cmd_ids[1], first[0].batch.cmd_ids[2]};
  client.OnResponse(Millis(2'500), 1, resp2);  // window 2
  const auto& windows = client.window_counts();
  ASSERT_GE(windows.size(), 3u);
  EXPECT_EQ(windows[0], 1u);
  EXPECT_EQ(windows[1], 0u);
  EXPECT_EQ(windows[2], 2u);
}

TEST(Client, LongestGapTracksDowntime) {
  Client client(Params(4));
  const auto first = client.Tick(0);
  auto respond_one = [&](size_t i, Time at) {
    ResponseBatch resp;
    resp.cmd_ids = {first[0].batch.cmd_ids[i]};
    client.OnResponse(at, 1, resp);
  };
  respond_one(0, Millis(10));
  respond_one(1, Millis(20));
  // 980 ms outage.
  respond_one(2, Millis(1000));
  respond_one(3, Millis(1010));
  EXPECT_EQ(client.LongestGap(0, Millis(1010)), Millis(980));
  // Clipped to a window inside the outage.
  EXPECT_EQ(client.LongestGap(Millis(100), Millis(600)), Millis(500));
  // Open-ended gap at the query horizon.
  EXPECT_EQ(client.LongestGap(0, Seconds(5)), Seconds(5) - Millis(1010));
}

TEST(Client, MeanLatencyAveragesProposeToDecide) {
  Client client(Params(2));
  const auto first = client.Tick(0);
  ResponseBatch resp;
  resp.cmd_ids = first[0].batch.cmd_ids;
  client.OnResponse(Millis(100), 1, resp);
  EXPECT_NEAR(client.MeanLatencySeconds(), 0.1, 1e-9);
}

// Rotation and redirects follow the configured list, whatever its ids: the
// TCP drivers hand the client the ids of the servers they have endpoints
// for.
TEST(Client, NonContiguousServerIdsRotateInListOrder) {
  ClientParams p = Params(3);
  p.servers = {2, 5, 9};
  Client client(p);
  EXPECT_EQ(client.Tick(0)[0].to, 2);
  EXPECT_EQ(client.Tick(Millis(150))[0].to, 5);
  EXPECT_EQ(client.Tick(Millis(300))[0].to, 9);
  EXPECT_EQ(client.Tick(Millis(450))[0].to, 2);  // wraps to the front
}

TEST(Client, FollowsHintsOnlyToListedServers) {
  ClientParams p = Params(3);
  p.servers = {2, 5, 9};
  Client client(p);
  (void)client.Tick(0);
  ResponseBatch redirect;
  redirect.leader_hint = 4;  // not a server this client can reach
  client.OnResponse(Millis(1), 2, redirect);
  EXPECT_TRUE(client.Tick(Millis(2)).empty());  // no move, nothing re-sent
  redirect.leader_hint = 9;
  client.OnResponse(Millis(3), 2, redirect);
  const auto resend = client.Tick(Millis(4));
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].to, 9);
  EXPECT_EQ(resend[0].batch.cmd_ids.size(), 3u);
}

// The server acks an id only on the connection that proposed it, so a lost
// connection loses every ack in flight on it: the next Tick re-sends them all
// to the same target.
TEST(Client, ReproposesInFlightWorkAfterConnectionLoss) {
  ClientParams p = Params(4);
  p.read_fraction = 0.5;
  Client client(p);
  const auto first = client.Tick(0);
  ASSERT_EQ(first.size(), 1u);
  ResponseBatch resp;
  resp.cmd_ids = {first[0].batch.cmd_ids[0]};
  client.OnResponse(Millis(1), 1, resp);
  client.OnDisconnected(Millis(2), 1);
  const auto resend = client.Tick(Millis(3));
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].to, 1);  // same target: a drop is not a rotation
  // Three survivors re-proposed, one top-up for the completed command.
  EXPECT_EQ(resend[0].batch.cmd_ids.size(), 4u);
  EXPECT_EQ(resend[0].reads.size(), 2u);
  // Loss of a connection to a server the client already left changes nothing.
  client.OnDisconnected(Millis(4), 3);
  EXPECT_TRUE(client.Tick(Millis(5)).empty());
}

TEST(Client, UnreachableServerIsRotatedPastAtOnce) {
  Client client(Params(2));
  (void)client.Tick(0);
  client.OnUnreachable(Millis(1), 1);
  const auto resend = client.Tick(Millis(2));
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].to, 2);
  EXPECT_EQ(resend[0].batch.cmd_ids.size(), 2u);
  // The unreachable server is suspect: its hint is not followed until
  // something completes.
  ResponseBatch redirect;
  redirect.leader_hint = 1;
  client.OnResponse(Millis(3), 2, redirect);
  EXPECT_EQ(client.Tick(Millis(4))[0].to, 2);
}

TEST(Client, DriverChosenIdsWithoutTopUp) {
  ClientParams p = Params(0);
  Client client(p);
  EXPECT_TRUE(client.Tick(0).empty());
  client.Propose(Millis(1), 42);
  client.Propose(Millis(1), 42);  // already outstanding
  const auto sends = client.Tick(Millis(1));
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].batch.cmd_ids, std::vector<uint64_t>{42});
  EXPECT_TRUE(client.IsPending(42));
  std::vector<Time> latencies;
  client.set_latency_sink(&latencies);
  ResponseBatch resp;
  resp.cmd_ids = {42, 43};  // 43 was never proposed here
  client.OnResponse(Millis(4), 1, resp);
  EXPECT_FALSE(client.IsPending(42));
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(client.stale_acks(), 1u);
  EXPECT_EQ(latencies, std::vector<Time>{Millis(3)});
}

// An idle client's retry clock starts when work arrives, not at t=0: a first
// command proposed late must not be treated as a long-stalled one.
TEST(Client, FirstProposalLateDoesNotRotate) {
  Client client(Params(0));
  client.Propose(Seconds(10), 1);
  EXPECT_EQ(client.Tick(Seconds(10))[0].to, 1);
  EXPECT_TRUE(client.Tick(Seconds(10) + Millis(50)).empty());
}

TEST(Client, DriverReadCarriesTheHigherWatermark) {
  Client client(Params(0));
  const uint64_t id = client.Read(0, 7);
  const auto sends = client.Tick(0);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(sends[0].reads.size(), 1u);
  EXPECT_EQ(sends[0].reads[0].watermark, 7u);
  rsm::ReadReply bounce;
  bounce.read_id = id;
  bounce.leader_hint = 2;
  client.OnReadReply(Millis(1), 1, bounce);
  EXPECT_EQ(client.reads_bounced(), 1u);
  const auto resend = client.Tick(Millis(2));
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].to, 2);
  ASSERT_EQ(resend[0].reads.size(), 1u);
  EXPECT_EQ(resend[0].reads[0].watermark, 7u);
  rsm::ReadReply served = bounce;
  served.served = true;
  served.decided_idx = 9;
  client.OnReadReply(Millis(3), 2, served);
  EXPECT_FALSE(client.IsReadPending(id));
  EXPECT_EQ(client.read_watermark(), 9u);
  client.Read(Millis(4), 3);  // below what the client has already seen
  EXPECT_EQ(client.Tick(Millis(4))[0].reads[0].watermark, 9u);
}

}  // namespace
}  // namespace opx
