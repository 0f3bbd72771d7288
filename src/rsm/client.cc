#include "src/rsm/client.h"

#include <algorithm>

#include "src/util/check.h"

namespace opx::rsm {

std::vector<NodeId> ServerIds(int n) {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= n; ++id) {
    ids.push_back(id);
  }
  return ids;
}

Client::Client(ClientParams params, uint64_t first_cmd_id)
    : params_(std::move(params)), next_cmd_(first_cmd_id) {
  OPX_CHECK(!params_.servers.empty());
  target_ = params_.servers.front();
}

bool Client::Knows(NodeId server) const {
  return std::find(params_.servers.begin(), params_.servers.end(), server) !=
         params_.servers.end();
}

void Client::Rotate() {
  const auto it = std::find(params_.servers.begin(), params_.servers.end(), target_);
  const bool wraps = it == params_.servers.end() || it + 1 == params_.servers.end();
  target_ = wraps ? params_.servers.front() : *(it + 1);
}

std::vector<Client::Send> Client::Tick(Time now) {
  ProposeBatch batch;
  batch.payload_bytes = params_.payload_bytes;

  // Rotate the contact server when responses dried up, and re-propose
  // everything outstanding (commands may have been lost with a deposed
  // leader; the log tolerates duplicates, the client counts unique ids).
  if (!outstanding_.empty() && now - std::max(last_write_response_, last_completion_) >
                                   params_.retry_timeout) {
    // Writes have stalled. Rotate only if the target is *fully* silent —
    // served lease reads prove it is alive (and a lease-holding leader), in
    // which case the in-flight batch was simply lost and re-proposing to the
    // same target is the productive move.
    if (now - std::max(last_response_, last_completion_) > params_.retry_timeout) {
      suspect_ = target_;
      Rotate();
    }
    last_response_ = now;  // back off one retry period before rotating again
    last_write_response_ = now;
    need_reproposal_ = true;
    need_read_resend_ = true;
  }
  if (need_reproposal_) {
    need_reproposal_ = false;
    for (auto& [cmd, first_sent] : outstanding_) {
      batch.cmd_ids.push_back(cmd);
    }
  }

  // Top up to CP outstanding proposals.
  while (outstanding_.size() < params_.concurrent_proposals) {
    const uint64_t cmd = next_cmd_++;
    outstanding_.emplace(cmd, now);
    batch.cmd_ids.push_back(cmd);
  }

  // Lease reads ride along to the same target. Re-sends reuse the watermark
  // captured at issue time (the constraint the read must satisfy); top-ups
  // carry the current one.
  std::vector<ReadRequest> reads;
  if (need_read_resend_) {
    need_read_resend_ = false;
    for (const auto& [id, pending] : outstanding_reads_) {
      reads.push_back(ReadRequest{id, pending.watermark});
    }
  }
  if (params_.read_fraction > 0.0) {
    const size_t target_reads = static_cast<size_t>(
        static_cast<double>(params_.concurrent_proposals) * params_.read_fraction + 0.999);
    while (outstanding_reads_.size() < target_reads) {
      const uint64_t id = next_read_++;
      outstanding_reads_.emplace(id, PendingRead{read_watermark_, now});
      reads.push_back(ReadRequest{id, read_watermark_});
    }
  }

  if (batch.cmd_ids.empty() && reads.empty()) {
    return {};
  }
  return {Send{target_, std::move(batch), std::move(reads)}};
}

void Client::OnResponse(Time now, NodeId from, const ResponseBatch& batch) {
  // A hint naming a server outside the list cannot be followed.
  const NodeId hint = Knows(batch.leader_hint) ? batch.leader_hint : kNoNode;
  if (batch.cmd_ids.empty() && hint == kNoNode) {
    // Uninformative rejection (server knows no leader). Do not refresh the
    // retry timer — otherwise a stream of such rejections would suppress the
    // rotation that eventually finds a serving leader.
    return;
  }
  if (batch.cmd_ids.empty() && hint == suspect_) {
    // Redirect back to the server we just timed out on. Following it would
    // trap the client between two stale minority nodes that hint each other.
    // Keep re-proposing to the current target instead (it may be mid-election
    // and about to serve) without refreshing the retry timer, so rotation
    // still walks past both stale nodes if nothing completes.
    need_reproposal_ = true;
    return;
  }
  last_response_ = now;
  last_write_response_ = now;
  if (hint != kNoNode && hint != target_) {
    // Redirected: move to the hinted leader and re-propose what is in flight.
    target_ = hint;
    need_reproposal_ = true;
  } else if (hint == kNoNode && !batch.cmd_ids.empty()) {
    // Responses prove `from` decides entries; stick with it. Switching
    // targets must re-propose: everything outstanding was sent to the old
    // target (a fresh leader replaying in-flight duplicates would otherwise
    // strand the client idle until the retry timer marks it suspect).
    if (target_ != from) {
      target_ = from;
      need_reproposal_ = true;
    }
  }
  const uint64_t before = completed_;
  for (uint64_t cmd : batch.cmd_ids) {
    RecordCompletion(now, cmd);
  }
  if (completed_ > before) {
    // At least one of our writes completed in this batch; the responder's
    // decided index covers it, so future reads must observe at least that.
    read_watermark_ = std::max(read_watermark_, batch.decided_idx);
  }
}

void Client::OnReadReply(Time now, NodeId from, const ReadReply& reply) {
  auto it = outstanding_reads_.find(reply.read_id);
  if (it == outstanding_reads_.end()) {
    return;  // duplicate reply to a re-sent read; count only the first
  }
  if (!reply.served) {
    // Not a leader / lease lapsed / behind our watermark. Follow a fresh
    // hint (same suspect discipline as writes) and queue a re-send.
    ++reads_bounced_;
    if (reply.leader_hint != kNoNode && Knows(reply.leader_hint) &&
        reply.leader_hint != suspect_ && reply.leader_hint != target_) {
      target_ = reply.leader_hint;
      need_reproposal_ = true;
    }
    need_read_resend_ = true;
    return;
  }
  last_response_ = now;
  if (reply.decided_idx < it->second.watermark) {
    ++ryw_violations_;  // served below the read's required watermark
  }
  read_latency_sum_seconds_ += ToSeconds(now - it->second.first_sent);
  if (latency_sink_ != nullptr) {
    latency_sink_->push_back(now - it->second.first_sent);
  }
  read_watermark_ = std::max(read_watermark_, reply.decided_idx);
  outstanding_reads_.erase(it);
  ++reads_completed_;
}

void Client::Propose(Time now, uint64_t cmd_id) {
  if (outstanding_.empty()) {
    last_write_response_ = now;  // an idle client's retry clock starts now
  }
  need_reproposal_ |= outstanding_.emplace(cmd_id, now).second;
}

uint64_t Client::Read(Time now, uint64_t watermark) {
  const uint64_t id = next_read_++;
  outstanding_reads_.emplace(id, PendingRead{std::max(watermark, read_watermark_), now});
  need_read_resend_ = true;
  return id;
}

void Client::OnDisconnected(Time, NodeId server) {
  if (server == target_) {
    need_reproposal_ = true;
    need_read_resend_ = true;
  }
}

void Client::OnUnreachable(Time now, NodeId server) {
  if (server != target_) {
    return;
  }
  suspect_ = target_;
  Rotate();
  last_response_ = now;  // the next silent rotation is a full period away
  last_write_response_ = now;
  need_reproposal_ = true;
  need_read_resend_ = true;
}

void Client::RecordCompletion(Time now, uint64_t cmd_id) {
  auto it = outstanding_.find(cmd_id);
  if (it == outstanding_.end()) {
    ++stale_acks_;  // duplicate decision (re-proposal); count only the first
    return;
  }
  latency_sum_seconds_ += ToSeconds(now - it->second);
  if (latency_sink_ != nullptr) {
    latency_sink_->push_back(now - it->second);
  }
  outstanding_.erase(it);
  suspect_ = kNoNode;  // progress resumed; hints are trustworthy again
  ++completed_;
  if (completed_ > 1 && now - last_completion_ >= kGapThreshold) {
    gaps_.emplace_back(last_completion_, now);
  }
  last_completion_ = now;
  const size_t window = static_cast<size_t>(now / window_width_);
  if (window_counts_.size() <= window) {
    window_counts_.resize(window + 1, 0);
  }
  ++window_counts_[window];
}

Time Client::LongestGap(Time from, Time to) const {
  Time longest = 0;
  for (const auto& [start, end] : gaps_) {
    const Time lo = std::max(start, from);
    const Time hi = std::min(end, to);
    if (hi > lo) {
      longest = std::max(longest, hi - lo);
    }
  }
  // Open gap: no completion between the last one and `to`.
  if (last_completion_ < to) {
    const Time lo = std::max(last_completion_, from);
    if (to > lo) {
      longest = std::max(longest, to - lo);
    }
  }
  return longest;
}

}  // namespace opx::rsm
