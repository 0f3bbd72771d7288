// Closed-loop benchmark client — the one client state machine.
//
// Reproduces the paper's workload model (§7, Hardware): a single client keeps
// `concurrent_proposals` (CP) commands outstanding against the RSM, proposing
// 8-byte no-op commands and recording when each is first decided. All
// experiment metrics — windowed throughput, down-time (longest period without
// decided replies), completion latency — derive from this component.
//
// It is also the only code that decides where a client sends: which server it
// targets, when it follows a leader hint, when it rotates and re-proposes, and
// which watermark a lease read carries. The simulator harnesses deliver its
// batches as simulated messages; the TCP drivers (net::ClientSession behind
// net::OmniClient and bench/loadgen) only move its batches over sockets and
// report connection loss.
//
// Pull-based like the protocols: Tick() returns the batches to transmit;
// OnResponse() consumes decided ids and leader redirects.
#ifndef SRC_RSM_CLIENT_H_
#define SRC_RSM_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/rsm/client_messages.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::rsm {

// {1, ..., n}: the servers of a cluster numbered as in the paper.
std::vector<NodeId> ServerIds(int n);

struct ClientParams {
  // Servers the client may target, in rotation order. Leader hints naming a
  // server outside this list are not followed.
  std::vector<NodeId> servers = {1, 2, 3};
  // Commands kept outstanding by the top-up; 0 = only commands the driver
  // supplies through Propose().
  size_t concurrent_proposals = 500;
  uint32_t payload_bytes = 8;
  // Re-propose outstanding commands (and rotate the target server) when no
  // response has arrived for this long.
  Time retry_timeout = Millis(500);
  // Fraction of work issued as leader-lease local reads (DESIGN.md §15).
  // 0 disables the read path entirely (no wire-format or schedule change);
  // otherwise ceil(CP * read_fraction) reads are kept outstanding alongside
  // the write pipeline.
  double read_fraction = 0.0;
};

class Client {
 public:
  // Top-up commands are numbered first_cmd_id, first_cmd_id + 1, ...; drivers
  // sharing one cluster give each client a disjoint range.
  explicit Client(ClientParams params, uint64_t first_cmd_id = 1);

  // Advances the client; returns the proposal batch (if any) to send and the
  // server to send it to.
  struct Send {
    NodeId to = kNoNode;
    ProposeBatch batch;           // write proposals; may be empty
    std::vector<ReadRequest> reads;  // lease reads; harnesses without a read
                                     // path simply never see these (reads are
                                     // only issued when read_fraction > 0 or
                                     // the driver calls Read())
  };
  std::vector<Send> Tick(Time now);

  void OnResponse(Time now, NodeId from, const ResponseBatch& batch);
  void OnReadReply(Time now, NodeId from, const ReadReply& reply);

  // --- Driver inputs (TCP) --------------------------------------------------
  // A command with a driver-chosen id; the next Tick (re-)sends everything
  // outstanding. No-op if the id is already outstanding.
  void Propose(Time now, uint64_t cmd_id);
  // A lease read that must observe at least `watermark` (and this client's
  // own watermark); the next Tick (re-)sends every outstanding read. Returns
  // its read id.
  uint64_t Read(Time now, uint64_t watermark);
  // Stops re-sending a read the driver gave up on.
  void ForgetRead(uint64_t read_id) { outstanding_reads_.erase(read_id); }
  // The connection to `server` dropped: what was in flight on it is re-sent
  // on the next one (the server answers only on the proposing connection).
  void OnDisconnected(Time now, NodeId server);
  // `server` could not be reached at all: treated like a silent retry period
  // cut short — rotate past it, suspect it, and re-send everything.
  void OnUnreachable(Time now, NodeId server);
  void set_payload_bytes(uint32_t bytes) { params_.payload_bytes = bytes; }
  // When set, every completion (write or served read) appends its
  // propose-to-completion latency here.
  void set_latency_sink(std::vector<Time>* sink) { latency_sink_ = sink; }

  NodeId target() const { return target_; }
  bool IsPending(uint64_t cmd_id) const { return outstanding_.count(cmd_id) > 0; }
  bool IsReadPending(uint64_t read_id) const { return outstanding_reads_.count(read_id) > 0; }

  // --- Metrics ------------------------------------------------------------
  uint64_t completed() const { return completed_; }
  Time last_completion_time() const { return last_completion_; }
  // Decided ids that were not outstanding when they arrived: a re-proposal
  // decided twice, or an id this client never proposed.
  uint64_t stale_acks() const { return stale_acks_; }

  // Completion counts bucketed into fixed windows from t=0 (for throughput-
  // over-time plots, Fig. 9). Window w covers [w*width, (w+1)*width).
  const std::vector<uint64_t>& window_counts() const { return window_counts_; }
  void set_window_width(Time width) { window_width_ = width; }
  Time window_width() const { return window_width_; }

  // Longest interval inside [from, to] with no completions ("down-time",
  // Fig. 8a/8b). Includes the open gap at `to` if completions stopped.
  Time LongestGap(Time from, Time to) const;

  double MeanLatencySeconds() const {
    return completed_ == 0 ? 0.0 : latency_sum_seconds_ / static_cast<double>(completed_);
  }

  // --- Read metrics (lease reads, DESIGN.md §15) ---------------------------
  uint64_t reads_completed() const { return reads_completed_; }
  uint64_t reads_bounced() const { return reads_bounced_; }
  // Highest decided index at which one of this client's operations completed.
  uint64_t read_watermark() const { return read_watermark_; }
  // Served reads whose serialization point fell below the read's watermark —
  // a read-your-writes / monotonic-reads violation. Must stay 0.
  uint64_t ryw_violations() const { return ryw_violations_; }
  double MeanReadLatencySeconds() const {
    return reads_completed_ == 0
               ? 0.0
               : read_latency_sum_seconds_ / static_cast<double>(reads_completed_);
  }

 private:
  void RecordCompletion(Time now, uint64_t cmd_id);
  bool Knows(NodeId server) const;
  void Rotate();

  ClientParams params_;
  uint64_t next_cmd_;
  NodeId target_;
  // Server the client last rotated away from after a silent retry period.
  // Leader hints pointing back at it are ignored until a command completes:
  // under a minority partition the stale nodes hint each other, and blindly
  // following those hints ping-pongs the client inside the partition forever
  // while a healthy majority serves elsewhere.
  NodeId suspect_ = kNoNode;
  bool need_reproposal_ = false;
  Time last_response_ = 0;
  // Last response that carried information about *writes* (completion,
  // redirect, or rejection). Served lease reads refresh last_response_ but
  // not this: a target can serve reads indefinitely while the in-flight
  // write batch is lost (proposed to a not-yet-leader), and only a
  // write-specific timer notices that and triggers re-proposal.
  Time last_write_response_ = 0;
  // Ordered by cmd id: Tick() iterates this to build re-proposal batches, so
  // the container's iteration order reaches the wire — a hash-ordered map
  // would tie message contents to the standard library's bucket layout
  // (flagged by opx_analyze's determinism check).
  std::map<uint64_t, Time> outstanding_;  // cmd -> first propose time
  uint64_t stale_acks_ = 0;
  std::vector<Time>* latency_sink_ = nullptr;

  // --- Lease reads ---------------------------------------------------------
  struct PendingRead {
    uint64_t watermark = 0;
    Time first_sent = 0;
  };
  uint64_t next_read_ = 1;
  bool need_read_resend_ = false;
  std::map<uint64_t, PendingRead> outstanding_reads_;  // read id -> state
  // Highest decided index at which one of this client's operations (write or
  // read) completed; new reads carry it so a server behind it refuses to
  // serve. This is what turns "leader with a lease" into read-your-writes.
  uint64_t read_watermark_ = 0;
  uint64_t reads_completed_ = 0;
  uint64_t reads_bounced_ = 0;
  uint64_t ryw_violations_ = 0;
  double read_latency_sum_seconds_ = 0.0;

  uint64_t completed_ = 0;
  Time last_completion_ = 0;
  double latency_sum_seconds_ = 0.0;
  Time window_width_ = Seconds(5);
  std::vector<uint64_t> window_counts_;
  // Gaps between consecutive completions longer than this are recorded for
  // down-time queries.
  static constexpr Time kGapThreshold = Millis(10);
  std::vector<std::pair<Time, Time>> gaps_;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_CLIENT_H_
