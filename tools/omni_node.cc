// omni_node — a real Omni-Paxos server process.
//
//   omni_node --id=1 --port=7001 --peers=2=127.0.0.1:7002,3=127.0.0.1:7003 \
//             --wal-dir=/var/lib/omnipaxos/node1 --timeout-ms=100
//
// Run one per machine (or per port on localhost) to form a cluster; connect
// with omni_client to replicate commands. Ctrl-C to stop; restart with the
// same --wal-dir to recover (§4.1.3). The WAL is a directory of segments
// (inspect with wal_inspect), group-committed once per event-loop flush.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "src/net/omni_tcp_server.h"
#include "src/obs/trace.h"
#include "src/util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace opx;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: omni_node --id=N --port=P --peers=ID=HOST:PORT,... "
        "[--wal-dir=DIR] [--timeout-ms=100] [--priority=0] [--metrics]\n"
        "  [--trim-watermark=0]  auto log compaction watermark (entries; 0=off)\n"
        "  [--batch-limit=0]     per-flush accept cap (0 = one batch per pass)\n"
        "  [--lease-rounds=1]    BLE lease length for local reads (0 = off)\n"
        "  [--wal-segment-bytes=1048576]  WAL segment rotation threshold\n"
        "  [--wal-sync-bytes=262144]      group-commit flush threshold (bytes)\n"
        "  [--wal-sync-records=4096]      group-commit flush threshold (records)\n");
    return 0;
  }

  net::ServerOptions options;
  options.id = static_cast<NodeId>(flags.GetInt("id", 0));
  options.listen_port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.wal_dir = flags.GetString("wal-dir", "");
  options.wal_options.segment_bytes =
      static_cast<uint64_t>(flags.GetInt("wal-segment-bytes", 1 << 20));
  options.wal_options.sync_every_bytes =
      static_cast<uint64_t>(flags.GetInt("wal-sync-bytes", 256 * 1024));
  options.wal_options.sync_every_records =
      static_cast<uint64_t>(flags.GetInt("wal-sync-records", 4096));
  options.election_timeout = Millis(flags.GetInt("timeout-ms", 100));
  options.ble_priority = static_cast<uint32_t>(flags.GetInt("priority", 0));
  options.trim_watermark = static_cast<uint64_t>(flags.GetInt("trim-watermark", 0));
  options.batch_limit = static_cast<uint64_t>(flags.GetInt("batch-limit", 0));
  options.lease_rounds = static_cast<uint64_t>(flags.GetInt("lease-rounds", 1));
  std::string error;
  if (options.id == kNoNode) {
    std::fprintf(stderr, "omni_node: --id is required (see --help)\n");
    return 2;
  }
  if (!net::ParseEndpoints(flags.GetString("peers", ""), &options.peers, &error)) {
    std::fprintf(stderr, "omni_node: --peers: %s (see --help)\n", error.c_str());
    return 2;
  }

  // --metrics wires the transport's net.* instruments and dumps a
  // name-sorted snapshot at shutdown (no-op data in OPX_OBS=OFF builds).
  obs::ObsSink obs_sink;
  const bool want_metrics = flags.GetBool("metrics", false);
  if (want_metrics) {
    options.obs = &obs_sink;
  }

  net::OmniTcpServer server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "omni_node: %s\n", server.start_error().c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("omni_node %d listening on %u (%zu peers, wal=%s)\n", options.id,
              server.listen_port(), options.peers.size(),
              options.wal_dir.empty() ? "<memory>" : options.wal_dir.c_str());
  std::fflush(stdout);
  server.Run(g_stop);
  std::printf("omni_node %d: shutting down (decided=%lu)\n", options.id,
              server.decided_idx());
  if (want_metrics) {
    std::printf("-- metrics --\n");
    obs_sink.metrics().Print(std::cout);
  }
  return 0;
}
