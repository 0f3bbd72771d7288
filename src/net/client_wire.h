// The client API frames: the one definition of their layout, shared by the
// server (OmniTcpServer), the transport's hello handling and the client
// driver (ClientSession, behind OmniClient and bench/loadgen).
//
// Each frame travels as [u32 length][payload]; these functions build and
// parse the payload, little-endian through omni::Encoder/Decoder:
//
//   hello  [0xFE][u32 id] (peer server)  |  [0xFD] (client)
//   -> [0x01][u64 cmd_id][u32 payload_bytes]     append request
//   <- [0x02][u32 n][u64 cmd_id × n]             decided batch (pushed to
//                                                the proposing connection)
//   -> [0x03]                                    status request
//   <- [0x04][u32 leader][u64 decided][u64 len][u8 is_leader][u64 compacted]
//   <- [0x05][u32 leader]                        redirect (not leader)
//   -> [0x06][u64 read_id][u64 watermark]        lease read request
//   <- [0x07][u64 read_id][u64 decided][u8 served][u32 leader]
//
// Encoders append to `out`. Every decoder checks the opcode and returns
// false on a frame too short for its fields; trailing bytes are ignored.
#ifndef SRC_NET_CLIENT_WIRE_H_
#define SRC_NET_CLIENT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/omnipaxos/codec.h"
#include "src/rsm/client_messages.h"
#include "src/util/types.h"

namespace opx::net {

// Hello kinds (first byte of the first frame on any connection).
constexpr uint8_t kHelloPeer = 0xFE;
constexpr uint8_t kHelloClient = 0xFD;

namespace client_wire {

enum Op : uint8_t {
  kAppend = 0x01,
  kDecided = 0x02,
  kStatusRequest = 0x03,
  kStatus = 0x04,
  kRedirect = 0x05,
  kRead = 0x06,
  kReadReply = 0x07,
};

struct Status {
  NodeId leader = kNoNode;
  uint64_t decided = 0;
  uint64_t log_len = 0;
  bool is_leader = false;
  // Compaction floor: log_len - compacted = log entries resident in memory.
  uint64_t compacted = 0;
};

// Opcode of a payload (0 for an empty one).
inline uint8_t OpOf(const uint8_t* data, size_t len) { return len == 0 ? 0 : data[0]; }

// --- Encoders ---------------------------------------------------------------

// `peer` is sent only with kHelloPeer.
inline void EncodeHello(uint8_t kind, NodeId peer, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kind);
  if (kind == kHelloPeer) {
    e.U32(static_cast<uint32_t>(peer));
  }
}

inline void EncodeAppend(uint64_t cmd_id, uint32_t payload_bytes, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kAppend);
  e.U64(cmd_id);
  e.U32(payload_bytes);
}

inline void EncodeDecided(std::span<const uint64_t> cmd_ids, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kDecided);
  e.U32(static_cast<uint32_t>(cmd_ids.size()));
  for (uint64_t id : cmd_ids) {
    e.U64(id);
  }
}

inline void EncodeStatusRequest(std::vector<uint8_t>* out) { out->push_back(kStatusRequest); }

inline void EncodeStatus(const Status& s, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kStatus);
  e.U32(static_cast<uint32_t>(s.leader));
  e.U64(s.decided);
  e.U64(s.log_len);
  e.U8(s.is_leader ? 1 : 0);
  e.U64(s.compacted);
}

inline void EncodeRedirect(NodeId leader, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kRedirect);
  e.U32(static_cast<uint32_t>(leader));
}

inline void EncodeRead(const rsm::ReadRequest& r, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kRead);
  e.U64(r.read_id);
  e.U64(r.watermark);
}

inline void EncodeReadReply(const rsm::ReadReply& r, std::vector<uint8_t>* out) {
  omni::Encoder e(out);
  e.U8(kReadReply);
  e.U64(r.read_id);
  e.U64(r.decided_idx);
  e.U8(r.served ? 1 : 0);
  e.U32(static_cast<uint32_t>(r.leader_hint));
}

// --- Decoders ---------------------------------------------------------------

// omni::Decoder plus the field shapes of these frames.
class Reader : public omni::Decoder {
 public:
  using omni::Decoder::Decoder;

  bool Opcode(uint8_t op) {
    uint8_t got = 0;
    return U8(&got) && got == op;
  }
  bool Node(NodeId* id) {
    uint32_t v = 0;
    const bool ok = U32(&v);
    *id = static_cast<NodeId>(v);
    return ok;
  }
  bool Flag(bool* flag) {
    uint8_t v = 0;
    const bool ok = U8(&v);
    *flag = v != 0;
    return ok;
  }
};

// A peer hello is exactly [kind][u32 id]; a client hello is [kind].
inline bool DecodeHello(const uint8_t* data, size_t len, uint8_t* kind, NodeId* peer) {
  Reader r(data, len);
  if (!r.U8(kind)) {
    return false;
  }
  return *kind == kHelloClient || (*kind == kHelloPeer && r.Node(peer) && r.remaining() == 0);
}

inline bool DecodeAppend(const uint8_t* data, size_t len, uint64_t* cmd_id,
                         uint32_t* payload_bytes) {
  Reader r(data, len);
  return r.Opcode(kAppend) && r.U64(cmd_id) && r.U32(payload_bytes);
}

inline bool DecodeDecided(const uint8_t* data, size_t len, std::vector<uint64_t>* cmd_ids) {
  Reader r(data, len);
  uint32_t count = 0;
  cmd_ids->clear();
  if (!r.Opcode(kDecided) || !r.U32(&count) || count > r.remaining() / 8) {
    return false;
  }
  cmd_ids->resize(count);
  for (uint64_t& id : *cmd_ids) {
    r.U64(&id);
  }
  return true;
}

inline bool DecodeStatus(const uint8_t* data, size_t len, Status* s) {
  Reader r(data, len);
  return r.Opcode(kStatus) && r.Node(&s->leader) && r.U64(&s->decided) && r.U64(&s->log_len) &&
         r.Flag(&s->is_leader) && r.U64(&s->compacted);
}

inline bool DecodeRedirect(const uint8_t* data, size_t len, NodeId* leader) {
  Reader r(data, len);
  return r.Opcode(kRedirect) && r.Node(leader);
}

inline bool DecodeRead(const uint8_t* data, size_t len, rsm::ReadRequest* read) {
  Reader r(data, len);
  return r.Opcode(kRead) && r.U64(&read->read_id) && r.U64(&read->watermark);
}

inline bool DecodeReadReply(const uint8_t* data, size_t len, rsm::ReadReply* reply) {
  Reader r(data, len);
  return r.Opcode(kReadReply) && r.U64(&reply->read_id) && r.U64(&reply->decided_idx) &&
         r.Flag(&reply->served) && r.Node(&reply->leader_hint);
}

}  // namespace client_wire
}  // namespace opx::net

#endif  // SRC_NET_CLIENT_WIRE_H_
