// Wire-frame building blocks of the net hot path (DESIGN.md §14).
//
// A WireFrame holds one encoded frame — [u32 length][payload] — as a single
// contiguous buffer. Frames are refcounted (FrameRef) so a broadcast message
// is encoded once and every peer's send queue shares the same bytes; a
// FramePool recycles retired buffers (capacity preserved) so the steady-state
// send path performs no allocations at all.
//
// FrameQueue is the per-connection send queue: refcounted frames drained with
// writev() so dozens of queued frames leave in one syscall. It tracks a
// resume offset into the front frame, which is how a short writev — the
// kernel accepting part of a frame — picks up exactly where it stopped on the
// next EPOLLOUT.
//
// FrameReader is the inbound mirror: an incremental extractor that survives
// arbitrarily short reads, including reads that split the 4-byte length
// header itself.
//
// Everything here is single-threaded and syscall-free; the owning event loop
// does the I/O.
#ifndef SRC_NET_FRAME_QUEUE_H_
#define SRC_NET_FRAME_QUEUE_H_

#include <sys/uio.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace opx::net {

// Frames above this are protocol violations (matches the transport's bound).
constexpr size_t kMaxFrameBytes = 64u << 20;

// One encoded wire frame: [u32 length][payload], contiguous.
struct WireFrame {
  std::vector<uint8_t> bytes;
};

// Shared ownership: a broadcast frame sits in several connections' queues at
// once; the last queue to finish sending releases it back to the pool.
using FrameRef = std::shared_ptr<WireFrame>;

// Recycles retired frame buffers. Acquire() reuses a pooled buffer (cleared,
// capacity kept) when one is free, so encoding into it is allocation-free
// once the pool is warm. Bounded so a burst can't pin memory forever.
class FramePool {
 public:
  explicit FramePool(size_t max_pooled = 256) : max_pooled_(max_pooled) {}

  FrameRef Acquire() {
    if (free_.empty()) {
      return std::make_shared<WireFrame>();
    }
    FrameRef f = std::move(free_.back());
    free_.pop_back();
    f->bytes.clear();
    return f;
  }

  // Returns a frame to the pool if this queue held the last reference.
  void Release(FrameRef&& f) {
    if (f != nullptr && f.use_count() == 1 && free_.size() < max_pooled_ &&
        f->bytes.capacity() <= kMaxPooledCapacity) {
      free_.push_back(std::move(f));
    }
    f = nullptr;
  }

  size_t pooled() const { return free_.size(); }

 private:
  // Don't pool giant sync-suffix buffers; those are rare.
  static constexpr size_t kMaxPooledCapacity = 1u << 20;

  size_t max_pooled_;
  std::vector<FrameRef> free_;
};

// Encodes the [u32 length] prefix in place over a buffer where the payload
// was appended after a 4-byte placeholder (see Begin/EndFrame below).
inline void PatchFrameLength(std::vector<uint8_t>* bytes, size_t header_at) {
  const size_t payload = bytes->size() - header_at - 4;
  for (int i = 0; i < 4; ++i) {
    (*bytes)[header_at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(static_cast<uint32_t>(payload) >> (8 * i));
  }
}

// One pooled [u32 length][payload] frame; `encode(&bytes)` appends the
// payload (e.g. a client_wire encoder).
template <typename Encode>
FrameRef BuildFrame(FramePool* pool, Encode&& encode) {
  FrameRef frame = pool->Acquire();
  frame->bytes.resize(4);
  encode(&frame->bytes);
  PatchFrameLength(&frame->bytes, 0);
  return frame;
}

// Per-connection send queue of refcounted frames with a writev drain.
class FrameQueue {
 public:
  void Push(FrameRef frame) {
    OPX_DCHECK(frame != nullptr && !frame->bytes.empty());
    bytes_ += frame->bytes.size();
    frames_.push_back(std::move(frame));
  }

  bool empty() const { return frames_.empty(); }
  size_t frames() const { return frames_.size(); }
  size_t bytes() const { return bytes_; }

  // Fills up to `max_iov` iovecs from the queued frames, the front one
  // starting at the resume offset. Returns the number of iovecs filled.
  size_t BuildIovecs(struct iovec* iov, size_t max_iov) const {
    size_t n = 0;
    for (const FrameRef& f : frames_) {
      if (n == max_iov) {
        break;
      }
      const size_t skip = n == 0 ? front_offset_ : 0;
      iov[n].iov_base = const_cast<uint8_t*>(f->bytes.data() + skip);
      iov[n].iov_len = f->bytes.size() - skip;
      ++n;
    }
    return n;
  }

  // Consumes `written` bytes (a writev return value): fully-sent frames are
  // retired into `pool`; a partially-sent front frame records its resume
  // offset for the next drain.
  void Consume(size_t written, FramePool* pool) {
    bytes_ -= written;
    while (written > 0) {
      OPX_DCHECK(!frames_.empty());
      FrameRef& front = frames_.front();
      const size_t left = front->bytes.size() - front_offset_;
      if (written < left) {
        front_offset_ += written;
        return;
      }
      written -= left;
      front_offset_ = 0;
      pool->Release(std::move(front));
      frames_.pop_front();
    }
  }

  void Clear(FramePool* pool) {
    for (FrameRef& f : frames_) {
      pool->Release(std::move(f));
    }
    frames_.clear();
    front_offset_ = 0;
    bytes_ = 0;
  }

 private:
  std::deque<FrameRef> frames_;
  size_t front_offset_ = 0;  // bytes of frames_.front() already written
  size_t bytes_ = 0;         // total unsent bytes across the queue
};

// Incremental [u32 length][payload] extractor. Feed() buffers raw bytes and
// invokes `on_frame(payload, len)` for every complete frame; it returns false
// on an oversized length (the caller should drop the connection). on_frame
// may return false to stop extraction (e.g. the connection closed itself).
//
// The length bound defaults to the transport-wide kMaxFrameBytes but is
// configurable per reader: client-facing listeners can enforce a much
// tighter budget than replica peers without a second reader type.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(size_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {}

  template <typename OnFrame>
  bool Feed(const uint8_t* data, size_t n, OnFrame&& on_frame) {
    buf_.insert(buf_.end(), data, data + n);
    size_t offset = 0;
    bool ok = true;
    // Bounds phrased as offset+k <= size: on_frame may Clear() this reader
    // (connection torn down mid-batch), so the loop must survive the buffer
    // shrinking under it.
    while (offset + 4 <= buf_.size()) {
      uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<uint32_t>(buf_[offset + static_cast<size_t>(i)]) << (8 * i);
      }
      if (len > max_frame_bytes_) {
        ok = false;
        break;
      }
      if (offset + 4 + len > buf_.size()) {
        break;  // incomplete frame; wait for more bytes
      }
      const bool keep_going = on_frame(buf_.data() + offset + 4, static_cast<size_t>(len));
      offset += 4 + len;
      if (!keep_going) {
        break;
      }
    }
    offset = std::min(offset, buf_.size());
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(offset));
    return ok;
  }

  size_t buffered() const { return buf_.size(); }
  size_t max_frame_bytes() const { return max_frame_bytes_; }
  void Clear() { buf_.clear(); }

 private:
  size_t max_frame_bytes_ = kMaxFrameBytes;
  std::vector<uint8_t> buf_;
};

}  // namespace opx::net

#endif  // SRC_NET_FRAME_QUEUE_H_
