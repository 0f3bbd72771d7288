#include "src/net/omni_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

namespace opx::net {
namespace {

Time MonotonicNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kMaxIov = 64;
// Pause after a refused dial, so a cluster that is entirely down is probed
// a few dozen times a second rather than in a spin.
constexpr Time kRedialBackoff = Millis(10);
// Longest loop wait in a blocking call: the client's timer resolution.
constexpr int kIdleWaitMs = 10;
// Shortest spacing of the ticks that answer a redirect or a bounced read:
// ClusterSim's 1 ms client tick.
constexpr Time kResendPace = Millis(1);

}  // namespace

ClientSession::ClientSession(EpollLoop* loop, std::map<NodeId, Endpoint> servers,
                             rsm::ClientParams params, uint64_t first_cmd_id)
    : loop_(loop),
      servers_(std::move(servers)),
      client_(std::move(params), first_cmd_id),
      epoch_(MonotonicNow()) {}

Time ClientSession::Now() const { return MonotonicNow() - epoch_; }

void ClientSession::Advance() {
  const Time now = Now();
  if ((fd_ < 0 && now < redial_at_) || now < resend_at_) {
    return;  // the client keeps its work until the redial or the paced tick
  }
  last_tick_ = now;
  for (const rsm::Client::Send& send : client_.Tick(now)) {
    if ((fd_ < 0 || send.to != server_) && !Dial(send.to)) {
      Unreachable(send.to);  // the client re-sends to its next target
      return;
    }
    for (uint64_t cmd : send.batch.cmd_ids) {
      sendq_.Push(BuildFrame(&pool_, [&](std::vector<uint8_t>* out) {
        client_wire::EncodeAppend(cmd, send.batch.payload_bytes, out);
      }));
    }
    for (const rsm::ReadRequest& read : send.reads) {
      sendq_.Push(BuildFrame(&pool_, [&](std::vector<uint8_t>* out) {
        client_wire::EncodeRead(read, out);
      }));
    }
  }
  Flush();
}

void ClientSession::Connect() {
  if (fd_ < 0 && Now() >= redial_at_ && !Dial(client_.target())) {
    Unreachable(client_.target());
  }
}

void ClientSession::Drop() {
  if (fd_ >= 0) {
    Lost();
  }
}

bool ClientSession::RequestStatus() {
  if (fd_ < 0) {
    return false;
  }
  status_pending_ = true;
  status_ready_ = false;
  sendq_.Push(BuildFrame(&pool_, client_wire::EncodeStatusRequest));
  Flush();
  return fd_ >= 0;
}

bool ClientSession::Dial(NodeId server) {
  Close();
  const auto it = servers_.find(server);
  if (it == servers_.end()) {
    return false;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(it->second.port);
  if (inet_pton(AF_INET, it->second.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return false;
  }
  // fd is O_NONBLOCK: connect() completes at once on loopback or parks as
  // EINPROGRESS until the loop reports writability.
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));  // NOLINT(opx-blocking-in-loop)
  if ((rc != 0 && errno != EINPROGRESS) || !loop_->Add(fd, [this](uint32_t bits) { OnIo(bits); })) {
    close(fd);
    return false;
  }
  fd_ = fd;
  server_ = server;
  connecting_ = rc != 0;
  ++dials_;
  // The hello leads; frames queued behind it wait for the connect.
  sendq_.Push(BuildFrame(&pool_, [](std::vector<uint8_t>* out) {
    client_wire::EncodeHello(kHelloClient, kNoNode, out);
  }));
  return true;
}

void ClientSession::Close() {
  if (fd_ >= 0) {
    loop_->Remove(fd_);
    close(fd_);
    fd_ = -1;
  }
  connecting_ = false;
  status_pending_ = false;
  sendq_.Clear(&pool_);
  reader_.Clear();
}

void ClientSession::Unreachable(NodeId server) {
  Close();
  client_.OnUnreachable(Now(), server);
  redial_at_ = Now() + kRedialBackoff;
}

void ClientSession::Lost() {
  Close();
  client_.OnDisconnected(Now(), server_);
}

void ClientSession::OnIo(uint32_t bits) {
  if (connecting_) {
    int err = 0;
    socklen_t len = sizeof(err);
    if ((bits & EpollLoop::kError) != 0 ||
        getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      Unreachable(server_);
      return;
    }
    connecting_ = (bits & EpollLoop::kWritable) == 0;
  }
  // Input first, even on an error bit: frames that arrived ahead of a reset
  // still count.
  const Time now = Now();
  while (fd_ >= 0 && !connecting_ && (bits & (EpollLoop::kReadable | EpollLoop::kError)) != 0) {
    uint8_t chunk[65536];
    // O_NONBLOCK read: drains to EAGAIN, never waits (EPOLLET contract).
    const ssize_t n = read(fd_, chunk, sizeof(chunk));  // NOLINT(opx-blocking-in-loop)
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF, a hard error, or an oversized length header (protocol violation).
    if (n <= 0 || !reader_.Feed(chunk, static_cast<size_t>(n), [&](const uint8_t* d, size_t l) {
          HandleFrame(now, d, l);
          return true;
        })) {
      Lost();
    }
  }
  if (fd_ >= 0 && (bits & EpollLoop::kError) != 0) {
    Lost();
  } else if ((bits & EpollLoop::kWritable) != 0) {
    Flush();
  }
}

void ClientSession::HandleFrame(Time now, const uint8_t* data, size_t len) {
  namespace wire = client_wire;
  rsm::ReadReply reply;
  switch (wire::OpOf(data, len)) {
    case wire::kDecided:
      response_.leader_hint = kNoNode;
      if (wire::DecodeDecided(data, len, &response_.cmd_ids)) {
        client_.OnResponse(now, server_, response_);
      }
      break;
    case wire::kRedirect:
      response_.cmd_ids.clear();
      if (wire::DecodeRedirect(data, len, &response_.leader_hint)) {
        client_.OnResponse(now, server_, response_);
        resend_at_ = last_tick_ + kResendPace;
      }
      break;
    case wire::kReadReply:
      if (wire::DecodeReadReply(data, len, &reply)) {
        client_.OnReadReply(now, server_, reply);
        if (!reply.served) {
          resend_at_ = last_tick_ + kResendPace;
        }
      }
      break;
    case wire::kStatus:
      status_ready_ = wire::DecodeStatus(data, len, &status_);
      status_pending_ = !status_ready_;
      break;
    default:
      break;
  }
}

void ClientSession::Flush() {
  struct iovec iov[kMaxIov];
  while (fd_ >= 0 && !connecting_ && !sendq_.empty()) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = sendq_.BuildIovecs(iov, kMaxIov);
    // O_NONBLOCK: EAGAIN resumes on the next EPOLLOUT edge; a server that
    // went away is EPIPE, not SIGPIPE.
    const ssize_t written = sendmsg(fd_, &msg, MSG_NOSIGNAL);  // NOLINT(opx-blocking-in-loop)
    if (written >= 0) {
      sendq_.Consume(static_cast<size_t>(written), &pool_);
    } else if (errno != EINTR) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        Lost();
      }
      return;
    }
  }
}

// --- OmniClient --------------------------------------------------------------

namespace {

rsm::ClientParams BlockingParams(const std::map<NodeId, Endpoint>& servers) {
  rsm::ClientParams params;
  params.servers.clear();
  for (const auto& [id, endpoint] : servers) {
    params.servers.push_back(id);
  }
  params.concurrent_proposals = 0;      // only the caller's commands
  params.retry_timeout = Millis(300);  // re-propose (and maybe rotate) after this
  return params;
}

}  // namespace

OmniClient::OmniClient(std::map<NodeId, Endpoint> servers)
    : session_(&loop_, servers, BlockingParams(servers)) {}

template <typename Done>
bool OmniClient::RunUntil(Done done, Time deadline) {
  const Time until = session_.Now() + deadline;
  for (;;) {
    session_.Advance();
    if (done()) {
      return true;
    }
    const Time left = until - session_.Now();
    // Wakes on the first frame; the cap keeps the client's timers (and a
    // paced re-send) ticking.
    const Time cap = session_.resend_at() > session_.Now() ? 1 : kIdleWaitMs;
    const Time wait_ms = std::min<Time>((left + 999'999) / 1'000'000, cap);
    if (left <= 0 || loop_.Wait(static_cast<int>(wait_ms)) < 0) {
      return false;
    }
  }
}

bool OmniClient::Connect(Time deadline) {
  session_.Drop();
  return RunUntil(
      [this] {
        session_.Connect();
        return session_.established();
      },
      deadline);
}

bool OmniClient::Append(uint64_t cmd_id, uint32_t payload_bytes) {
  if (!session_.established() && !Connect()) {
    return false;
  }
  session_.client().set_payload_bytes(payload_bytes);
  session_.client().Propose(session_.Now(), cmd_id);
  session_.Advance();
  return session_.server() != kNoNode;
}

bool OmniClient::AppendAndWait(uint64_t cmd_id, uint32_t payload_bytes, Time deadline) {
  rsm::Client& client = session_.client();
  client.set_payload_bytes(payload_bytes);
  client.Propose(session_.Now(), cmd_id);
  return RunUntil([&] { return !client.IsPending(cmd_id); }, deadline);
}

bool OmniClient::LeaseRead(uint64_t watermark, uint64_t* decided_out, Time deadline) {
  rsm::Client& client = session_.client();
  const uint64_t read_id = client.Read(session_.Now(), watermark);
  if (!RunUntil([&] { return !client.IsReadPending(read_id); }, deadline)) {
    client.ForgetRead(read_id);
    return false;
  }
  if (decided_out != nullptr) {
    // One read at a time: a served read sits at or above every index seen
    // before it (else it counts in ryw_violations), so the watermark is its
    // serialization point.
    *decided_out = client.read_watermark();
  }
  return true;
}

bool OmniClient::GetStatus(Status* out, Time deadline) {
  if ((!session_.established() && !Connect(deadline)) || !session_.RequestStatus()) {
    return false;
  }
  // Ends when the reply arrives or its connection closes.
  RunUntil([this] { return !session_.status_pending(); }, deadline);
  if (session_.status() == nullptr) {
    return false;
  }
  *out = *session_.status();
  return true;
}

}  // namespace opx::net
