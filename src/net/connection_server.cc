#include "net/connection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/http_server.h"
#include "net/wire/binary_server.h"

namespace declsched::net {

namespace {

void Count(observability::Counter* counter, int64_t delta = 1) {
  if (counter != nullptr && delta > 0) counter->Increment(delta);
}

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// `le` bounds for the requests-per-read histogram (counts, not latency).
const std::vector<int64_t>& RequestsPerReadBounds() {
  static const std::vector<int64_t> kBounds = {1,  2,   4,   8,   16,  32,
                                               64, 128, 256, 512, 1024};
  return kBounds;
}

}  // namespace

// --- responder core ---------------------------------------------------------

template <typename Codec>
ResponderCore<Codec>::~ResponderCore() {
  if (Claim()) Send(Codec::DroppedReply(token_), /*close_after=*/false);
}

template <typename Codec>
void ResponderCore<Codec>::Send(std::string bytes, bool close_after) {
  std::shared_ptr<Reactor> reactor = reactor_.lock();
  if (reactor == nullptr) return;
  auto task = [server = server_, index = reactor_index_, conn = conn_id_,
               token = token_, bytes = std::move(bytes),
               close_after]() mutable {
    server->Complete(index, conn, token, std::move(bytes), close_after);
  };
  if (reactor->InReactorThread()) {
    task();
  } else {
    reactor->Post(std::move(task));
  }
}

// --- transport-neutral server ----------------------------------------------

template <typename Codec>
ConnectionServer<Codec>::ConnectionServer(Options options)
    : options_(std::move(options)) {
  options_.reactor_threads = std::max(1, options_.reactor_threads);
  port_ = options_.port;
  for (int i = 0; i < options_.reactor_threads; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->reactor = std::make_shared<Reactor>();
    shards_.push_back(std::move(shard));
  }
  observability::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  const observability::MetricLabels transport = {
      {"transport", Codec::kTransport}};
  rejected_total_ = m->GetCounter(
      "net_connections_rejected_total",
      "Connections refused at the max_connections cap", transport);
  parse_errors_total_ =
      m->GetCounter("net_parse_errors_total",
                    "Connections answered with a parse error and closed",
                    transport);
  slow_client_closes_total_ =
      m->GetCounter("net_slow_client_closes_total",
                    "Connections closed for exceeding the write budget",
                    transport);
  connections_gauge_ = m->GetGauge(
      "net_connections_open",
      "Currently open connections (exact, all reactors)", transport);
  requests_per_read_ = m->GetHistogram(
      "net_requests_per_read", "Complete requests decoded per read batch",
      transport, RequestsPerReadBounds());
  for (auto& shard : shards_) {
    observability::MetricLabels labels = transport;
    labels.emplace_back("reactor", std::to_string(shard->index));
    shard->accepted =
        m->GetCounter("net_connections_accepted_total",
                      "Connections accepted, by owning reactor", labels);
    shard->bytes_in =
        m->GetCounter("net_bytes_in_total", "Bytes read from clients", labels);
    shard->bytes_out = m->GetCounter("net_bytes_out_total",
                                     "Bytes written to clients", labels);
    shard->requests_in =
        m->GetCounter("net_requests_in_total", "Requests decoded", labels);
    shard->responses_out = m->GetCounter(
        "net_responses_out_total", "Responses queued for writing", labels);
  }
}

template <typename Codec>
ConnectionServer<Codec>::~ConnectionServer() {
  Shutdown();
}

template <typename Codec>
Status ConnectionServer<Codec>::Start(HandlerFn handler) {
  DS_CHECK(!started_);
  handler_ = std::move(handler);
  for (auto& shard : shards_) {
    Result<int> fd = OpenListener();
    if (!fd.ok()) return fd.status();
    shard->listen_fd = *fd;
    Shard* s = shard.get();
    DS_RETURN_NOT_OK(s->reactor->Add(s->listen_fd, Reactor::kReadable,
                                     [this, s](uint32_t) { DoAccept(*s); }));
  }
  for (auto& shard : shards_) shard->reactor->Start();
  started_ = true;
  return Status::OK();
}

template <typename Codec>
void ConnectionServer<Codec>::Shutdown() {
  if (shut_down_.exchange(true)) return;
  if (!started_) {
    // A failed Start may have opened some listeners.
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) ::close(shard->listen_fd);
      shard->reactor->Stop();
    }
    return;
  }
  // Phase 1: stop accepting on every reactor.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->reactor->Post([s] {
      s->reactor->Remove(s->listen_fd);
      ::close(s->listen_fd);
      s->listen_fd = -1;
    });
  }
  // Phase 2: drain in-flight responders.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (pending_responses_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear down connections, then stop the loops.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->reactor->Post([this, s] {
      std::vector<uint64_t> ids;
      ids.reserve(s->conns.size());
      for (const auto& [id, conn] : s->conns) ids.push_back(id);
      for (uint64_t id : ids) CloseConnection(*s, id);
    });
  }
  for (auto& shard : shards_) shard->reactor->Stop();
}

template <typename Codec>
int64_t ConnectionServer<Codec>::accepted_by_reactor(int i) const {
  if (i < 0 || static_cast<size_t>(i) >= shards_.size()) return 0;
  return shards_[static_cast<size_t>(i)]->accepted_count.load(
      std::memory_order_relaxed);
}

template <typename Codec>
Result<int> ConnectionServer<Codec>::OpenListener() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every reactor's listener binds the same port; the first may bind port
  // 0, and every later one binds the port the kernel picked. Deep backlog:
  // a 10k-connection loadgen opens its sockets in a burst, and REUSEPORT
  // splits it across per-reactor queues.
  Status st = Status::OK();
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    st = Errno("SO_REUSEPORT");
  } else if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
             0) {
    st = Errno("bind");
  } else if (::listen(fd, 4096) != 0) {
    st = Errno("listen");
  } else if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) !=
             0) {
    st = Errno("getsockname");
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  port_ = ntohs(bound.sin_port);
  return fd;
}

template <typename Codec>
void ConnectionServer<Codec>::DoAccept(Shard& shard) {
  while (true) {
    const int fd = ::accept4(shard.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DS_LOG(Warn) << "accept: " << std::strerror(errno);
      return;
    }
    if (connection_count_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Over the global cap: a one-shot 503 tells well-behaved clients to
      // back off; the write is best-effort on a fresh socket.
      const std::string reply = Codec::OverCapReply();
      ssize_t n = ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      (void)n;
      ::close(fd);
      Count(rejected_total_);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    const Status st = shard.reactor->Add(
        fd, Reactor::kReadable, [this, s = &shard, id](uint32_t events) {
          OnConnectionEvent(*s, id, events);
        });
    if (!st.ok()) {
      DS_LOG(Warn) << "register connection: " << st;
      ::close(fd);
      continue;
    }
    shard.conns.emplace(
        id, std::make_unique<Connection>(id, fd, options_.parser_limits));
    connection_count_.fetch_add(1, std::memory_order_relaxed);
    // The gauge tracks the accept/close atomic, not a map size, so the
    // exported count is exact from any thread's point of view.
    if (connections_gauge_ != nullptr) connections_gauge_->Add(1);
    shard.accepted_count.fetch_add(1, std::memory_order_relaxed);
    Count(shard.accepted);
  }
}

template <typename Codec>
typename ConnectionServer<Codec>::Connection* ConnectionServer<Codec>::Find(
    Shard& shard, uint64_t conn_id) {
  auto it = shard.conns.find(conn_id);
  return it == shard.conns.end() ? nullptr : it->second.get();
}

template <typename Codec>
void ConnectionServer<Codec>::OnConnectionEvent(Shard& shard, uint64_t conn_id,
                                                uint32_t events) {
  Connection* conn = Find(shard, conn_id);
  if (conn != nullptr && (events & Reactor::kReadable)) {
    ReadFromConnection(shard, conn);
    conn = Find(shard, conn_id);  // the read may have closed it
  }
  if (conn != nullptr && (events & Reactor::kWritable)) {
    FlushConnection(shard, conn);
  }
}

template <typename Codec>
void ConnectionServer<Codec>::ReadFromConnection(Shard& shard,
                                                 Connection* conn) {
  char buf[16 * 1024];
  bool peer_closed = false;
  size_t total_read = 0;
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      total_read += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // hard error: treat as close
    break;
  }
  Count(shard.bytes_in, static_cast<int64_t>(total_read));

  using Outcome = typename Codec::Parser::Outcome;
  const uint64_t conn_id = conn->id;
  int64_t requests = 0;
  while (conn != nullptr && !conn->closing) {
    Request request;
    const Outcome outcome = conn->parser.Next(&request);
    if (outcome == Outcome::kNeedMore) break;
    if (outcome == Outcome::kError) {
      Count(parse_errors_total_);
      OnParseError(shard, conn);
      conn->closing = true;
      break;
    }
    ++requests;
    Count(shard.requests_in);
    // The handler may answer inline, which can flush and even close the
    // connection — take no references across this call.
    OnRequest(shard, conn, std::move(request));
    conn = Find(shard, conn_id);
  }
  if (requests > 0 && requests_per_read_ != nullptr) {
    requests_per_read_->Record(requests);
  }
  if (conn == nullptr) return;
  // On a peer close, flush what we can synchronously, then drop the
  // connection; requests still outstanding die with it (their responders
  // become no-ops).
  FlushConnection(shard, conn);
  if (peer_closed) CloseConnection(shard, conn_id);
}

template <typename Codec>
void ConnectionServer<Codec>::Dispatch(Shard& shard, Connection* conn,
                                       Request request, Token token) {
  conn->outstanding++;
  pending_responses_.fetch_add(1, std::memory_order_acq_rel);
  handler_(std::move(request),
           Responder(std::make_shared<ResponderCore<Codec>>(
               shard.reactor, this, shard.index, conn->id, token)));
}

template <typename Codec>
void ConnectionServer<Codec>::Complete(int reactor_index, uint64_t conn_id,
                                       const Token& token, std::string bytes,
                                       bool close_after) {
  Shard& shard = *shards_[static_cast<size_t>(reactor_index)];
  Connection* conn = Find(shard, conn_id);
  if (conn == nullptr) return;  // connection died first
  conn->outstanding--;
  pending_responses_.fetch_sub(1, std::memory_order_acq_rel);
  Count(shard.responses_out);
  if (close_after) conn->closing = true;
  OnReply(shard, conn, token, std::move(bytes));
  FlushConnection(shard, conn);
}

template <typename Codec>
void ConnectionServer<Codec>::FlushConnection(Shard& shard, Connection* conn) {
  if (conn->write_buffer.size() > options_.max_write_buffer_bytes) {
    Count(slow_client_closes_total_);
    CloseConnection(shard, conn->id);
    return;
  }
  size_t written = 0;
  while (written < conn->write_buffer.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection yields EPIPE here
    // rather than a SIGPIPE that kills the process.
    const ssize_t n =
        ::send(conn->fd, conn->write_buffer.data() + written,
               conn->write_buffer.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(shard, conn->id);  // peer gone
    return;
  }
  Count(shard.bytes_out, static_cast<int64_t>(written));
  conn->write_buffer.erase(0, written);

  const bool need_writable = !conn->write_buffer.empty();
  if (need_writable != conn->want_writable) {
    conn->want_writable = need_writable;
    const uint32_t interest =
        Reactor::kReadable | (need_writable ? Reactor::kWritable : 0);
    (void)shard.reactor->Modify(conn->fd, interest);
  }
  if (conn->closing && conn->write_buffer.empty() &&
      (conn->outstanding == 0 || !Codec::kCloseWaitsForReplies)) {
    CloseConnection(shard, conn->id);
  }
}

template <typename Codec>
void ConnectionServer<Codec>::CloseConnection(Shard& shard, uint64_t conn_id) {
  auto it = shard.conns.find(conn_id);
  if (it == shard.conns.end()) return;
  Connection* conn = it->second.get();
  // Requests never answered: their responders will no-op into a dead
  // conn_id, so drop them from the pending count here.
  if (conn->outstanding > 0) {
    pending_responses_.fetch_sub(conn->outstanding, std::memory_order_acq_rel);
  }
  shard.reactor->Remove(conn->fd);
  ::close(conn->fd);
  shard.conns.erase(it);
  connection_count_.fetch_sub(1, std::memory_order_relaxed);
  if (connections_gauge_ != nullptr) connections_gauge_->Add(-1);
}

// --- HTTP codec -------------------------------------------------------------

namespace {

/// Moves the completed replies at the front of the slot queue, in order,
/// into the write buffer.
void MoveReadySlots(HttpCodec::State* state, std::string* write_buffer) {
  while (!state->slots.empty() && state->slots.front().done) {
    *write_buffer += state->slots.front().wire;
    state->slots.pop_front();
  }
}

}  // namespace

template <>
void HttpServer::OnRequest(Shard& shard, Connection* conn,
                           HttpRequest request) {
  HttpCodec::State& state = conn->state;
  state.slots.emplace_back();
  const HttpCodec::Token token{state.next_seq++, request.keep_alive};
  // Connection: close makes this the last request; the connection closes
  // once its reply, and every one before it, is out.
  if (!request.keep_alive) conn->closing = true;
  Dispatch(shard, conn, std::move(request), token);
}

template <>
void HttpServer::OnParseError(Shard& shard, Connection* conn) {
  const HttpRequestParser& parser = conn->parser;
  HttpCodec::State& state = conn->state;
  state.slots.push_back(
      {true, HttpResponse::Error(parser.error_status(), "bad_request",
                                 parser.error_message())
                 .Serialize(/*keep_alive=*/false)});
  state.next_seq++;
  Count(shard.responses_out);
  MoveReadySlots(&state, &conn->write_buffer);
}

template <>
void HttpServer::OnReply(Shard&, Connection* conn,
                         const HttpCodec::Token& token, std::string bytes) {
  HttpCodec::State& state = conn->state;
  HttpCodec::Slot& slot =
      state.slots[state.slots.size() - (state.next_seq - token.seq)];
  slot.done = true;
  slot.wire = std::move(bytes);
  MoveReadySlots(&state, &conn->write_buffer);
}

std::string HttpCodec::OverCapReply() {
  return HttpResponse::Error(503, "overloaded", "connection limit reached")
      .Serialize(/*keep_alive=*/false);
}

std::string HttpCodec::DroppedReply(const Token& token) {
  return HttpResponse::Error(500, "internal", "handler dropped request")
      .Serialize(token.keep_alive);
}

void HttpCodec::Responder::Send(HttpResponse response) const {
  if (core_ != nullptr && core_->Claim()) {
    core_->Send(response.Serialize(core_->token().keep_alive),
                /*close_after=*/false);
  }
}

template class ConnectionServer<HttpCodec>;

// --- wire codec -------------------------------------------------------------

template <>
void wire::BinaryServer::OnRequest(Shard& shard, Connection* conn,
                                   wire::WireFrame frame) {
  using namespace wire;
  const auto reply = [&](WireOp op, uint8_t flags, std::string_view body) {
    AppendFrame(&conn->write_buffer, op, flags, frame.request_id, body);
    Count(shard.responses_out);
    if ((flags & kFlagCloseAfter) != 0) conn->closing = true;
  };
  WireCodec::State& state = conn->state;
  if (!state.hello_done) {
    uint32_t magic = 0;
    uint16_t version = 0;
    if (frame.op != WireOp::kHello) {
      reply(WireOp::kError, kFlagCloseAfter,
            EncodeErrorBody({400, 0, "first frame must be HELLO"}));
    } else if (!DecodeHelloBody(frame.body, &magic, &version).ok() ||
               magic != kWireMagic) {
      reply(WireOp::kError, kFlagCloseAfter,
            EncodeErrorBody({400, 0, "bad HELLO magic"}));
    } else if (version != kWireVersion) {
      reply(WireOp::kError, kFlagCloseAfter,
            EncodeErrorBody(
                {505, 0,
                 StrFormat("unsupported wire version %u (server speaks %u)",
                           version, kWireVersion)}));
    } else {
      state.hello_done = true;
      reply(WireOp::kHelloOk, 0, EncodeHelloOkBody());
    }
    return;
  }
  switch (frame.op) {
    case WireOp::kSubmit:
    case WireOp::kStats:
    case WireOp::kExplain: {
      const uint64_t request_id = frame.request_id;
      Dispatch(shard, conn, std::move(frame), request_id);
      return;
    }
    case WireOp::kFinish:
      if (conn->outstanding == 0) {
        reply(WireOp::kFinishOk, kFlagCloseAfter, std::string_view());
      } else {
        // Drain: answer once the last outstanding request completes.
        state.finish_requested = true;
        state.finish_request_id = frame.request_id;
      }
      return;
    default:
      reply(WireOp::kError, kFlagCloseAfter,
            EncodeErrorBody(
                {400, 0,
                 IsKnownWireOp(static_cast<uint8_t>(frame.op))
                     ? StrFormat("unexpected %s frame", WireOpName(frame.op))
                     : StrFormat("unknown op %u",
                                 static_cast<unsigned>(frame.op))}));
  }
}

template <>
void wire::BinaryServer::OnParseError(Shard& shard, Connection* conn) {
  using namespace wire;
  const FrameParser& parser = conn->parser;
  const uint16_t code =
      parser.error() == FrameParser::Error::kOversized ? 413 : 400;
  AppendFrame(&conn->write_buffer, WireOp::kError, kFlagCloseAfter, 0,
              EncodeErrorBody({code, 0, parser.error_message()}));
  Count(shard.responses_out);
}

template <>
void wire::BinaryServer::OnReply(Shard& shard, Connection* conn,
                                 const uint64_t&, std::string bytes) {
  using namespace wire;
  conn->write_buffer += bytes;
  WireCodec::State& state = conn->state;
  if (state.finish_requested && conn->outstanding == 0) {
    AppendFrame(&conn->write_buffer, WireOp::kFinishOk, kFlagCloseAfter,
                state.finish_request_id, std::string_view());
    Count(shard.responses_out);
    conn->closing = true;
  }
}

namespace wire {

std::string WireCodec::OverCapReply() {
  std::string reply;
  AppendFrame(&reply, WireOp::kError, kFlagCloseAfter, 0,
              EncodeErrorBody({503, 1, "connection limit reached"}));
  return reply;
}

std::string WireCodec::DroppedReply(uint64_t request_id) {
  std::string reply;
  AppendFrame(&reply, WireOp::kError, 0, request_id,
              EncodeErrorBody({500, 0, "handler dropped request"}));
  return reply;
}

void WireCodec::Responder::Send(WireOp op, std::string body,
                                uint8_t flags) const {
  if (core_ == nullptr || !core_->Claim()) return;
  std::string wire;
  wire.reserve(kFramePrefixBytes + kFrameHeaderBytes + body.size());
  AppendFrame(&wire, op, flags, core_->token(), body);
  core_->Send(std::move(wire), (flags & kFlagCloseAfter) != 0);
}

void WireCodec::Responder::SendError(const WireError& error,
                                     bool close_connection) const {
  Send(WireOp::kError, EncodeErrorBody(error),
       close_connection ? kFlagCloseAfter : 0);
}

}  // namespace wire

template class ConnectionServer<wire::WireCodec>;

}  // namespace declsched::net
