// The connection server behind both front-door transports: N epoll
// reactors over a codec that speaks the protocol.
//
// The server owns everything transport-neutral. Each reactor thread binds
// its own listener to the shared port with SO_REUSEPORT, so the kernel
// spreads incoming connections across reactors with no shared accept lock
// and no fd handoff. A connection is owned by exactly one reactor for its
// whole life: reads, parsing, handler dispatch and writes all happen on
// that thread, so per-connection state needs no locks. The server also
// owns the global connection cap, the read loop, the write buffer with its
// slow-client budget, close, graceful shutdown, the exact connection
// count, and the net_* metrics (labelled by transport).
//
// The codec owns the protocol: its parser, per-connection state, typed
// Responder, and the replies the server sends on its own behalf (the
// over-cap 503, the parse-error reply, the 500 for a dropped responder).
// Two codecs exist: HttpCodec (net/http_server.h), whose instantiation is
// HttpServer, and wire::WireCodec (net/wire/binary_server.h), whose
// instantiation is wire::BinaryServer.
//
// Handlers run on the owning reactor and answer through a Responder that
// may be completed from any thread (a shard worker finishing a batch): the
// Responder encodes the reply on the completing thread and the bytes are
// posted back to the owning reactor.
//
// Shutdown is graceful: listeners close first, in-flight responders get a
// drain window to complete, then remaining connections are torn down and
// the reactors stop.

#ifndef DECLSCHED_NET_CONNECTION_SERVER_H_
#define DECLSCHED_NET_CONNECTION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/reactor.h"
#include "observability/metrics.h"

namespace declsched::net {

template <typename Codec>
class ConnectionServer;

/// What every copy of one request's Responder shares: the route back to
/// its connection and whether it was answered. The codec's Responder
/// encodes on the calling thread, wins Claim(), then Send()s the bytes to
/// the owning reactor. The core weakly references that reactor and reaches
/// the server only through tasks the reactor still accepts (the server
/// keeps its reactors alive until every loop has drained), so an answer
/// that arrives after its connection or server has gone is a no-op.
template <typename Codec>
class ResponderCore {
 public:
  using Token = typename Codec::Token;

  ResponderCore(std::weak_ptr<Reactor> reactor, ConnectionServer<Codec>* server,
                int reactor_index, uint64_t conn_id, Token token)
      : reactor_(std::move(reactor)),
        server_(server),
        reactor_index_(reactor_index),
        conn_id_(conn_id),
        token_(token) {}
  /// Every copy dropped unanswered: delivers the codec's 500, so the
  /// request cannot wedge its connection.
  ~ResponderCore();

  ResponderCore(const ResponderCore&) = delete;
  ResponderCore& operator=(const ResponderCore&) = delete;

  const Token& token() const { return token_; }
  /// True for the first caller only: a request gets one answer.
  bool Claim() { return !sent_.exchange(true, std::memory_order_acq_rel); }
  /// Hands encoded reply bytes to the owning reactor; `close_after` closes
  /// the connection once they are written. Thread-safe.
  void Send(std::string bytes, bool close_after);

 private:
  std::weak_ptr<Reactor> reactor_;
  ConnectionServer<Codec>* server_;
  int reactor_index_;
  uint64_t conn_id_;
  Token token_;
  std::atomic<bool> sent_{false};
};

template <typename Codec>
class ConnectionServer {
 public:
  struct Options {
    /// Port to listen on; 0 picks an ephemeral port (read it back with
    /// port() after Start).
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Reactor threads; each owns its connections end to end.
    int reactor_threads = 1;
    /// Global cap across all reactors; accepts beyond it get the codec's
    /// best-effort 503 and close.
    int max_connections = 4096;
    /// Slow-client budget: buffered unsent response bytes above this close
    /// the connection.
    size_t max_write_buffer_bytes = 256 * 1024;
    /// How long Shutdown() waits for in-flight responders.
    int drain_timeout_ms = 2000;
    typename Codec::Parser::Limits parser_limits;
    /// Optional: the net_* metrics (see docs/OBSERVABILITY.md) are
    /// registered here, labelled transport="http" or "wire".
    observability::MetricsRegistry* metrics = nullptr;
  };

  using Request = typename Codec::Request;
  using Responder = typename Codec::Responder;
  /// Application callback; runs on the owning reactor thread and must not
  /// block.
  using HandlerFn = std::function<void(Request, Responder)>;

  explicit ConnectionServer(Options options);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds one SO_REUSEPORT listener per reactor, listens, and starts
  /// every reactor thread.
  Status Start(HandlerFn handler);
  /// Graceful stop; idempotent. Safe to call without Start.
  void Shutdown();

  /// Bound port (after Start).
  uint16_t port() const { return port_; }
  /// Live connection count — exact: one atomic maintained at accept and
  /// close across all reactors, and the same number the
  /// net_connections_open gauge exports.
  int64_t connections() const {
    return connection_count_.load(std::memory_order_relaxed);
  }
  /// Requests handed to the handler and not yet answered.
  int64_t pending_responses() const {
    return pending_responses_.load(std::memory_order_relaxed);
  }
  /// Connections accepted by reactor `i` (the accept-distribution view).
  int64_t accepted_by_reactor(int i) const;

 private:
  friend class ResponderCore<Codec>;
  using Token = typename Codec::Token;

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    typename Codec::Parser parser;
    typename Codec::State state;
    std::string write_buffer;
    int64_t outstanding = 0;  ///< requests handed to the handler, unanswered
    bool want_writable = false;
    /// Parse no further requests; close once the queued replies are out.
    bool closing = false;

    Connection(uint64_t id, int fd, typename Codec::Parser::Limits limits)
        : id(id), fd(fd), parser(limits) {}
  };

  /// Everything one reactor owns. Only its thread touches `conns`.
  struct Shard {
    int index = 0;
    std::shared_ptr<Reactor> reactor;
    int listen_fd = -1;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    /// Accept distribution, readable off-thread (mirrors `accepted`).
    std::atomic<int64_t> accepted_count{0};
    // Registered iff options_.metrics != nullptr.
    observability::Counter* accepted = nullptr;
    observability::Counter* bytes_in = nullptr;
    observability::Counter* bytes_out = nullptr;
    observability::Counter* requests_in = nullptr;
    observability::Counter* responses_out = nullptr;
  };

  Result<int> OpenListener();
  void DoAccept(Shard& shard);
  void OnConnectionEvent(Shard& shard, uint64_t conn_id, uint32_t events);
  void ReadFromConnection(Shard& shard, Connection* conn);
  /// Hands one request to the application with a Responder for `token`.
  void Dispatch(Shard& shard, Connection* conn, Request request, Token token);
  /// A Responder's answer, on the owning reactor.
  void Complete(int reactor_index, uint64_t conn_id, const Token& token,
                std::string bytes, bool close_after);
  void FlushConnection(Shard& shard, Connection* conn);
  void CloseConnection(Shard& shard, uint64_t conn_id);
  static Connection* Find(Shard& shard, uint64_t conn_id);

  // Codec hooks, specialized per transport in connection_server.cc.
  /// Answers a connection-level request itself or Dispatch()es it.
  void OnRequest(Shard& shard, Connection* conn, Request request);
  /// Queues the reply to bytes the parser rejected; the connection closes.
  void OnParseError(Shard& shard, Connection* conn);
  /// Queues a completed answer for writing.
  void OnReply(Shard& shard, Connection* conn, const Token& token,
               std::string bytes);

  Options options_;
  HandlerFn handler_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> shut_down_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int64_t> connection_count_{0};
  std::atomic<int64_t> pending_responses_{0};

  // Registered iff options_.metrics != nullptr.
  observability::Counter* rejected_total_ = nullptr;
  observability::Counter* parse_errors_total_ = nullptr;
  observability::Counter* slow_client_closes_total_ = nullptr;
  observability::Gauge* connections_gauge_ = nullptr;
  observability::HistogramMetric* requests_per_read_ = nullptr;
};

}  // namespace declsched::net

#endif  // DECLSCHED_NET_CONNECTION_SERVER_H_
