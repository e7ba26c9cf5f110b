// HTTP/1.1 over the connection server (net/connection_server.h).
//
// The HTTP codec keeps keep-alive pipelining ordered: each request takes a
// slot in a per-connection queue, and replies leave strictly in the order
// their requests arrived, whatever order their Responders complete in. A
// request with `Connection: close` is the connection's last: the server
// parses nothing after it and closes once its reply is out.
//
// Replies the server sends itself:
//   - parser errors: oversized headers (431), oversized bodies (413),
//     unsupported framings (501), unsupported versions (505) and the
//     rest (400), answered in order, then close;
//   - over the connection cap: a best-effort 503, then close;
//   - a Responder dropped unanswered: 500 in that request's slot.

#ifndef DECLSCHED_NET_HTTP_SERVER_H_
#define DECLSCHED_NET_HTTP_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/connection_server.h"
#include "net/http.h"

namespace declsched::net {

struct HttpCodec {
  static constexpr const char kTransport[] = "http";
  /// Replies leave in request order, so a closing connection first waits
  /// for every reply still owed.
  static constexpr bool kCloseWaitsForReplies = true;

  using Request = HttpRequest;
  using Parser = HttpRequestParser;

  /// What a Responder carries: its slot, and how to frame the reply.
  struct Token {
    uint64_t seq = 0;
    bool keep_alive = true;
  };
  struct Slot {
    bool done = false;
    std::string wire;  ///< serialized response, valid when done
  };
  /// Per-connection state: the slots of requests not yet written, which
  /// hold the sequence numbers up to next_seq.
  struct State {
    std::deque<Slot> slots;
    uint64_t next_seq = 0;
  };

  /// Completion handle for one request's response slot. Copyable; the
  /// first Send wins. If every copy is dropped without sending, a 500 is
  /// delivered so the slot (and the connection behind it) can never hang.
  /// Send is thread-safe and callable from any thread, including after
  /// the connection or the whole server has gone away (it becomes a
  /// no-op).
  class Responder {
   public:
    Responder() = default;
    /// Serializes `response` on the calling thread.
    void Send(HttpResponse response) const;
    bool valid() const { return core_ != nullptr; }

   private:
    friend class ConnectionServer<HttpCodec>;
    explicit Responder(std::shared_ptr<ResponderCore<HttpCodec>> core)
        : core_(std::move(core)) {}
    std::shared_ptr<ResponderCore<HttpCodec>> core_;
  };

  static std::string OverCapReply();
  static std::string DroppedReply(const Token& token);
};

/// Instantiated in net/connection_server.cc.
using HttpServer = ConnectionServer<HttpCodec>;

}  // namespace declsched::net

#endif  // DECLSCHED_NET_HTTP_SERVER_H_
