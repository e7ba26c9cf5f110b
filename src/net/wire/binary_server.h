// The binary wire protocol over the connection server
// (net/connection_server.h).
//
// Responses need no ordering: the wire protocol's request ids let clients
// pipeline and match replies out of order, so a reply is queued for
// writing the moment its Responder completes.
//
// The codec speaks the connection-level half of the protocol itself: HELLO
// handshake enforcement (magic + version, 505 on mismatch), FINISH
// draining (reply FINISH_OK once every outstanding request on the
// connection has been answered, then close), frame-parser errors (typed
// ERROR frame, 413 or 400, then close), the connection cap (best-effort
// 503 ERROR frame on the fresh socket, then close), and a 500 ERROR frame
// for a dropped responder. Application ops (SUBMIT / STATS / EXPLAIN) go
// to the registered handler.

#ifndef DECLSCHED_NET_WIRE_BINARY_SERVER_H_
#define DECLSCHED_NET_WIRE_BINARY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/connection_server.h"
#include "net/wire/wire_codec.h"

namespace declsched::net::wire {

struct WireCodec {
  static constexpr const char kTransport[] = "wire";
  /// A frame flagged close-after is the connection's last, so closing
  /// abandons replies still owed.
  static constexpr bool kCloseWaitsForReplies = false;

  using Request = WireFrame;
  using Parser = FrameParser;
  /// A Responder answers with its request's id.
  using Token = uint64_t;
  /// Per-connection state: the handshake and FINISH draining.
  struct State {
    bool hello_done = false;
    bool finish_requested = false;
    uint64_t finish_request_id = 0;
  };

  /// Completion handle for one request frame. Copyable; the first Send
  /// wins. Dropping every copy without sending delivers a 500 ERROR frame
  /// so a lost handler can never wedge a client waiting on its request id.
  /// Send is thread-safe and callable from any thread, including after the
  /// connection or server has gone away (it becomes a no-op).
  class Responder {
   public:
    Responder() = default;
    /// Sends one response frame with the request's id.
    void Send(WireOp op, std::string body, uint8_t flags = 0) const;
    void SendError(const WireError& error, bool close_connection = false) const;
    bool valid() const { return core_ != nullptr; }

   private:
    friend class ConnectionServer<WireCodec>;
    explicit Responder(std::shared_ptr<ResponderCore<WireCodec>> core)
        : core_(std::move(core)) {}
    std::shared_ptr<ResponderCore<WireCodec>> core_;
  };

  static std::string OverCapReply();
  static std::string DroppedReply(uint64_t request_id);
};

/// Instantiated in net/connection_server.cc.
using BinaryServer = ConnectionServer<WireCodec>;

}  // namespace declsched::net::wire

#endif  // DECLSCHED_NET_WIRE_BINARY_SERVER_H_
