// The benchmark's load generator: one thread, a few connections, both
// transports pipelined.
//
// Built on the public codecs (net/http.h, net/json.h, net/wire/
// wire_codec.h). HTTP responses come back in request order per connection,
// so each connection keeps a FIFO of its outstanding requests; wire
// responses carry the request id, the stream's sequence number. Open-loop
// sends go out at their due times on the next connection in turn whatever
// is outstanding there, and each request is timed from its due time, so a
// stall is charged to every request it delays.
//
// Every answer is checked: it must match exactly one outstanding request
// and, when it is a success, report the request's own transaction and
// statement counts with dispatched = statements + commits.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/wire/wire_codec.h"
#include "stream.h"

namespace perfbench {

struct ClientTally {
  int64_t sent = 0;
  int64_t refused = 0;  ///< 429 / 503 / wire ERROR answers
  int64_t conn_errors = 0;
  int64_t txns_acked = 0;
  std::vector<std::string> breaches;  ///< correctness violations seen
};

struct PhaseResult {
  int64_t sent = 0;
  int64_t late = 0;  ///< open loop: sends issued more than one interval late
  /// Closed loop: transactions acknowledged per second, one entry per slice.
  std::vector<double> slice_txn_per_s;
  /// Open loop: due-time-to-ack latencies (ns), by the slice of the due time.
  std::vector<std::vector<int64_t>> slice_latency_ns;
};

class Client {
 public:
  Client(const Workload& workload, uint16_t port, RequestStream* stream);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens every connection; on the wire transport also completes HELLO.
  declsched::Status Connect(int64_t deadline_ns);
  /// Sends one request on every connection and waits for all the acks.
  declsched::Status FirstAckOnEach(int64_t deadline_ns);
  /// Keeps `workload.window` requests in flight for `duration_ns`.
  PhaseResult RunClosed(int64_t duration_ns, int slices);
  /// Sends at `rps` on a fixed schedule for `duration_ns`.
  PhaseResult RunOpen(double rps, int64_t duration_ns, int slices);
  /// Waits until every sent request is answered; counts the rest unanswered.
  declsched::Status Drain(int64_t deadline_ns);

  const ClientTally& tally() const { return tally_; }
  int64_t outstanding() const { return outstanding_; }

 private:
  struct Pending {
    uint64_t seq = 0;
    int64_t txns = 0;
    int64_t statements = 0;
    int64_t start_ns = 0;  ///< send time, or due time in the open loop
    int slice = -1;        ///< open-loop slice of the due time
  };

  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    bool want_write = false;
    bool hello_ok = false;
    declsched::net::HttpResponseParser http;
    declsched::net::wire::FrameParser wire;
    std::deque<Pending> fifo;                     ///< HTTP
    std::unordered_map<uint64_t, Pending> by_id;  ///< wire
  };

  enum class Mode { kIdle, kClosed, kOpen };

  void Send(size_t conn, int64_t start_ns, int slice);
  void Flush(size_t conn);
  void SetWriteInterest(size_t conn, bool on);
  /// One epoll round; timeout in ms (-1 = until an event).
  void Poll(int timeout_ms);
  void ArmTimer(int64_t at_ns);
  void ReadConn(size_t conn);
  void OnAnswer(size_t conn, const Pending& p, bool success, int64_t txns,
                int64_t statements, int64_t dispatched);
  void Fail(size_t conn, const std::string& why);
  void Breach(const std::string& what);

  const Workload& workload_;
  uint16_t port_;
  RequestStream* stream_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  int64_t outstanding_ = 0;
  ClientTally tally_;

  Mode mode_ = Mode::kIdle;
  int64_t phase_start_ns_ = 0;
  int64_t phase_end_ns_ = 0;
  int64_t slice_ns_ = 1;
  std::vector<int64_t> slice_txns_;
  std::vector<std::vector<int64_t>> slice_latency_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
