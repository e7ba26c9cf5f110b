// Workload definitions and the seeded request stream.
//
// A workload fixes the transport, the front door's configuration and the
// shape of each request. The stream turns (workload, seed) into an endless
// sequence of complete request messages — HTTP/1.1 POST /v1/submit bytes or
// wire SUBMIT frames — so the system under test only ever sees generated
// bytes. Message i is the same for the same seed in every run, and the
// socket run and the traced replay both consume the stream from message 1.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/zipf.h"

namespace perfbench {

/// Client connections in every workload (the host has 4 cores).
constexpr int kConnections = 4;

struct Workload {
  std::string name;
  bool binary = false;      ///< wire protocol; false = HTTP/1.1 JSON
  bool wal = false;         ///< WAL with fsync-per-group-commit
  std::string protocol;     ///< registry name of the scheduling protocol
  int tenants = 1;          ///< equal-weight tenants (wfq)
  int txns_per_request = 1;
  int ops_per_txn = 2;
  double read_fraction = 0; ///< share of ops that are reads
  int64_t key_space = 100000;
  double zipf_theta = 0;    ///< 0 = uniform keys
  int window = 16;         ///< closed-loop requests in flight (all conns)
  double open_rps = 0;      ///< open-loop offered rate, requests/s
  int replay_window = 16;   ///< replay: requests in flight
  int64_t replay_requests = 0;  ///< requests one traced replay consumes
};

/// The three benchmark workloads; null for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One generated request.
struct StreamItem {
  uint64_t seq = 0;  ///< 1-based position; the wire request id
  int64_t txns = 0;
  int64_t statements = 0;
  std::string bytes;  ///< complete message as sent on the socket
};

class RequestStream {
 public:
  RequestStream(const Workload& workload, uint64_t seed);

  StreamItem Next();
  /// FNV-1a over every byte handed out so far.
  uint64_t digest() const { return digest_; }
  uint64_t consumed() const { return seq_; }

 private:
  const Workload& workload_;
  declsched::Rng rng_;
  std::unique_ptr<declsched::workload::ZipfGenerator> zipf_;
  uint64_t seq_ = 0;
  uint64_t digest_ = 1469598103934665603ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
