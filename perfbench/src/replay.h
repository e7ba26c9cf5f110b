// The in-process replay: the front door's request path, driven by hand.
//
// The replay consumes the same seeded stream as the socket run and pushes
// each message through the public function of every layer in turn — the
// HTTP or wire decoder, admission, ShardedScheduler::Submit, StepOnce (the
// scheduler runs cooperatively on this thread, over a null server), the
// server's ExecuteBatch on the dispatched statements, the WAL's
// WhenDurable, and the response encoder — keeping the socket run's window
// of requests in flight. With a tracer attached every call is a span, so
// the time of each layer is measured from outside, with no change to the
// program.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream.h"
#include "trace.h"

namespace perfbench {

struct ReplayOutput {
  std::vector<std::string> breaches;
  int64_t requests = 0;
  int64_t txns = 0;
  int64_t wall_ns = 0;
  uint64_t stream_digest = 0;
  /// Per-layer metrics; filled only when the tracer is enabled.
  std::map<std::string, double> metrics;
  /// Each layer's self time over all self time, likewise. Printed, not
  /// reported: the shares sum to 1, so they carry no direction.
  std::map<std::string, double> layer_shares;
};

/// Replays the first `requests` messages of the workload's stream for
/// `seed`. `data_dir` holds the WAL of workloads that have one.
ReplayOutput RunReplay(const Workload& workload, uint64_t seed,
                       int64_t requests, Tracer* tracer,
                       const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
