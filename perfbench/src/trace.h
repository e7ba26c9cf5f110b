// In-memory span recorder for the traced replay.
//
// Spans nest strictly (the replay is single-threaded), so the parent of a
// new span is the innermost open one. Each span keeps its name, start, end,
// parent and request id; a span's self time is its duration minus the
// durations of its direct children. A disabled tracer records nothing and
// reads no clock, which is what the untimed replay runs with.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
inline double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(rank, v.size() - 1)]);
}

/// Span names; the layer of each is in LayerOf().
enum class SpanName : uint8_t {
  kGenerate,       ///< RequestStream::Next: the load generator's own work
  kClientIo,       ///< client half of the loopback: send request, recv answer
  kNetIo,          ///< server half of the loopback: recv request, send answer
  kHttpParse,      ///< HttpRequestParser Feed + Next
  kJsonParse,      ///< JsonValue::Parse of the submit body
  kHttpRespond,    ///< ack body (StrFormat) + HttpResponse::Json + Serialize
  kAdmit,          ///< body -> transactions, validation, SubmitWork's books
  kDispatch,       ///< OnDispatch's drive: lock, cursors, counters, histograms
  kWireDecode,     ///< FrameParser Feed + Next + DecodeSubmitBody
  kWireEncode,     ///< EncodeSubmitOkBody + AppendFrame
  kSubmit,         ///< ShardedScheduler::Submit, single-shard
  kEscrowSubmit,   ///< ShardedScheduler::Submit, cross-shard finisher
  kStep,           ///< ShardedScheduler::StepOnce
  kExecute,        ///< DatabaseServer::ExecuteBatch
  kWalWait,        ///< replay idle until a WhenDurable callback fires
  kCount,
};

/// The layer a span's self time is charged to.
const char* LayerOf(SpanName name);

struct Span {
  SpanName name;
  int32_t parent = -1;
  int64_t request = -1;  ///< stream sequence number, -1 for shared work
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int32_t Begin(SpanName name, int64_t request) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void End(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  struct NameStats {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<int64_t> durations_ns;
  };
  /// Per-name count, total and self time, plus the summed duration of the
  /// top-level spans (what the layers account for of the wall time).
  std::map<SpanName, NameStats> Summarize(int64_t* top_level_ns) const;

  /// Writes every span as JSON; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name, int64_t request)
      : tracer_(tracer), index_(tracer->Begin(name, request)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
