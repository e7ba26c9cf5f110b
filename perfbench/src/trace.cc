#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"loadgen.generate", "loadgen"},
    {"loadgen.io", "loadgen"},
    {"net.io", "net"},
    {"net.http.parse", "net"},
    {"net.json.parse", "net"},
    {"net.http.respond", "net"},
    {"net.admit", "net"},
    {"net.dispatch", "net"},
    {"net.wire.decode", "net.wire"},
    {"net.wire.encode", "net.wire"},
    {"scheduler.submit", "scheduler"},
    {"scheduler.escrow_submit", "scheduler"},
    {"scheduler.step", "scheduler"},
    {"server.execute", "server"},
    {"storage.wal.wait", "storage"},
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<size_t>(SpanName::kCount),
              "one NameInfo per SpanName");

}  // namespace

const char* LayerOf(SpanName name) {
  return kNames[static_cast<size_t>(name)].layer;
}

std::map<SpanName, Tracer::NameStats> Tracer::Summarize(
    int64_t* top_level_ns) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<SpanName, NameStats> stats;
  *top_level_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    NameStats& s = stats[span.name];
    ++s.count;
    s.total_ns += duration;
    s.self_ns += duration - child_ns[i];
    s.durations_ns.push_back(duration);
    if (span.parent < 0) *top_level_ns += duration;
  }
  return stats;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"fields\":[\"name\",\"parent\",\"request\",\"start_ns\","
                  "\"end_ns\"],\"names\":[");
  for (size_t i = 0; i < static_cast<size_t>(SpanName::kCount); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", kNames[i].name);
  }
  std::fprintf(f, "],\"layers\":[");
  for (size_t i = 0; i < static_cast<size_t>(SpanName::kCount); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", kNames[i].layer);
  }
  std::fprintf(f, "],\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%d,%d,%lld,%lld,%lld]", i == 0 ? "" : ",",
                 static_cast<int>(s.name), s.parent,
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
