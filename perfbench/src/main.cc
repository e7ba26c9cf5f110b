// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --selftest [--out DIR]
//
// --trace 0 (end to end): starts one in-process FrontDoor with 2 shards
// several times and reports the median set-up time, then drives the last
// one over loopback with the single-threaded client: an open-loop phase at
// the workload's fixed rate (six tenths of the run), then a closed-loop
// phase at its window (three tenths). The open loop goes first so that latency is
// measured on a fresh front door, not on one whose WAL the closed loop has
// just grown by tens of megabytes.
// --trace 1 (per layer): a short open-loop socket run for the metrics only
// the front door's registry holds, then the in-process replay of the same
// stream, alternately untimed and traced; the spans go to DIR/traces/.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Any breach of
// correctness makes "correct" false and the exit code 1.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/logging.h"
#include "net/front_door.h"
#include "replay.h"
#include "scheduler/protocol_library.h"
#include "storage/wal.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = declsched::net;

constexpr int kSetups = 9;
/// Reactor threads of the wire transport (the HTTP server has one).
constexpr int kBinaryReactors = 2;
/// Each phase is cut into slices of this length; a metric is the median
/// over slices, so a stall that hits one slice moves it little.
constexpr int64_t kSliceNs = 500'000'000;
constexpr int kReplayPairs = 3;
constexpr int64_t kSecondNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool selftest = false;
  std::string out = ".bench_build/out";
};

/// Deletes a data directory and commits the deletion to disk. On a file
/// system that discards freed blocks at commit, a large deleted WAL
/// otherwise stalls the next fsync, which would be a later run's.
void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const int fd = ::open(fs::path(dir).parent_path().c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

struct Metric {
  double value;
  const char* unit;
};

int Slices(int64_t duration_ns) {
  return static_cast<int>(std::max<int64_t>(duration_ns / kSliceNs, 1));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

net::FrontDoor::Options DoorOptions(const Workload& w, const std::string& dir) {
  net::FrontDoor::Options o;
  o.num_shards = 2;
  o.shard.protocol =
      declsched::scheduler::ProtocolRegistry::BuiltIns().Get(w.protocol)
          .ValueOrDie();
  for (int t = 0; t < w.tenants; ++t) o.shard.tenant_qos.tenants[t].weight = 1;
  o.server.num_rows = 100000;
  // The admission cap stays at its default (4096 statements), above every
  // workload's window: it only bites when a stall on the host backs the
  // open loop up, and then it turns an unbounded backlog, whose pending
  // self-join on hot keys grows quadratically, into counted refusals.
  if (w.binary) {
    net::wire::BinaryServer::Options b;
    b.reactor_threads = kBinaryReactors;
    o.binary = b;
  }
  if (w.wal) {
    o.durability.enabled = true;
    o.durability.dir = dir;
    o.durability.fsync = true;
  }
  return o;
}

/// One front door plus the connected client, built the way set-up is timed.
struct Session {
  std::string dir;
  std::unique_ptr<net::FrontDoor> door;
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<Client> client;
  double setup_s = 0;

  ~Session() {
    client.reset();
    if (door) door->Shutdown();
    door.reset();
    if (!dir.empty()) RemoveDir(dir);
  }
};

std::unique_ptr<Session> StartSession(const Workload& w, uint64_t seed,
                                      const std::string& dir,
                                      std::vector<std::string>* breaches) {
  auto s = std::make_unique<Session>();
  s->dir = dir;
  const int64_t t0 = NowNs();
  s->door = std::make_unique<net::FrontDoor>(DoorOptions(w, dir));
  const declsched::Status started = s->door->Start();
  if (!started.ok()) {
    breaches->push_back("front door start: " + started.ToString());
    return nullptr;
  }
  s->stream = std::make_unique<RequestStream>(w, seed);
  const uint16_t port = w.binary ? s->door->binary_port() : s->door->port();
  s->client = std::make_unique<Client>(w, port, s->stream.get());
  const int64_t deadline = NowNs() + 30 * kSecondNs;
  declsched::Status st = s->client->Connect(deadline);
  if (st.ok()) st = s->client->FirstAckOnEach(deadline);
  if (!st.ok()) {
    breaches->push_back("set-up: " + st.ToString());
    for (const std::string& b : s->client->tally().breaches) {
      breaches->push_back(b);
    }
    return nullptr;
  }
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

/// The front door's own books must agree with what the client saw.
void CheckDoor(Session* s, std::vector<std::string>* breaches) {
  const ClientTally& tally = s->client->tally();
  for (const std::string& b : tally.breaches) breaches->push_back(b);
  net::FrontDoor* door = s->door.get();
  if (!door->sched()->WaitIdle(5 * 1000000)) {
    breaches->push_back("scheduler did not go idle after the run");
  }
  const int64_t committed = door->metrics().Value("frontdoor_txns_committed_total");
  if (committed != tally.txns_acked) {
    breaches->push_back("frontdoor_txns_committed_total " +
                        std::to_string(committed) + " != acked transactions " +
                        std::to_string(tally.txns_acked));
  }
  const auto totals = door->sched()->totals();
  if (totals.submitted != totals.dispatched) {
    breaches->push_back("scheduler submitted " +
                        std::to_string(totals.submitted) + " != dispatched " +
                        std::to_string(totals.dispatched));
  }
  if (door->inflight_statements() != 0) {
    breaches->push_back("frontdoor_inflight_statements " +
                        std::to_string(door->inflight_statements()) +
                        " after the run drained");
  }
  if (const declsched::storage::Wal* wal = door->sched()->wal()) {
    const int64_t deadline = NowNs() + 5 * kSecondNs;
    while (wal->durable_lsn() < wal->head_lsn() && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (wal->durable_lsn() < wal->head_lsn()) {
      breaches->push_back("WAL durable_lsn " +
                          std::to_string(wal->durable_lsn()) + " < head_lsn " +
                          std::to_string(wal->head_lsn()) + " after drain");
    }
  }
}

int64_t Failed(const ClientTally& t, int64_t unanswered) {
  return t.refused + t.conn_errors + unanswered;
}

std::string DataDir(const Args& args, const Workload& w, int i) {
  return args.out + "/data/" + w.name + "-" + std::to_string(getpid()) + "-" +
         std::to_string(i);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

void PrintBreaches(const std::vector<std::string>& breaches) {
  for (const std::string& b : breaches) std::printf("BREACH: %s\n", b.c_str());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int RunEndToEnd(const Args& args, const Workload& w) {
  std::vector<std::string> breaches;
  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    session = StartSession(w, args.seed, DataDir(args, w, i), &breaches);
    if (!session) break;
    setups.push_back(session->setup_s);
  }
  PhaseResult closed;
  PhaseResult open;
  // Sampled after the open loop, whose work is fixed (rate x duration): the
  // closed loop's work follows its throughput, and so would its memory.
  double open_rss_mb = 0;
  if (session) {
    const int64_t seconds_ns = static_cast<int64_t>(args.seconds) * kSecondNs;
    const int64_t open_ns = seconds_ns * 6 / 10;
    const int64_t closed_ns = seconds_ns * 3 / 10;
    open = session->client->RunOpen(w.open_rps, open_ns, Slices(open_ns));
    open_rss_mb = PeakRssMb();
    closed = session->client->RunClosed(closed_ns, Slices(closed_ns));
    CheckDoor(session.get(), &breaches);
  }
  const ClientTally tally = session ? session->client->tally() : ClientTally{};
  const int64_t unanswered = session ? session->client->outstanding() : 0;
  session.reset();

  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  int64_t acks = 0;
  for (const auto& slice : open.slice_latency_ns) {
    acks += static_cast<int64_t>(slice.size());
    p50.push_back(Percentile(slice, 50) / 1e3);
    p90.push_back(Percentile(slice, 90) / 1e3);
    p99.push_back(Percentile(slice, 99) / 1e3);
  }
  if (breaches.empty() && acks < 1000) {
    breaches.push_back("open loop produced only " + std::to_string(acks) +
                       " acks (need 1000)");
  }
  const int64_t failed = Failed(tally, unanswered);
  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {Median(setups), "s"};
  metrics["txn_per_s"] = {Median(closed.slice_txn_per_s), "1/s"};
  metrics["ack_p50_us"] = {Median(p50), "us"};
  metrics["ack_p90_us"] = {Median(p90), "us"};
  metrics["peak_rss_mb"] = {open_rss_mb, "MB"};
  // Printed, not in the result line: on wire-durable the p99 sits at the
  // knee of the WAL's fsync-stall tail and moves by a third between runs.
  const double ack_p99_us = Median(p99);
  const double fail_frac =
      tally.sent > 0 ? static_cast<double>(failed) / tally.sent : 0;

  std::printf("workload %s seed %llu: %d connections, window %d, open loop "
              "%.0f req/s, nproc %u\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              kConnections, w.window, w.open_rps,
              std::thread::hardware_concurrency());
  std::printf("  closed loop: %lld requests sent; open loop: %lld sent, "
              "%lld acks, %lld late\n",
              static_cast<long long>(closed.sent),
              static_cast<long long>(open.sent), static_cast<long long>(acks),
              static_cast<long long>(open.late));
  for (size_t i = 0; i < open.slice_latency_ns.size(); ++i) {
    const auto& slice = open.slice_latency_ns[i];
    std::printf("  open slice %zu: %zu acks, p50 %.1f us, p90 %.1f us, "
                "p99 %.1f us, max %.1f us\n",
                i, slice.size(), p50[i], p90[i], p99[i],
                Percentile(slice, 100) / 1e3);
  }
  for (size_t i = 0; i < closed.slice_txn_per_s.size(); ++i) {
    std::printf("  closed slice %zu: %.0f txn/s\n", i,
                closed.slice_txn_per_s[i]);
  }
  for (const auto& [name, m] : metrics) {
    std::printf("  %-12s %14.3f %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("  %-12s %14.3f us\n", "ack_p99_us", ack_p99_us);
  std::printf("  %-12s %14.3f MB (after the closed loop)\n", "peak_rss_mb",
              PeakRssMb());
  std::printf("  %-12s %14.6f (%lld of %lld requests)\n", "fail_frac",
              fail_frac, static_cast<long long>(failed),
              static_cast<long long>(tally.sent));
  PrintBreaches(breaches);
  const bool correct = breaches.empty();
  PrintResult(correct, std::max<int64_t>(tally.sent, 1), failed, metrics);
  return correct ? 0 : 1;
}

/// The unit a per-layer metric's name implies.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("bytes_per_txn")) return "B";
  if (ends("_ns") || ends("_ns_per_stmt") || ends("_ns_per_txn")) return "ns";
  if (ends("_us") || ends("_us_per_txn") || ends("_us_per_cycle")) return "us";
  if (ends("_frac") || ends("_share") || ends("_ratio") || ends("_imbalance")) {
    return "ratio";
  }
  return "count";
}

int RunPerLayer(const Args& args, const Workload& w) {
  std::vector<std::string> breaches;
  std::map<std::string, double> metrics;
  const int64_t seconds_ns = static_cast<int64_t>(args.seconds) * kSecondNs;

  // Registry metrics and generator lateness come from a socket run.
  int64_t attempted = 0;
  int64_t failed = 0;
  {
    std::unique_ptr<Session> s =
        StartSession(w, args.seed, DataDir(args, w, 0), &breaches);
    if (s) {
      const PhaseResult open =
          s->client->RunOpen(w.open_rps, seconds_ns * 3 / 10, 1);
      CheckDoor(s.get(), &breaches);
      std::vector<int64_t> all;
      for (const auto& slice : open.slice_latency_ns) {
        all.insert(all.end(), slice.begin(), slice.end());
      }
      auto& reg = s->door->metrics();
      const declsched::Histogram submit =
          reg.GetHistogram("frontdoor_submit_latency_us", "")->Snapshot();
      const declsched::Histogram dispatch =
          reg.GetHistogram("frontdoor_dispatch_latency_us", "")->Snapshot();
      metrics["loadgen.late_frac"] =
          open.sent > 0 ? static_cast<double>(open.late) / open.sent : 0;
      // frontdoor_submit_latency_us stops at the last commit's dispatch, so
      // on a workload with a WAL this includes the durable wait too.
      metrics["net.outside_p50_us"] =
          Percentile(all, 50) / 1e3 -
          static_cast<double>(submit.Percentile(50));
      metrics["scheduler.op_dispatch_p99_us"] =
          static_cast<double>(dispatch.Percentile(99));
      attempted += s->client->tally().sent;
      failed += Failed(s->client->tally(), s->client->outstanding());
    }
  }

  // Untimed and traced replays alternate, so drift on the host falls on
  // both sides of trace.overhead_frac; the metrics come from the last
  // traced replay.
  const int64_t requests = std::max<int64_t>(
      w.replay_requests * args.seconds / 10, w.replay_window * 4);
  std::vector<double> untimed_s;
  std::vector<double> traced_s;
  std::unique_ptr<Tracer> tracer;
  ReplayOutput traced;
  uint64_t digest = 0;
  for (int i = 0; i < 2 * kReplayPairs; ++i) {
    const bool timed = i % 2 == 1;
    auto t = std::make_unique<Tracer>(timed);
    const std::string dir = DataDir(args, w, 1 + i);
    ReplayOutput out = RunReplay(w, args.seed, requests, t.get(), dir);
    RemoveDir(dir);
    for (const std::string& b : out.breaches) breaches.push_back("replay: " + b);
    if (i > 0 && out.stream_digest != digest) {
      breaches.push_back("two replays consumed different streams");
    }
    digest = out.stream_digest;
    (timed ? traced_s : untimed_s).push_back(out.wall_ns / 1e9);
    if (timed) {
      tracer = std::move(t);
      traced = std::move(out);
    }
  }
  attempted += traced.requests;

  for (const auto& [name, value] : traced.metrics) metrics[name] = value;
  metrics["trace.overhead_frac"] = Median(traced_s) / Median(untimed_s) - 1;

  const std::string trace_path = args.out + "/traces/" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  std::error_code ec;
  fs::create_directories(args.out + "/traces", ec);
  if (!tracer->WriteJson(trace_path)) {
    breaches.push_back("could not write " + trace_path);
  }

  std::printf("workload %s seed %llu: replay of %lld requests (%lld txns), "
              "median untimed %.3f s, traced %.3f s; spans in %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(traced.requests),
              static_cast<long long>(traced.txns), Median(untimed_s),
              Median(traced_s), trace_path.c_str());
  std::map<std::string, Metric> with_units;
  for (const auto& [name, value] : metrics) {
    with_units[name] = {value, LayerUnit(name)};
    std::printf("  %-36s %14.4f %s\n", name.c_str(), value, LayerUnit(name));
  }
  std::printf("  share of self time:");
  for (const auto& [layer, share] : traced.layer_shares) {
    std::printf(" %s %.3f", layer.c_str(), share);
  }
  std::printf("\n");
  PrintBreaches(breaches);
  const bool correct = breaches.empty();
  PrintResult(correct, std::max<int64_t>(attempted, 1), failed, with_units);
  return correct ? 0 : 1;
}

/// Same seed, same bytes; and the socket run and the replay consume the
/// same stream.
int RunSelfTest(const Args& args) {
  std::vector<std::string> failures;
  for (const std::string& name : WorkloadNames()) {
    const Workload& w = *FindWorkload(name);
    RequestStream a(w, 7);
    RequestStream b(w, 7);
    RequestStream c(w, 8);
    bool same = true;
    bool differs = false;
    for (int i = 0; i < 2000; ++i) {
      const StreamItem x = a.Next();
      same = same && x.bytes == b.Next().bytes;
      differs = differs || x.bytes != c.Next().bytes;
    }
    if (!same) failures.push_back(name + ": seed 7 gave two different streams");
    if (!differs) failures.push_back(name + ": seeds 7 and 8 gave one stream");

    std::vector<std::string> breaches;
    uint64_t socket_digest = 0;
    int64_t consumed = 0;
    {
      std::unique_ptr<Session> s =
          StartSession(w, 7, DataDir(args, w, 3), &breaches);
      if (s) {
        s->client->RunClosed(kSecondNs / 4, 1);
        CheckDoor(s.get(), &breaches);
        socket_digest = s->stream->digest();
        consumed = static_cast<int64_t>(s->stream->consumed());
      }
    }
    Tracer untimed(false);
    const ReplayOutput replay =
        RunReplay(w, 7, consumed, &untimed, DataDir(args, w, 4));
    RemoveDir(DataDir(args, w, 4));
    breaches.insert(breaches.end(), replay.breaches.begin(),
                    replay.breaches.end());
    for (const std::string& b : breaches) failures.push_back(name + ": " + b);
    if (consumed == 0 || replay.requests != consumed ||
        replay.stream_digest != socket_digest) {
      failures.push_back(name + ": socket run and replay consumed different "
                                "streams (" + std::to_string(consumed) +
                         " vs " + std::to_string(replay.requests) + ")");
    }
    std::printf("%s: %lld requests, stream digest %016llx\n", name.c_str(),
                static_cast<long long>(consumed),
                static_cast<unsigned long long>(socket_digest));
  }
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  std::printf("selftest %s\n", failures.empty() ? "passed" : "FAILED");
  return failures.empty() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0 &&
          (args->trace == 0 || args->trace == 1));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR] | --selftest [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  declsched::MinLogLevel() = declsched::LogLevel::kWarn;
  std::error_code ec;
  fs::create_directories(args.out + "/data", ec);
  if (args.selftest) return RunSelfTest(args);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace == 0 ? RunEndToEnd(args, *w) : RunPerLayer(args, *w);
}
