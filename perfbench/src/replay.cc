#include "replay.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "net/front_door.h"
#include "net/http.h"
#include "net/json.h"
#include "net/wire/wire_codec.h"
#include "observability/metrics.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "server/database_server.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

namespace net = declsched::net;
namespace obs = declsched::observability;
namespace wire = declsched::net::wire;
namespace sched = declsched::scheduler;
namespace txn = declsched::txn;
using declsched::SimTime;
using declsched::Status;

constexpr int64_t kWalWaitTimeoutNs = 5'000'000'000;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A connected loopback TCP pair. The replay carries every request and
/// response across it, so the kernel cost the front door's reactor pays per
/// message (one recv, one send) is part of the trace.
class Loopback {
 public:
  Loopback() {
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      if (listener >= 0) ::close(listener);
      return;
    }
    client_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (client_ >= 0 &&
        ::connect(client_, reinterpret_cast<sockaddr*>(&addr), len) == 0) {
      server_ = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    }
    ::close(listener);
    const int one = 1;
    for (int fd : {client_, server_}) {
      if (fd >= 0) setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~Loopback() {
    if (client_ >= 0) ::close(client_);
    if (server_ >= 0) ::close(server_);
  }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  bool ok() const { return client_ >= 0 && server_ >= 0; }
  int client() const { return client_; }
  int server() const { return server_; }

  static bool SendAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Blocks until exactly `n` bytes arrived; appends them to `out`.
  static bool RecvExactly(int fd, size_t n, std::string* out) {
    const size_t base = out->size();
    out->resize(base + n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, out->data() + base + got, n - got, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

 private:
  int client_ = -1;
  int server_ = -1;
};

class Replay {
 public:
  Replay(const Workload& workload, Tracer* tracer, const std::string& data_dir)
      : workload_(workload), tracer_(tracer), server_(ServerConfig()) {
    // The front door's own books, under its metric names.
    requests_total_ = metrics_.GetCounter("frontdoor_requests_total", "");
    responses_2xx_ = metrics_.GetCounter("frontdoor_responses_total", "",
                                         {{"class", "2xx"}});
    statements_admitted_ =
        metrics_.GetCounter("frontdoor_statements_admitted_total", "");
    txns_committed_ = metrics_.GetCounter("frontdoor_txns_committed_total", "");
    inflight_gauge_ = metrics_.GetGauge("frontdoor_inflight_statements", "");
    submit_latency_us_ =
        metrics_.GetHistogram("frontdoor_submit_latency_us", "");
    dispatch_latency_us_ =
        metrics_.GetHistogram("frontdoor_dispatch_latency_us", "");

    sched::ShardedScheduler::Options options;
    options.num_shards = 2;
    options.shard.protocol =
        sched::ProtocolRegistry::BuiltIns().Get(workload.protocol).ValueOrDie();
    // The front door's settings: ascending-object submission is
    // deadlock-free, so detection is off.
    options.shard.deadlock_detection = false;
    options.shard.tenant_qos.publish_snapshots = true;
    for (int t = 0; t < workload.tenants; ++t) {
      options.shard.tenant_qos.tenants[t].weight = 1;
    }
    tenant_specs_ = options.shard.tenant_qos.tenants;
    options.keep_dispatch_log = false;
    options.metrics = &metrics_;
    options.on_dispatch = [this](int shard, const sched::RequestBatch& batch) {
      OnDispatch(shard, batch);
    };
    if (workload.wal) {
      options.durability.enabled = true;
      options.durability.dir = data_dir;
      options.durability.fsync = true;
    }
    sched_ = std::make_unique<sched::ShardedScheduler>(std::move(options),
                                                       nullptr);
  }

  ReplayOutput Run(uint64_t seed, int64_t requests) {
    ReplayOutput out;
    const Status init = sched_->Init();
    if (!init.ok()) {
      out.breaches.push_back("scheduler init: " + init.ToString());
      return out;
    }
    if (!loopback_.ok()) {
      out.breaches.push_back("could not open a loopback connection");
      return out;
    }
    RequestStream stream(workload_, seed);
    int64_t admitted = 0;
    const int64_t start = NowNs();
    while (acked_ < requests && breaches_.empty()) {
      while (admitted - acked_ < workload_.replay_window &&
             admitted < requests) {
        StreamItem item;
        {
          Scope span(tracer_, SpanName::kGenerate, -1);
          item = stream.Next();
        }
        Admit(item);
        ++admitted;
      }
      const int ran = Step();
      const bool acked = Acknowledge();
      if (ran > 0 || acked) continue;
      if (durable_waiting_ > 0) {
        WaitDurable();
      } else if (admitted > acked_) {
        Breach("replay stalled with " + std::to_string(admitted - acked_) +
               " requests in flight");
      }
    }
    out.wall_ns = NowNs() - start;
    out.requests = acked_;
    out.txns = txns_done_;
    out.stream_digest = stream.digest();
    CheckDrained();
    if (tracer_->enabled()) Summarize(&out);
    out.breaches = std::move(breaches_);
    return out;
  }

 private:
  /// FrontDoor::TxnState, plus the shards of its operations, which only the
  /// replay's bookkeeping reads.
  struct Txn {
    int64_t request = 0;
    int tenant = 0;
    std::vector<txn::ObjectId> objects;
    std::vector<txn::OpType> ops;
    size_t next = 0;
    int64_t submit_ns = 0;
    std::vector<int> shards;  ///< per operation
    int home = 0;             ///< shard the commit goes to, the lowest
    bool cross_shard = false;
  };

  /// FrontDoor::Job, keyed by the request's sequence number.
  struct Job {
    int64_t txns_total = 0;
    int64_t txns_done = 0;
    int64_t statements = 0;
    int64_t dispatched = 0;
    int64_t start_ns = 0;
    int64_t latency_us = 0;
    uint64_t durable_lsn = 0;
    bool durable_fired = false;
    int64_t commit_ns = 0;
  };

  static declsched::server::DatabaseServer::Config ServerConfig() {
    declsched::server::DatabaseServer::Config config;
    config.num_rows = 100000;
    return config;
  }

  void Breach(const std::string& what) {
    if (breaches_.size() < 8) breaches_.push_back(what);
  }

  void Admit(const StreamItem& item) {
    const int64_t seq = static_cast<int64_t>(item.seq);
    request_bytes_ += static_cast<int64_t>(item.bytes.size());
    {
      Scope span(tracer_, SpanName::kClientIo, seq);
      if (!Loopback::SendAll(loopback_.client(), item.bytes)) {
        Breach("request " + std::to_string(seq) + " could not be sent");
        return;
      }
    }
    std::string received;
    {
      Scope span(tracer_, SpanName::kNetIo, seq);
      if (!Loopback::RecvExactly(loopback_.server(), item.bytes.size(),
                                 &received)) {
        Breach("request " + std::to_string(seq) + " was not received");
        return;
      }
    }
    wire::WireSubmit submit;
    net::JsonValue doc;
    if (workload_.binary) {
      Scope span(tracer_, SpanName::kWireDecode, seq);
      frame_parser_.Feed(received);
      wire::WireFrame frame;
      if (frame_parser_.Next(&frame) != wire::FrameParser::Outcome::kFrame ||
          !wire::DecodeSubmitBody(frame.body, &submit).ok()) {
        Breach("request " + std::to_string(seq) + " did not decode");
        return;
      }
    } else {
      net::HttpRequest request;
      {
        Scope span(tracer_, SpanName::kHttpParse, seq);
        http_parser_.Feed(received);
        if (http_parser_.Next(&request) !=
            net::HttpRequestParser::Outcome::kRequest) {
          Breach("request " + std::to_string(seq) + " did not parse");
          return;
        }
      }
      Scope span(tracer_, SpanName::kJsonParse, seq);
      auto parsed = net::JsonValue::Parse(request.body);
      if (!parsed.ok()) {
        Breach("request " + std::to_string(seq) + " body is not JSON");
        return;
      }
      doc = parsed.MoveValue();
    }

    // FrontDoor::ParseSubmitBody's walk or WireSubmitToTxns, then SubmitWork.
    const txn::TxnId first_ta = next_ta_;
    {
      Scope span(tracer_, SpanName::kAdmit, seq);
      requests_total_->Increment();
      int tenant = 0;
      int64_t statements = 0;
      std::vector<Txn> txns;
      const bool valid =
          workload_.binary ? WireToTxns(submit, seq, &tenant, &txns, &statements)
                           : JsonToTxns(doc, seq, &tenant, &txns, &statements);
      if (!valid) {
        Breach("request " + std::to_string(seq) + " fails validation");
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (inflight_statements_.load(std::memory_order_relaxed) + statements >
              door_.max_inflight_statements ||
          !AdmitTenant(tenant)) {
        Breach("request " + std::to_string(seq) + " refused by admission");
        return;
      }
      Job job;
      job.txns_total = static_cast<int64_t>(txns.size());
      job.statements = statements;
      job.start_ns = NowNs();
      jobs_.emplace(seq, job);
      inflight_statements_.fetch_add(statements, std::memory_order_relaxed);
      inflight_gauge_->Set(inflight_statements_.load(std::memory_order_relaxed));
      statements_admitted_->Increment(statements);
      for (Txn& t : txns) {
        const txn::TxnId ta = next_ta_++;
        SubmitOp(txns_.emplace(ta, std::move(t)).first->second, ta);
      }
    }
    // The replay's own bookkeeping, outside every span: the shard of each
    // later operation and commit, for the pending count at cycle start.
    for (txn::TxnId ta = first_ta; ta < next_ta_; ++ta) {
      Txn& t = txns_.at(ta);
      t.home = sched_->num_shards();
      for (txn::ObjectId object : t.objects) {
        t.shards.push_back(sched_->router().ShardOfObject(object));
        t.home = std::min(t.home, t.shards.back());
      }
      t.cross_shard = std::any_of(t.shards.begin(), t.shards.end(),
                                  [&](int s) { return s != t.home; });
    }
  }

  /// FrontDoor::ParseSubmitBody after JsonValue::Parse: the same walk and
  /// the same checks.
  bool JsonToTxns(const net::JsonValue& doc, int64_t seq, int* tenant,
                  std::vector<Txn>* txns, int64_t* statements) {
    if (!doc.is_object()) return false;
    if (const net::JsonValue* t = doc.Get("tenant")) {
      if (!t->is_number() || t->AsInt64() < 0) return false;
      *tenant = static_cast<int>(t->AsInt64());
    }
    const net::JsonValue* txn_list = doc.Get("txns");
    if (txn_list == nullptr || !txn_list->is_array() || txn_list->size() == 0) {
      return false;
    }
    for (const net::JsonValue& txn_value : txn_list->items()) {
      if (!txn_value.is_object()) return false;
      const net::JsonValue* op_list = txn_value.Get("ops");
      if (op_list == nullptr || !op_list->is_array() || op_list->size() == 0) {
        return false;
      }
      Txn t;
      t.request = seq;
      t.tenant = *tenant;
      for (const net::JsonValue& op_value : op_list->items()) {
        if (!op_value.is_object()) return false;
        const net::JsonValue* kind = op_value.Get("op");
        const net::JsonValue* object = op_value.Get("object");
        if (kind == nullptr || !kind->is_string() || object == nullptr ||
            !object->is_number()) {
          return false;
        }
        txn::OpType op;
        if (kind->AsString() == "read") {
          op = txn::OpType::kRead;
        } else if (kind->AsString() == "write") {
          op = txn::OpType::kWrite;
        } else {
          return false;
        }
        if (!AppendOp(&t, op, object->AsInt64())) return false;
      }
      *statements += static_cast<int64_t>(t.ops.size());
      txns->push_back(std::move(t));
    }
    return *statements <= door_.max_statements_per_request;
  }

  /// FrontDoor::WireSubmitToTxns.
  bool WireToTxns(const wire::WireSubmit& submit, int64_t seq, int* tenant,
                  std::vector<Txn>* txns, int64_t* statements) {
    if (submit.tenant < 0 || submit.tenant > std::numeric_limits<int>::max() ||
        submit.txns.empty()) {
      return false;
    }
    *tenant = static_cast<int>(submit.tenant);
    for (const wire::WireTxn& wire_txn : submit.txns) {
      if (wire_txn.ops.empty()) return false;
      Txn t;
      t.request = seq;
      t.tenant = *tenant;
      for (const wire::WireOpEntry& op : wire_txn.ops) {
        if (!AppendOp(&t, op.write ? txn::OpType::kWrite : txn::OpType::kRead,
                      op.object)) {
          return false;
        }
      }
      *statements += static_cast<int64_t>(t.ops.size());
      txns->push_back(std::move(t));
    }
    return *statements <= door_.max_statements_per_request;
  }

  /// FrontDoor::AppendOp: ascending objects, then the server's validation.
  bool AppendOp(Txn* t, txn::OpType op, int64_t object) {
    if (!t->objects.empty() && object <= t->objects.back()) return false;
    declsched::server::Statement stmt;
    stmt.op = op;
    stmt.object = object;
    stmt.tenant = t->tenant;
    if (!server_.ValidateStatement(stmt).ok()) return false;
    t->objects.push_back(object);
    t->ops.push_back(op);
    return true;
  }

  /// FrontDoor::AdmitTenant up to its bucket: no workload gives a tenant an
  /// admission rate, so the front door never reaches the bucket either. A
  /// rate would refuse the request here, which the replay reports.
  bool AdmitTenant(int tenant) const {
    auto spec = tenant_specs_.find(tenant);
    return spec == tenant_specs_.end() || spec->second.rate <= 0;
  }

  /// FrontDoor::SubmitOp: the next operation, or the commit after the last.
  void SubmitOp(Txn& t, txn::TxnId ta) {
    sched::Request r;
    r.ta = ta;
    r.tenant = t.tenant;
    SpanName name = SpanName::kSubmit;
    int target = -1;
    if (t.next < t.ops.size()) {
      const size_t i = t.next++;
      r.intrata = static_cast<int64_t>(i) + 1;
      r.op = t.ops[i];
      r.object = t.objects[i];
      // Empty only for the first operation, submitted during admission.
      if (!t.shards.empty()) target = t.shards[i];
    } else {
      r.intrata = static_cast<int64_t>(t.ops.size()) + 1;
      r.op = txn::OpType::kCommit;
      r.object = sched::Request::kNoObject;
      target = t.home;
      if (t.cross_shard) name = SpanName::kEscrowSubmit;
    }
    if (stepping_shard_ >= 0 && target > stepping_shard_) {
      ++step_arrivals_[static_cast<size_t>(target)];
    }
    t.submit_ns = NowNs();
    Scope span(tracer_, name, t.request);
    sched_->Submit(std::move(r), SimTime());
  }

  /// One StepOnce, with the per-shard cycle counters read around it.
  int Step() {
    const int shards = sched_->num_shards();
    std::vector<int64_t> pending(static_cast<size_t>(shards));
    std::vector<int64_t> cycles(static_cast<size_t>(shards));
    std::vector<int64_t> dispatched(static_cast<size_t>(shards));
    std::vector<int64_t> query_us(static_cast<size_t>(shards));
    std::vector<int64_t> cycle_us(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      sched::DeclarativeScheduler* shard = sched_->shard(s);
      pending[s] = shard->store()->pending_count() + shard->queue_size();
      const sched::SchedulerTotals& t = shard->totals();
      cycles[s] = t.cycles;
      dispatched[s] = t.dispatched;
      query_us[s] = t.total_query_us;
      cycle_us[s] = t.total_cycle_us;
    }
    step_arrivals_.assign(static_cast<size_t>(shards), 0);
    int ran = 0;
    {
      Scope span(tracer_, SpanName::kStep, -1);
      auto stepped = sched_->StepOnce(SimTime());
      if (!stepped.ok()) {
        Breach("StepOnce: " + stepped.status().ToString());
        return 0;
      }
      ran = stepped.ValueOrDie();
    }
    stepping_shard_ = -1;
    for (int s = 0; s < shards; ++s) {
      const sched::SchedulerTotals& t = sched_->shard(s)->totals();
      if (t.cycles == cycles[s]) continue;
      // StepOnce runs the shards in order, so what an earlier shard's
      // dispatches submitted here was queued before this shard's cycle.
      pending[s] += step_arrivals_[static_cast<size_t>(s)];
      cycles_ += t.cycles - cycles[s];
      cycle_dispatched_ += t.dispatched - dispatched[s];
      cycle_pending_ += pending[s];
      query_us_ += t.total_query_us - query_us[s];
      cycle_us_ += t.total_cycle_us - cycle_us[s];
      if (tracer_->enabled()) pending_rows_.push_back(pending[s]);
    }
    return ran;
  }

  /// FrontDoor::OnDispatch plus the server call the null server skips.
  void OnDispatch(int shard, const sched::RequestBatch& batch) {
    stepping_shard_ = shard;
    {
      Scope span(tracer_, SpanName::kExecute, -1);
      declsched::server::StatementBatch statements;
      statements.reserve(batch.size());
      for (const sched::Request& r : batch) {
        statements.push_back(r.ToStatement());
      }
      if (!server_.ExecuteBatch(statements, shard).ok()) {
        Breach("ExecuteBatch failed");
      }
      executed_ += static_cast<int64_t>(statements.size());
    }
    Scope span(tracer_, SpanName::kDispatch, -1);
    const int64_t now = NowNs();
    declsched::storage::Wal* wal = sched_->wal();
    std::vector<int64_t> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const sched::Request& r : batch) {
        auto it = txns_.find(r.ta);
        if (it == txns_.end()) {
          Breach("dispatch of unknown transaction " + std::to_string(r.ta));
          continue;
        }
        Txn& t = it->second;
        dispatch_latency_us_->Record((now - t.submit_ns) / 1000);
        if (tracer_->enabled()) op_wait_ns_.push_back(now - t.submit_ns);
        Job& job = jobs_.at(t.request);
        ++job.dispatched;
        if (r.op != txn::OpType::kCommit) {
          SubmitOp(t, r.ta);
          continue;
        }
        const int64_t seq = t.request;
        txns_.erase(it);
        txns_committed_->Increment();
        ++txns_done_;
        if (wal != nullptr) {
          job.durable_lsn = std::max(job.durable_lsn, wal->head_lsn());
        }
        if (++job.txns_done < job.txns_total) continue;
        inflight_statements_.fetch_sub(job.statements,
                                       std::memory_order_relaxed);
        inflight_gauge_->Set(
            inflight_statements_.load(std::memory_order_relaxed));
        job.latency_us = (now - job.start_ns) / 1000;
        submit_latency_us_->Record(job.latency_us);
        finished.push_back(seq);
      }
    }
    for (int64_t seq : finished) {
      if (wal == nullptr) {
        ready_.push_back(seq);
        continue;
      }
      Job& job = jobs_.at(seq);
      job.commit_ns = now;
      ++durable_waiting_;
      wal->WhenDurable(job.durable_lsn, [this, seq] {
        const int64_t fired = NowNs();
        {
          std::lock_guard<std::mutex> lock(durable_mu_);
          durable_fired_.emplace_back(seq, fired);
        }
        durable_cv_.notify_one();
      });
    }
  }

  /// Encodes the acknowledgement of every finished request; true if any.
  bool Acknowledge() {
    std::vector<std::pair<int64_t, int64_t>> fired;
    {
      std::lock_guard<std::mutex> lock(durable_mu_);
      fired.swap(durable_fired_);
    }
    for (const auto& [seq, at] : fired) {
      Job& job = jobs_.at(seq);
      job.durable_fired = true;
      --durable_waiting_;
      if (tracer_->enabled()) durable_wait_ns_.push_back(at - job.commit_ns);
      ready_.push_back(seq);
    }
    if (ready_.empty()) return false;
    declsched::storage::Wal* wal = sched_->wal();
    for (int64_t seq : ready_) {
      auto it = jobs_.find(seq);
      const Job& job = it->second;
      if (wal != nullptr &&
          (!job.durable_fired || wal->durable_lsn() < job.durable_lsn)) {
        Breach("request " + std::to_string(seq) +
               " acknowledged before its WAL records were durable");
      }
      if (job.dispatched != job.statements + job.txns_total) {
        Breach("request " + std::to_string(seq) + " dispatched " +
               std::to_string(job.dispatched) + " requests, expected " +
               std::to_string(job.statements + job.txns_total));
      }
      // The front door's done callbacks: the same body, the same encoder.
      std::string response;
      if (workload_.binary) {
        Scope span(tracer_, SpanName::kWireEncode, seq);
        wire::WireSubmitResult result;
        result.txns = job.txns_total;
        result.statements = job.statements;
        result.dispatched = job.dispatched;
        result.latency_us = job.latency_us;
        responses_2xx_->Increment();
        wire::AppendFrame(&response, wire::WireOp::kSubmitOk, 0,
                          static_cast<uint64_t>(seq),
                          wire::EncodeSubmitOkBody(result));
      } else {
        Scope span(tracer_, SpanName::kHttpRespond, seq);
        std::string body = declsched::StrFormat(
            "{\"txns\":%lld,\"statements\":%lld,\"dispatched\":%lld,"
            "\"latency_us\":%lld}",
            static_cast<long long>(job.txns_total),
            static_cast<long long>(job.statements),
            static_cast<long long>(job.dispatched),
            static_cast<long long>(job.latency_us));
        responses_2xx_->Increment();
        response = net::HttpResponse::Json(200, std::move(body))
                       .Serialize(/*keep_alive=*/true);
      }
      response_bytes_ += static_cast<int64_t>(response.size());
      {
        Scope span(tracer_, SpanName::kNetIo, seq);
        if (!Loopback::SendAll(loopback_.server(), response)) {
          Breach("response " + std::to_string(seq) + " could not be sent");
        }
      }
      {
        Scope span(tracer_, SpanName::kClientIo, seq);
        std::string answer;
        if (!Loopback::RecvExactly(loopback_.client(), response.size(),
                                   &answer)) {
          Breach("response " + std::to_string(seq) + " was not received");
        }
      }
      jobs_.erase(it);
      ++acked_;
    }
    ready_.clear();
    return true;
  }

  void WaitDurable() {
    Scope span(tracer_, SpanName::kWalWait, -1);
    std::unique_lock<std::mutex> lock(durable_mu_);
    if (!durable_cv_.wait_for(lock, std::chrono::nanoseconds(kWalWaitTimeoutNs),
                              [this] { return !durable_fired_.empty(); })) {
      Breach("WAL durability callback never fired");
    }
  }

  void CheckDrained() {
    const sched::ShardedScheduler::Totals totals = sched_->totals();
    if (totals.submitted != totals.dispatched) {
      Breach("scheduler submitted " + std::to_string(totals.submitted) +
             " requests but dispatched " + std::to_string(totals.dispatched));
    }
    if (!txns_.empty() || !jobs_.empty()) {
      Breach(std::to_string(txns_.size()) + " transactions and " +
             std::to_string(jobs_.size()) + " requests left unfinished");
    }
    if (inflight_statements_.load() != 0) {
      Breach("in-flight statements " +
             std::to_string(inflight_statements_.load()) + " after the drain");
    }
  }

  void Summarize(ReplayOutput* out) {
    int64_t top_level_ns = 0;
    const auto stats = tracer_->Summarize(&top_level_ns);
    auto total = [&](SpanName n) {
      auto it = stats.find(n);
      return it == stats.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    auto self = [&](SpanName n) {
      auto it = stats.find(n);
      return it == stats.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    };
    auto count = [&](SpanName n) {
      auto it = stats.find(n);
      return it == stats.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    const double requests = static_cast<double>(acked_);
    const double txns = static_cast<double>(txns_done_);
    auto& m = out->metrics;

    m["net.io_ns"] = Ratio(total(SpanName::kNetIo), requests);
    m["net.http.parse_ns"] = Ratio(total(SpanName::kHttpParse), requests);
    m["net.json.parse_ns"] = Ratio(total(SpanName::kJsonParse), requests);
    m["net.http.respond_ns"] = Ratio(total(SpanName::kHttpRespond), requests);
    // Admission submits each transaction's first operation, and the
    // dispatch drive the next ones; those Submit calls are scheduler time.
    m["net.admit_ns"] = Ratio(self(SpanName::kAdmit), requests);
    m["net.dispatch_ns_per_txn"] = Ratio(self(SpanName::kDispatch), txns);
    const double io_bytes = static_cast<double>(request_bytes_ + response_bytes_);
    m["net.bytes_per_txn"] = workload_.binary ? 0 : Ratio(io_bytes, txns);
    m["net.wire.decode_ns"] = Ratio(total(SpanName::kWireDecode), requests);
    m["net.wire.encode_ns"] = Ratio(total(SpanName::kWireEncode), requests);
    m["net.wire.bytes_per_txn"] = workload_.binary ? Ratio(io_bytes, txns) : 0;

    m["scheduler.submit_ns"] =
        Ratio(total(SpanName::kSubmit), count(SpanName::kSubmit));
    m["scheduler.escrow_submit_ns"] =
        Ratio(total(SpanName::kEscrowSubmit), count(SpanName::kEscrowSubmit));
    std::vector<int64_t> steps;
    if (auto it = stats.find(SpanName::kStep); it != stats.end()) {
      steps = it->second.durations_ns;
    }
    m["scheduler.step_p50_us"] = Percentile(steps, 50) / 1e3;
    m["scheduler.step_p99_us"] = Percentile(steps, 99) / 1e3;
    m["scheduler.cycles_per_txn"] = Ratio(static_cast<double>(cycles_), txns);
    m["scheduler.dispatched_per_cycle"] = Ratio(
        static_cast<double>(cycle_dispatched_), static_cast<double>(cycles_));
    m["scheduler.pending_rows_p50"] = Percentile(pending_rows_, 50);
    m["scheduler.qualify_ratio"] =
        Ratio(static_cast<double>(cycle_dispatched_),
              static_cast<double>(cycle_pending_));
    m["scheduler.op_wait_p50_us"] = Percentile(op_wait_ns_, 50) / 1e3;
    m["scheduler.op_wait_p99_us"] = Percentile(op_wait_ns_, 99) / 1e3;
    const sched::ShardedScheduler::Totals totals = sched_->totals();
    m["scheduler.escrows_per_txn"] =
        Ratio(static_cast<double>(totals.escrows), txns);
    m["scheduler.mirrors_per_txn"] =
        Ratio(static_cast<double>(totals.mirrors_applied), txns);
    double busy_sum = 0;
    double busy_max = 0;
    for (int s = 0; s < sched_->num_shards(); ++s) {
      const double busy = static_cast<double>(sched_->shard_busy_us(s));
      busy_sum += busy;
      busy_max = std::max(busy_max, busy);
    }
    m["scheduler.busy_us_per_txn"] = Ratio(busy_sum, txns);
    m["scheduler.busy_imbalance"] =
        Ratio(busy_max, busy_sum / sched_->num_shards());
    m["scheduler.coordination_us_per_txn"] =
        Ratio(static_cast<double>(sched_->coordination_us()), txns);
    m["scheduler.ir.query_us_per_cycle"] =
        Ratio(static_cast<double>(query_us_), static_cast<double>(cycles_));
    m["scheduler.ir.query_share"] =
        Ratio(static_cast<double>(query_us_), static_cast<double>(cycle_us_));

    const declsched::storage::Wal* wal = sched_->wal();
    const double appends = wal ? static_cast<double>(wal->append_count()) : 0;
    m["storage.wal.records_per_txn"] = Ratio(appends, txns);
    m["storage.wal.bytes_per_txn"] =
        wal ? Ratio(static_cast<double>(wal->appended_bytes()), txns) : 0;
    m["storage.wal.records_per_fsync"] =
        wal ? Ratio(appends, static_cast<double>(wal->fsync_count())) : 0;
    m["storage.wal.durable_wait_p50_us"] = Percentile(durable_wait_ns_, 50) / 1e3;
    m["storage.wal.durable_wait_p99_us"] = Percentile(durable_wait_ns_, 99) / 1e3;

    m["server.execute_ns_per_stmt"] = Ratio(total(SpanName::kExecute),
                                            static_cast<double>(executed_));

    // Self time per layer. The protocol query runs inside StepOnce, so its
    // time (the shards' own query timers) moves from scheduler to
    // scheduler.ir.
    std::map<std::string, double> layer_ns;
    for (const auto& [name, s] : stats) {
      layer_ns[LayerOf(name)] += static_cast<double>(s.self_ns);
    }
    const double ir_ns = static_cast<double>(query_us_) * 1e3;
    layer_ns["scheduler"] -= ir_ns;
    layer_ns["scheduler.ir"] += ir_ns;
    double self_sum = 0;
    for (const auto& [layer, ns] : layer_ns) self_sum += ns;
    for (const char* layer : {"loadgen", "net", "net.wire", "scheduler",
                              "scheduler.ir", "server", "storage"}) {
      out->layer_shares[layer] = Ratio(layer_ns[layer], self_sum);
    }
    const double wall = static_cast<double>(out->wall_ns);
    m["trace.unaccounted_frac"] =
        Ratio(wall - static_cast<double>(top_level_ns), wall);
  }

  const Workload& workload_;
  Tracer* tracer_;
  /// The front door's limits at their defaults, which the benchmark keeps.
  net::FrontDoor::Options door_;
  /// Declared before sched_, whose WAL may still run callbacks that use
  /// them while it closes, and whose shards count into metrics_.
  std::mutex durable_mu_;
  std::condition_variable durable_cv_;
  std::vector<std::pair<int64_t, int64_t>> durable_fired_;  ///< (seq, ns)
  obs::MetricsRegistry metrics_;
  declsched::server::DatabaseServer server_;
  std::unique_ptr<sched::ShardedScheduler> sched_;
  net::HttpRequestParser http_parser_;
  wire::FrameParser frame_parser_;
  Loopback loopback_;

  // The front door's state and metrics, touched where it touches them.
  std::mutex mu_;
  std::atomic<int64_t> inflight_statements_{0};
  std::map<int64_t, sched::TenantQosSpec> tenant_specs_;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* responses_2xx_ = nullptr;
  obs::Counter* statements_admitted_ = nullptr;
  obs::Counter* txns_committed_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::HistogramMetric* submit_latency_us_ = nullptr;
  obs::HistogramMetric* dispatch_latency_us_ = nullptr;

  std::vector<std::string> breaches_;
  std::unordered_map<txn::TxnId, Txn> txns_;
  std::unordered_map<int64_t, Job> jobs_;
  std::vector<int64_t> ready_;
  txn::TxnId next_ta_ = 1;
  int64_t acked_ = 0;
  int64_t txns_done_ = 0;
  int64_t durable_waiting_ = 0;

  int64_t request_bytes_ = 0;
  int64_t response_bytes_ = 0;
  int64_t executed_ = 0;
  int64_t cycles_ = 0;
  int64_t cycle_dispatched_ = 0;
  int64_t cycle_pending_ = 0;
  /// Shard whose pass of StepOnce is running (-1 outside a step), and per
  /// shard what the step submitted to it before its own pass.
  int stepping_shard_ = -1;
  std::vector<int64_t> step_arrivals_;
  int64_t query_us_ = 0;
  int64_t cycle_us_ = 0;
  std::vector<int64_t> pending_rows_;
  std::vector<int64_t> op_wait_ns_;
  std::vector<int64_t> durable_wait_ns_;
};

}  // namespace

ReplayOutput RunReplay(const Workload& workload, uint64_t seed,
                       int64_t requests, Tracer* tracer,
                       const std::string& data_dir) {
  Replay replay(workload, tracer, data_dir);
  return replay.Run(seed, requests);
}

}  // namespace perfbench
