#include "stream.h"

#include <algorithm>

#include "net/wire/wire_codec.h"

namespace perfbench {

namespace {

// Open-loop rates sit at a sixth of each workload's closed-loop txn_per_s
// on a 4-core host: http-uniform 6k of ~36k txn/s, wire-hot 4.8k of ~27k,
// wire-durable 8k of ~55k. The host is shared, and in its slow spells the
// closed-loop rate fell by half. At half the normal rate, such a spell
// started a backlog the front door did not work off: wire-durable at 3000
// req/s in three runs of four, wire-hot at 1600 req/s once in ten, growing
// to 4.7 GB. A change to any field here redefines the workload.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w;
    Workload http;
    http.name = "http-uniform";
    http.binary = false;
    http.protocol = "ss2pl-sql";
    http.txns_per_request = 1;
    http.ops_per_txn = 2;
    http.key_space = 100000;
    http.window = 16;
    http.open_rps = 6000;
    http.replay_window = http.window;
    http.replay_requests = 20000;
    w.push_back(http);

    Workload durable;
    durable.name = "wire-durable";
    durable.binary = true;
    durable.wal = true;
    durable.protocol = "ss2pl-sql";
    durable.txns_per_request = 8;
    durable.ops_per_txn = 4;
    durable.key_space = 100000;
    durable.window = 32;
    durable.open_rps = 1000;
    // Replayed at about the open loop's concurrency (rate x ack p50 is below
    // one request), where the durable wait is part of every ack.
    durable.replay_window = 2;
    durable.replay_requests = 3000;
    w.push_back(durable);

    Workload hot;
    hot.name = "wire-hot";
    hot.binary = true;
    hot.protocol = "wfq-sql";
    hot.tenants = 4;
    hot.txns_per_request = 8;
    hot.ops_per_txn = 4;
    hot.read_fraction = 0.5;
    hot.key_space = 1000;
    hot.zipf_theta = 0.9;
    hot.window = 16;
    hot.open_rps = 600;
    // Replayed at the closed loop's window: the contention is the point.
    hot.replay_window = hot.window;
    hot.replay_requests = 3000;
    w.push_back(hot);
    return w;
  }();
  return workloads;
}

void AppendInt(std::string* out, int64_t v) { out->append(std::to_string(v)); }

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

RequestStream::RequestStream(const Workload& workload, uint64_t seed)
    : workload_(workload), rng_(seed) {
  if (workload.zipf_theta > 0) {
    zipf_ = std::make_unique<declsched::workload::ZipfGenerator>(
        workload.key_space, workload.zipf_theta);
  }
}

StreamItem RequestStream::Next() {
  StreamItem item;
  item.seq = ++seq_;
  declsched::net::wire::WireSubmit submit;
  submit.tenant = workload_.tenants > 1
                      ? rng_.UniformInt(0, workload_.tenants - 1)
                      : 0;
  for (int t = 0; t < workload_.txns_per_request; ++t) {
    // Distinct keys in ascending order: the front door's deadlock-free
    // submission contract.
    std::vector<int64_t> keys;
    while (static_cast<int>(keys.size()) < workload_.ops_per_txn) {
      const int64_t key = zipf_ ? zipf_->Next(rng_)
                                : rng_.UniformInt(0, workload_.key_space - 1);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
    std::sort(keys.begin(), keys.end());
    declsched::net::wire::WireTxn txn;
    for (int64_t key : keys) {
      txn.ops.push_back({!rng_.Bernoulli(workload_.read_fraction), key});
    }
    submit.txns.push_back(std::move(txn));
  }
  item.txns = static_cast<int64_t>(submit.txns.size());
  item.statements = item.txns * workload_.ops_per_txn;

  if (workload_.binary) {
    declsched::net::wire::AppendFrame(
        &item.bytes, declsched::net::wire::WireOp::kSubmit, 0, item.seq,
        declsched::net::wire::EncodeSubmitBody(submit));
  } else {
    std::string body = "{\"tenant\":";
    AppendInt(&body, submit.tenant);
    body += ",\"txns\":[";
    for (size_t t = 0; t < submit.txns.size(); ++t) {
      if (t > 0) body += ',';
      body += "{\"ops\":[";
      const auto& ops = submit.txns[t].ops;
      for (size_t o = 0; o < ops.size(); ++o) {
        if (o > 0) body += ',';
        body += ops[o].write ? "{\"op\":\"write\",\"object\":"
                             : "{\"op\":\"read\",\"object\":";
        AppendInt(&body, ops[o].object);
        body += '}';
      }
      body += "]}";
    }
    body += "]}";
    item.bytes =
        "POST /v1/submit HTTP/1.1\r\nHost: perfbench\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  for (unsigned char c : item.bytes) {
    digest_ = (digest_ ^ c) * 1099511628211ull;
  }
  return item;
}

}  // namespace perfbench
