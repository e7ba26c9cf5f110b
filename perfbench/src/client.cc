#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/json.h"
#include "trace.h"

namespace perfbench {

namespace wire = declsched::net::wire;
using declsched::Status;

namespace {

constexpr uint64_t kTimerTag = ~0ull;
constexpr size_t kMaxBreachMessages = 8;
/// How long a phase waits for its last answers.
constexpr int64_t kDrainNs = 10'000'000'000;

}  // namespace

Client::Client(const Workload& workload, uint16_t port, RequestStream* stream)
    : workload_(workload), port_(port), stream_(stream) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
}

Client::~Client() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Client::Connect(int64_t deadline_ns) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  conns_.resize(static_cast<size_t>(kConnections));
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0 ||
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
    if (workload_.binary) {
      wire::AppendFrame(&conn.out, wire::WireOp::kHello, 0, 0,
                        wire::EncodeHelloBody());
      Flush(i);
    } else {
      conn.hello_ok = true;
    }
  }
  while (true) {
    bool all = true;
    for (const Conn& conn : conns_) all = all && conn.hello_ok;
    if (all) return Status::OK();
    if (!tally_.breaches.empty() || tally_.conn_errors > 0) {
      return Status::Internal("handshake failed");
    }
    if (NowNs() > deadline_ns) return Status::Internal("handshake timed out");
    Poll(10);
  }
}

Status Client::FirstAckOnEach(int64_t deadline_ns) {
  for (size_t i = 0; i < conns_.size(); ++i) Send(i, NowNs(), -1);
  return Drain(deadline_ns);
}

void Client::Send(size_t idx, int64_t start_ns, int slice) {
  Conn& conn = conns_[idx];
  if (conn.fd < 0) return;
  StreamItem item = stream_->Next();
  Pending p;
  p.seq = item.seq;
  p.txns = item.txns;
  p.statements = item.statements;
  p.start_ns = start_ns;
  p.slice = slice;
  if (workload_.binary) {
    conn.by_id.emplace(item.seq, p);
  } else {
    conn.fifo.push_back(p);
  }
  conn.out.append(item.bytes);
  ++tally_.sent;
  ++outstanding_;
  Flush(idx);
}

void Client::Flush(size_t idx) {
  Conn& conn = conns_[idx];
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Fail(idx, std::string("send: ") + std::strerror(errno));
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  SetWriteInterest(idx, conn.out_off < conn.out.size());
}

void Client::SetWriteInterest(size_t idx, bool on) {
  Conn& conn = conns_[idx];
  if (conn.want_write == on || conn.fd < 0) return;
  conn.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u64 = idx;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Client::ArmTimer(int64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = at_ns / 1000000000;
  spec.it_value.tv_nsec = at_ns % 1000000000;
  timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void Client::Poll(int timeout_ms) {
  epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const uint64_t tag = events[i].data.u64;
    if (tag == kTimerTag) {
      uint64_t expirations = 0;
      while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
      }
      continue;
    }
    const size_t idx = static_cast<size_t>(tag);
    if (conns_[idx].fd < 0) continue;
    if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) ReadConn(idx);
    if (conns_[idx].fd >= 0 && (events[i].events & EPOLLOUT)) Flush(idx);
  }
}

void Client::ReadConn(size_t idx) {
  char buf[64 * 1024];
  while (true) {
    Conn& conn = conns_[idx];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (workload_.binary) {
        conn.wire.Feed(std::string_view(buf, static_cast<size_t>(n)));
      } else {
        conn.http.Feed(std::string_view(buf, static_cast<size_t>(n)));
      }
    } else if (n == 0) {
      Fail(idx, "connection closed by server");
      return;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      Fail(idx, std::string("recv: ") + std::strerror(errno));
      return;
    }
  }

  Conn& conn = conns_[idx];
  if (workload_.binary) {
    wire::WireFrame frame;
    while (true) {
      const auto outcome = conn.wire.Next(&frame);
      if (outcome == wire::FrameParser::Outcome::kNeedMore) break;
      if (outcome == wire::FrameParser::Outcome::kError) {
        Fail(idx, "bad frame: " + conn.wire.error_message());
        return;
      }
      if (frame.op == wire::WireOp::kHelloOk) {
        conn.hello_ok = true;
        continue;
      }
      auto it = conn.by_id.find(frame.request_id);
      if (it == conn.by_id.end()) {
        Breach("answer for request " + std::to_string(frame.request_id) +
               " which is not outstanding (duplicate or unknown)");
        continue;
      }
      const Pending p = it->second;
      conn.by_id.erase(it);
      if (frame.op == wire::WireOp::kSubmitOk) {
        wire::WireSubmitResult result;
        if (!wire::DecodeSubmitOkBody(frame.body, &result).ok()) {
          Breach("undecodable SUBMIT_OK for request " + std::to_string(p.seq));
          OnAnswer(idx, p, false, 0, 0, 0);
          continue;
        }
        OnAnswer(idx, p, true, result.txns, result.statements,
                 result.dispatched);
      } else {
        OnAnswer(idx, p, false, 0, 0, 0);
      }
      if (conns_[idx].fd < 0) return;
    }
  } else {
    declsched::net::HttpResponseParser::Response resp;
    while (true) {
      const auto outcome = conn.http.Next(&resp);
      if (outcome == declsched::net::HttpResponseParser::Outcome::kNeedMore) {
        break;
      }
      if (outcome == declsched::net::HttpResponseParser::Outcome::kError) {
        Fail(idx, "bad response: " + conn.http.error_message());
        return;
      }
      if (conn.fifo.empty()) {
        Breach("HTTP response with no request outstanding");
        continue;
      }
      const Pending p = conn.fifo.front();
      conn.fifo.pop_front();
      if (resp.status != 200) {
        OnAnswer(idx, p, false, 0, 0, 0);
      } else {
        auto doc = declsched::net::JsonValue::Parse(resp.body);
        const declsched::net::JsonValue* t =
            doc.ok() ? doc.ValueOrDie().Get("txns") : nullptr;
        const declsched::net::JsonValue* s =
            doc.ok() ? doc.ValueOrDie().Get("statements") : nullptr;
        const declsched::net::JsonValue* d =
            doc.ok() ? doc.ValueOrDie().Get("dispatched") : nullptr;
        if (t == nullptr || s == nullptr || d == nullptr) {
          Breach("malformed 200 body for request " + std::to_string(p.seq));
          OnAnswer(idx, p, false, 0, 0, 0);
        } else {
          OnAnswer(idx, p, true, t->AsInt64(), s->AsInt64(), d->AsInt64());
        }
      }
      if (conns_[idx].fd < 0) return;
    }
  }
}

void Client::OnAnswer(size_t idx, const Pending& p, bool success, int64_t txns,
                      int64_t statements, int64_t dispatched) {
  --outstanding_;
  const int64_t now = NowNs();
  if (!success) {
    ++tally_.refused;
  } else {
    if (txns != p.txns || statements != p.statements ||
        dispatched != statements + txns) {
      Breach("request " + std::to_string(p.seq) + " acked txns=" +
             std::to_string(txns) + " statements=" +
             std::to_string(statements) + " dispatched=" +
             std::to_string(dispatched) + ", sent txns=" +
             std::to_string(p.txns) + " statements=" +
             std::to_string(p.statements));
    }
    tally_.txns_acked += txns;
    if (mode_ == Mode::kClosed && now < phase_end_ns_) {
      const int64_t slice = (now - phase_start_ns_) / slice_ns_;
      if (slice >= 0 && slice < static_cast<int64_t>(slice_txns_.size())) {
        slice_txns_[static_cast<size_t>(slice)] += txns;
      }
    } else if (mode_ == Mode::kOpen && p.slice >= 0) {
      slice_latency_ns_[static_cast<size_t>(p.slice)].push_back(now -
                                                                p.start_ns);
    }
  }
  if (mode_ == Mode::kClosed && now < phase_end_ns_) Send(idx, now, -1);
}

void Client::Fail(size_t idx, const std::string& why) {
  Conn& conn = conns_[idx];
  if (conn.fd < 0) return;
  ++tally_.conn_errors;
  Breach("connection " + std::to_string(idx) + ": " + why);
  ::close(conn.fd);
  conn.fd = -1;
}

void Client::Breach(const std::string& what) {
  if (tally_.breaches.size() < kMaxBreachMessages) {
    tally_.breaches.push_back(what);
  } else if (tally_.breaches.size() == kMaxBreachMessages) {
    tally_.breaches.push_back("... further breaches omitted");
  }
}

PhaseResult Client::RunClosed(int64_t duration_ns, int slices) {
  PhaseResult result;
  const int64_t sent_before = tally_.sent;
  mode_ = Mode::kClosed;
  phase_start_ns_ = NowNs();
  phase_end_ns_ = phase_start_ns_ + duration_ns;
  slice_ns_ = std::max<int64_t>(duration_ns / slices, 1);
  slice_txns_.assign(static_cast<size_t>(slices), 0);
  for (int i = 0; i < workload_.window; ++i) {
    Send(static_cast<size_t>(i) % conns_.size(), NowNs(), -1);
  }
  ArmTimer(phase_end_ns_);
  while (NowNs() < phase_end_ns_) Poll(-1);
  mode_ = Mode::kIdle;
  Drain(phase_end_ns_ + kDrainNs);
  for (int64_t txns : slice_txns_) {
    result.slice_txn_per_s.push_back(static_cast<double>(txns) * 1e9 /
                                     static_cast<double>(slice_ns_));
  }
  result.sent = tally_.sent - sent_before;
  return result;
}

PhaseResult Client::RunOpen(double rps, int64_t duration_ns, int slices) {
  PhaseResult result;
  const int64_t sent_before = tally_.sent;
  mode_ = Mode::kOpen;
  phase_start_ns_ = NowNs();
  phase_end_ns_ = phase_start_ns_ + duration_ns;
  slice_ns_ = std::max<int64_t>(duration_ns / slices, 1);
  slice_latency_ns_.assign(static_cast<size_t>(slices), {});
  const double interval_ns = 1e9 / rps;
  int64_t k = 0;
  size_t next_conn = 0;
  while (true) {
    const int64_t now = NowNs();
    int64_t due = phase_start_ns_ + static_cast<int64_t>(k * interval_ns);
    if (due >= phase_end_ns_) break;
    while (due <= now && due < phase_end_ns_) {
      if (static_cast<double>(now - due) > interval_ns) ++result.late;
      const int slice =
          static_cast<int>(std::min<int64_t>((due - phase_start_ns_) / slice_ns_,
                                             slices - 1));
      Send(next_conn, due, slice);
      next_conn = (next_conn + 1) % conns_.size();
      ++k;
      due = phase_start_ns_ + static_cast<int64_t>(k * interval_ns);
    }
    if (due >= phase_end_ns_) break;
    ArmTimer(due);
    Poll(-1);
  }
  // Answers still arriving after the last send are timed too.
  Drain(phase_end_ns_ + kDrainNs);
  mode_ = Mode::kIdle;
  result.slice_latency_ns = std::move(slice_latency_ns_);
  result.sent = tally_.sent - sent_before;
  return result;
}

Status Client::Drain(int64_t deadline_ns) {
  while (outstanding_ > 0) {
    bool any_open = false;
    for (const Conn& conn : conns_) any_open = any_open || conn.fd >= 0;
    if (!any_open || NowNs() > deadline_ns) break;
    Poll(5);
  }
  if (outstanding_ > 0) {
    Breach(std::to_string(outstanding_) + " requests never answered");
    return Status::Internal("requests left unanswered");
  }
  return Status::OK();
}

}  // namespace perfbench
