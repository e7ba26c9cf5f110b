// Test-side blocking HTTP client: one keep-alive connection to a local
// port, synchronous request/response. Small on purpose — the production
// client half (nonblocking, multiplexed) lives in src/net/loadgen.cc.

#ifndef DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_
#define DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "net/http.h"

namespace declsched::net::testing {

/// Polls `done` every few milliseconds until it holds or 5 s pass; returns
/// its last value.
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    EXPECT_TRUE(connected_);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }
  /// Raw socket, for tests that speak something other than HTTP on it
  /// (the wire-protocol client wraps this).
  int fd() const { return fd_; }

  /// Sends raw bytes on the connection.
  void SendRaw(const std::string& wire) {
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one complete response (blocking).
  HttpResponseParser::Response ReadResponse() {
    HttpResponseParser::Response response;
    char buf[16 * 1024];
    while (true) {
      const HttpResponseParser::Outcome outcome = parser_.Next(&response);
      if (outcome == HttpResponseParser::Outcome::kResponse) return response;
      EXPECT_NE(outcome, HttpResponseParser::Outcome::kError)
          << parser_.error_message();
      if (outcome == HttpResponseParser::Outcome::kError) return response;
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      EXPECT_GT(n, 0) << "peer closed mid-response";
      if (n <= 0) return response;
      parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// One full request/response exchange.
  HttpResponseParser::Response Request(const std::string& method,
                                       const std::string& target,
                                       const std::string& body = "") {
    std::string wire = method + " " + target +
                       " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    SendRaw(wire);
    return ReadResponse();
  }

  HttpResponseParser::Response Get(const std::string& target) {
    return Request("GET", target);
  }
  HttpResponseParser::Response Post(const std::string& target,
                                    const std::string& body) {
    return Request("POST", target, body);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  HttpResponseParser parser_;
};

}  // namespace declsched::net::testing

#endif  // DECLSCHED_TESTS_NET_NET_TEST_UTIL_H_
