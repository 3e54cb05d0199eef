// Direct tests of the async HTTP client: keep-alive reuse, timeout,
// transport-failure reporting, paced-upload semantics, and retiring a
// connection on a `Connection: close` response.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "appserver/app_server.h"
#include "http/client.h"

namespace zdr::http {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 5000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

class HttpClientTest : public ::testing::Test {
 protected:
  HttpClientTest() {
    serverLoop_.runSync([&] {
      server_ = std::make_unique<appserver::AppServer>(
          serverLoop_.loop(), SocketAddr::loopback(0),
          appserver::AppServer::Options{}, &metrics_);
      addr_ = server_->localAddr();
    });
  }
  ~HttpClientTest() override {
    clientLoop_.runSync([&] {
      if (client_) {
        client_->close();
      }
    });
    serverLoop_.runSync([&] { server_.reset(); });
  }

  Client::Result doRequest(Request req, Duration timeout = Duration{3000}) {
    std::atomic<bool> done{false};
    Client::Result result;
    clientLoop_.runSync([&] {
      if (!client_) {
        client_ = Client::make(clientLoop_.loop(), addr_);
      }
      client_->request(std::move(req),
                       [&](Client::Result r) {
                         result = r;
                         done.store(true);
                       },
                       timeout);
    });
    waitFor([&] { return done.load(); });
    return result;
  }

  EventLoopThread serverLoop_{"server"};
  EventLoopThread clientLoop_{"client"};
  MetricsRegistry metrics_;
  std::unique_ptr<appserver::AppServer> server_;
  std::shared_ptr<Client> client_;
  SocketAddr addr_;
};

TEST_F(HttpClientTest, SimpleRequestResponse) {
  Request req;
  req.path = "/x";
  auto r = doRequest(std::move(req));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.response.status, 200);
  EXPECT_GT(r.latencySec, 0);
}

TEST_F(HttpClientTest, KeepAliveReusesConnection) {
  Request a;
  a.path = "/a";
  doRequest(std::move(a));
  uint64_t connsAfterFirst =
      metrics_.counter("appserver.conn_accepted").value();
  Request b;
  b.path = "/b";
  auto r = doRequest(std::move(b));
  EXPECT_TRUE(r.ok);
  // Same TCP connection served both requests.
  EXPECT_EQ(metrics_.counter("appserver.conn_accepted").value(),
            connsAfterFirst);
}

TEST_F(HttpClientTest, ConnectFailureReportsTransportError) {
  uint16_t deadPort;
  {
    TcpListener tmp(SocketAddr::loopback(0));
    deadPort = tmp.localAddr().port();
  }
  std::atomic<bool> done{false};
  Client::Result result;
  clientLoop_.runSync([&] {
    auto c = Client::make(clientLoop_.loop(), SocketAddr::loopback(deadPort));
    Request req;
    c->request(req, [&, c](Client::Result r) {
      result = r;
      done.store(true);
    });
  });
  waitFor([&] { return done.load(); });
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.transportError);
}

TEST_F(HttpClientTest, TimeoutFiresWhenServerSilent) {
  // A server that never answers: raw listener with no accept handling.
  TcpListener mute(SocketAddr::loopback(0));
  std::atomic<bool> done{false};
  Client::Result result;
  clientLoop_.runSync([&] {
    auto c = Client::make(clientLoop_.loop(), mute.localAddr());
    Request req;
    c->request(req,
               [&, c](Client::Result r) {
                 result = r;
                 done.store(true);
               },
               Duration{150});
  });
  waitFor([&] { return done.load(); });
  EXPECT_TRUE(result.timedOut);
  EXPECT_FALSE(result.ok);
}

TEST_F(HttpClientTest, PacedPostDeliversFullBody) {
  serverLoop_.runSync([&] {
    server_->setHandler([](const Request& req, Response& res) {
      res.status = 200;
      res.body = std::to_string(req.body.size());
    });
  });
  std::atomic<bool> done{false};
  Client::Result result;
  clientLoop_.runSync([&] {
    client_ = Client::make(clientLoop_.loop(), addr_);
    client_->pacedPost("/u", 5, 333, Duration{5},
                       [&](Client::Result r) {
                         result = r;
                         done.store(true);
                       });
  });
  waitFor([&] { return done.load(); });
  EXPECT_EQ(result.response.body, std::to_string(5 * 333));
}

TEST_F(HttpClientTest, FiveHundredIsNotOk) {
  serverLoop_.runSync([&] {
    server_->setHandler([](const Request&, Response& res) {
      res.status = 503;
      res.body = "overloaded";
    });
  });
  Request req;
  auto r = doRequest(std::move(req));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.response.status, 503);
}

TEST_F(HttpClientTest, ServerResetMidRequestReported) {
  std::atomic<bool> done{false};
  Client::Result result;
  clientLoop_.runSync([&] {
    client_ = Client::make(clientLoop_.loop(), addr_);
    // Long paced upload, then slam the server.
    client_->pacedPost("/u", 100, 128, Duration{20},
                       [&](Client::Result r) {
                         result = r;
                         done.store(true);
                       });
  });
  waitFor([&] {
    size_t n = 0;
    serverLoop_.runSync([&] { n = server_->activeConnections(); });
    return n == 1;
  });
  serverLoop_.runSync([&] { server_->terminate(); });
  waitFor([&] { return done.load(); });
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.transportError || result.timedOut);
}

// Scripted peer for the Connection: close test: blocking reads and
// writes over a nonblocking accepted socket, each bounded by `ms`.
std::optional<TcpSocket> acceptWithin(TcpListener& listener, int ms) {
  pollfd pfd{listener.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, ms) <= 0) {
    return std::nullopt;
  }
  std::error_code ec;
  return listener.accept(ec);
}

// Reads until `marker` has arrived (true) or `ms` passes (false).
bool readUntil(TcpSocket& sock, std::string_view marker, int ms) {
  std::string got;
  char buf[4096];
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (got.find(marker) == std::string::npos) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 10) <= 0) {
      continue;
    }
    ssize_t n = ::read(sock.fd(), buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    got.append(buf, static_cast<size_t>(n));
  }
  return true;
}

void writeAll(TcpSocket& sock, std::string_view s) {
  while (!s.empty()) {
    ssize_t n = ::write(sock.fd(), s.data(), s.size());
    if (n > 0) {
      s.remove_prefix(static_cast<size_t>(n));
    } else {
      pollfd pfd{sock.fd(), POLLOUT, 0};
      ::poll(&pfd, 1, 10);
    }
  }
}

TEST(HttpClientCloseTest, ConnectionCloseResponseRetiresTheConnection) {
  // RFC 9112 §9.6: after a response carrying `Connection: close` the
  // server closes; a request written behind it dies with the socket.
  // The peer here closes 100 ms after answering, as a draining proxy
  // does once its response flushes. The follow-up is a paced upload,
  // which the client must not replay, so it succeeds only if the
  // client dialed a fresh connection for it.
  TcpListener listener(SocketAddr::loopback(0));
  std::atomic<int> accepted{0};
  std::thread peer([&] {
    auto first = acceptWithin(listener, 3000);
    if (!first) {
      return;
    }
    ++accepted;
    if (!readUntil(*first, "\r\n\r\n", 3000)) {
      return;
    }
    writeAll(*first,
             "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
             "Connection: close\r\n\r\nok");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    first->close();

    auto second = acceptWithin(listener, 3000);
    if (!second) {
      return;
    }
    ++accepted;
    if (readUntil(*second, "0\r\n\r\n", 3000)) {
      writeAll(*second, "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ndone");
    }
  });

  EventLoopThread loop{"client"};
  std::shared_ptr<Client> client;
  std::atomic<bool> done{false};
  Client::Result first;
  Client::Result upload;
  loop.runSync([&] {
    client = Client::make(loop.loop(), listener.localAddr());
    Request req;
    req.path = "/first";
    client->request(req, [&](Client::Result r) {
      first = r;
      // Queued behind the first response, as a back-to-back upload
      // stream issues it: 6 chunks × 30 ms outlasts the peer's close.
      client->pacedPost("/upload", 6, 256, Duration{30},
                        [&](Client::Result r2) {
                          upload = r2;
                          done.store(true);
                        });
    });
  });
  waitFor([&] { return done.load(); });
  loop.runSync([&] { client->close(); });
  peer.join();

  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.response.body, "ok");
  EXPECT_TRUE(upload.ok) << "upload went out on the closing connection";
  EXPECT_EQ(upload.response.body, "done");
  EXPECT_EQ(accepted.load(), 2);
}

}  // namespace
}  // namespace zdr::http
