// Trunk protocol: frame codec and session semantics (streams, GOAWAY).
#include <atomic>
#include <gtest/gtest.h>

#include "h2/frame.h"
#include "h2/session.h"
#include "netcore/connection.h"

namespace zdr::h2 {
namespace {

TEST(FrameCodecTest, RoundTrip) {
  Frame f;
  f.type = FrameType::kData;
  f.flags = kFlagEndStream;
  f.streamId = 7;
  f.payload = "hello";
  Buffer buf;
  encodeFrame(f, buf);

  bool malformed = false;
  auto decoded = decodeFrame(buf, malformed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(malformed);
  EXPECT_EQ(decoded->type, FrameType::kData);
  EXPECT_EQ(decoded->streamId, 7u);
  EXPECT_EQ(decoded->payload, "hello");
  EXPECT_TRUE(decoded->endStream());
  EXPECT_TRUE(buf.empty());
}

TEST(FrameCodecTest, IncompleteReturnsNullopt) {
  Frame f;
  f.payload = "0123456789";
  Buffer buf;
  encodeFrame(f, buf);
  Buffer partial;
  partial.append(buf.view().substr(0, 12));  // header + 2 payload bytes
  bool malformed = false;
  EXPECT_FALSE(decodeFrame(partial, malformed).has_value());
  EXPECT_FALSE(malformed);
}

TEST(FrameCodecTest, OversizedPayloadMalformed) {
  Buffer buf;
  buf.appendU32(kMaxFramePayload + 1);
  buf.appendU8(0);
  buf.appendU8(0);
  buf.appendU32(1);
  bool malformed = false;
  EXPECT_FALSE(decodeFrame(buf, malformed).has_value());
  EXPECT_TRUE(malformed);
}

TEST(FrameCodecTest, HeaderBlockRoundTrip) {
  HeaderList headers{{":method", "POST"}, {":path", "/u"}, {"x", "y"}};
  auto encoded = encodeHeaderBlock(headers);
  auto decoded = decodeHeaderBlock(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, headers);
}

TEST(FrameCodecTest, HeaderBlockTruncatedRejected) {
  HeaderList headers{{"name", "value"}};
  auto encoded = encodeHeaderBlock(headers);
  EXPECT_FALSE(decodeHeaderBlock(
                   std::string_view(encoded).substr(0, encoded.size() - 2))
                   .has_value());
}

TEST(FrameCodecTest, GoawayRoundTrip) {
  auto payload = encodeGoaway({41, "drain"});
  auto info = decodeGoaway(payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->lastStreamId, 41u);
  EXPECT_EQ(info->debug, "drain");
}

TEST(FrameCodecTest, FrameTypeNames) {
  EXPECT_EQ(frameTypeName(FrameType::kGoaway), "GOAWAY");
  EXPECT_EQ(frameTypeName(FrameType::kReconnectSolicitation),
            "RECONNECT_SOLICITATION");
}

// ------------------------- session over a real loopback connection ----

class SessionPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_unique<TcpListener>(SocketAddr::loopback(0));
    addr_ = listener_->localAddr();

    loop_.runSync([&] {
      acceptor_ = std::make_unique<Acceptor>(
          loop_.loop(), std::move(*listener_), [this](TcpSocket sock) {
            auto conn = Connection::make(loop_.loop(), std::move(sock));
            server_ = Session::make(conn, Session::Role::kServer);
            server_->setCallbacks(serverCbs_);
            server_->start();
            serverUp_.store(true);
          });
    });

    std::atomic<bool> clientUp{false};
    loop_.runSync([&] {
      Connector::connect(loop_.loop(), addr_,
                         [this, &clientUp](TcpSocket sock,
                                           std::error_code ec) {
                           ASSERT_FALSE(ec);
                           auto conn = Connection::make(loop_.loop(),
                                                        std::move(sock));
                           client_ = Session::make(conn,
                                                   Session::Role::kClient);
                           client_->setCallbacks(clientCbs_);
                           client_->start();
                           clientUp.store(true);
                         });
    });
    waitFor([&] { return clientUp.load() && serverUp_.load(); });
  }

  void TearDown() override {
    loop_.runSync([&] {
      if (client_) {
        client_->closeNow();
      }
      if (server_) {
        server_->closeNow();
      }
      acceptor_.reset();
    });
  }

  static void waitFor(const std::function<bool()>& pred, int ms = 2000) {
    for (int i = 0; i < ms && !pred(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(pred());
  }

  EventLoopThread loop_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<Acceptor> acceptor_;
  SocketAddr addr_;
  SessionPtr client_;
  SessionPtr server_;
  Session::Callbacks clientCbs_;
  Session::Callbacks serverCbs_;
  std::atomic<bool> serverUp_{false};
};

TEST_F(SessionPairTest, HeadersAndDataFlow) {
  std::atomic<bool> gotHeaders{false};
  std::atomic<bool> gotData{false};
  std::string dataSeen;
  uint32_t sidSeen = 0;

  serverCbs_.onHeaders = [&](uint32_t sid, const HeaderList& headers,
                             bool end) {
    sidSeen = sid;
    EXPECT_FALSE(end);
    EXPECT_EQ(headers.front().first, ":method");
    gotHeaders.store(true);
  };
  serverCbs_.onData = [&](uint32_t, std::string_view data, bool end) {
    dataSeen.append(data);
    if (end) {
      gotData.store(true);
    }
  };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    uint32_t sid = client_->openStream();
    EXPECT_EQ(sid, 1u);  // client streams are odd
    client_->sendHeaders(sid, {{":method", "GET"}}, false);
    client_->sendData(sid, "abc", true);
  });
  waitFor([&] { return gotHeaders.load() && gotData.load(); });
  EXPECT_EQ(dataSeen, "abc");
  EXPECT_EQ(sidSeen, 1u);
}

TEST_F(SessionPairTest, BidirectionalStream) {
  std::atomic<bool> clientGotReply{false};
  uint32_t serverSid = 0;
  serverCbs_.onHeaders = [&](uint32_t sid, const HeaderList&, bool) {
    serverSid = sid;
    server_->sendHeaders(sid, {{":status", "200"}}, false);
    server_->sendData(sid, "response", true);
  };
  clientCbs_.onData = [&](uint32_t, std::string_view data, bool end) {
    EXPECT_EQ(data, "response");
    if (end) {
      clientGotReply.store(true);
    }
  };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    client_->setCallbacks(clientCbs_);
    uint32_t sid = client_->openStream();
    client_->sendHeaders(sid, {{":method", "GET"}}, true);
  });
  waitFor([&] { return clientGotReply.load(); });
}

TEST_F(SessionPairTest, GoawayStopsNewStreams) {
  std::atomic<bool> goawaySeen{false};
  clientCbs_.onGoaway = [&](const GoawayInfo& info) {
    EXPECT_EQ(info.debug, "test-drain");
    goawaySeen.store(true);
  };
  loop_.runSync([&] {
    client_->setCallbacks(clientCbs_);
    server_->sendGoaway("test-drain");
  });
  waitFor([&] { return goawaySeen.load(); });
  loop_.runSync([&] {
    EXPECT_TRUE(client_->goawayReceived());
    EXPECT_EQ(client_->openStream(), 0u);  // refuses new streams
  });
}

TEST_F(SessionPairTest, GoawayCarriesLastPeerStreamId) {
  // RFC 9113 §6.8: the last-stream-id is the highest stream the peer
  // opened that the sender processed — not the sender's own next id.
  std::atomic<int> streamsSeen{0};
  std::atomic<uint32_t> lastStreamId{0};
  std::atomic<bool> goawaySeen{false};
  serverCbs_.onHeaders = [&](uint32_t, const HeaderList&, bool) {
    streamsSeen.fetch_add(1);
  };
  clientCbs_.onGoaway = [&](const GoawayInfo& info) {
    lastStreamId.store(info.lastStreamId);
    goawaySeen.store(true);
  };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    client_->setCallbacks(clientCbs_);
    for (uint32_t want : {1u, 3u, 5u}) {
      uint32_t sid = client_->openStream();
      EXPECT_EQ(sid, want);
      client_->sendHeaders(sid, {{":method", "GET"}}, false);
    }
  });
  waitFor([&] { return streamsSeen.load() == 3; });
  loop_.runSync([&] { server_->sendGoaway("drain"); });
  waitFor([&] { return goawaySeen.load(); });
  EXPECT_EQ(lastStreamId.load(), 5u);
}

TEST_F(SessionPairTest, FramesOnResetStreamDoNotReopenIt) {
  // The client resets stream 1 while the server's response is in
  // flight. The late frames are ignored: the stream stays closed, so a
  // drain waiting for the last stream can still finish.
  std::atomic<bool> serverSawReset{false};
  std::atomic<bool> clientClosed{false};
  serverCbs_.onReset = [&](uint32_t) { serverSawReset.store(true); };
  clientCbs_.onClose = [&](std::error_code) { clientClosed.store(true); };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    client_->setCallbacks(clientCbs_);
    uint32_t sid = client_->openStream();
    client_->sendHeaders(sid, {{":method", "GET"}}, true);
    client_->sendReset(sid);
  });
  waitFor([&] { return serverSawReset.load(); });
  loop_.runSync([&] {
    // Stream 1 no longer exists on the server either; a response
    // written anyway must not revive it on the client.
    server_->sendHeaders(1, {{":status", "200"}}, false);
    server_->sendData(1, "late", false);
    EXPECT_EQ(server_->activeStreams(), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop_.runSync([&] {
    EXPECT_EQ(client_->activeStreams(), 0u);
    client_->drainAndClose("done");
  });
  waitFor([&] { return clientClosed.load(); });
}

TEST_F(SessionPairTest, DrainClosesWhenStreamsFinish) {
  std::atomic<bool> serverClosed{false};
  serverCbs_.onHeaders = [&](uint32_t sid, const HeaderList&, bool) {
    // Answer and finish the stream, then drain.
    server_->sendHeaders(sid, {{":status", "200"}}, true);
    server_->drainAndClose("bye");
  };
  serverCbs_.onClose = [&](std::error_code) { serverClosed.store(true); };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    uint32_t sid = client_->openStream();
    client_->sendHeaders(sid, {{":m", "GET"}}, true);
  });
  waitFor([&] { return serverClosed.load(); });
}

TEST_F(SessionPairTest, ControlFramesReachPeer) {
  std::atomic<bool> gotSolicitation{false};
  clientCbs_.onControl = [&](const Frame& f) {
    EXPECT_EQ(f.type, FrameType::kReconnectSolicitation);
    gotSolicitation.store(true);
  };
  loop_.runSync([&] {
    client_->setCallbacks(clientCbs_);
    server_->sendControl(FrameType::kReconnectSolicitation);
  });
  waitFor([&] { return gotSolicitation.load(); });
}

TEST_F(SessionPairTest, ResetPropagates) {
  std::atomic<bool> gotReset{false};
  serverCbs_.onReset = [&](uint32_t sid) {
    EXPECT_EQ(sid, 1u);
    gotReset.store(true);
  };
  loop_.runSync([&] {
    server_->setCallbacks(serverCbs_);
    uint32_t sid = client_->openStream();
    client_->sendHeaders(sid, {{":m", "GET"}}, false);
    client_->sendReset(sid);
  });
  waitFor([&] { return gotReset.load(); });
}

TEST_F(SessionPairTest, PingIsAcked) {
  // A ping must not disturb stream accounting and must not error.
  loop_.runSync([&] {
    client_->sendPing();
    EXPECT_TRUE(client_->open());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop_.runSync([&] { EXPECT_TRUE(client_->open()); });
}

}  // namespace
}  // namespace zdr::h2
