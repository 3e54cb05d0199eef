// Stream-multiplexing session over one trunk connection.
//
// Edge and Origin Proxygen keep a small number of long-lived trunk
// sessions between them (§2.2); every user request or MQTT tunnel maps
// to one stream. GOAWAY drains the session gracefully during a restart
// (§4.1 "Connections between Edge and Origin").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>

#include "h2/frame.h"
#include "netcore/connection.h"

namespace zdr::h2 {

class Session;
using SessionPtr = std::shared_ptr<Session>;

class Session : public std::enable_shared_from_this<Session> {
 public:
  enum class Role : uint8_t { kClient, kServer };

  struct Callbacks {
    // A peer-initiated stream received HEADERS.
    std::function<void(uint32_t streamId, const HeaderList&, bool endStream)>
        onHeaders;
    std::function<void(uint32_t streamId, std::string_view data,
                       bool endStream)>
        onData;
    std::function<void(uint32_t streamId)> onReset;
    // Peer sent GOAWAY: stop opening streams; existing ones continue.
    std::function<void(const GoawayInfo&)> onGoaway;
    // DCR extension frames (stream 0).
    std::function<void(const Frame&)> onControl;
    // Transport closed (after this, the session is dead).
    std::function<void(std::error_code)> onClose;
  };

  static SessionPtr make(ConnectionPtr conn, Role role) {
    return SessionPtr(new Session(std::move(conn), role));
  }

  // Attaches to the connection and starts processing frames.
  void start();

  // Feeds bytes that were read from the connection before this session
  // attached (a listener that sniffs a preface to pick a protocol reads
  // ahead, then replays the non-matching bytes here). Consumes what
  // parses; partial trailing frames stay in `in` for the data callback
  // installed by start().
  void injectInput(Buffer& in) { handleInput(in); }

  // Allocates the next locally-initiated stream id (client: odd,
  // server: even). Returns 0 if the session can no longer open streams
  // (GOAWAY received or transport closed).
  uint32_t openStream();

  void sendHeaders(uint32_t streamId, const HeaderList& headers,
                   bool endStream);
  void sendData(uint32_t streamId, std::string_view data, bool endStream);
  void sendReset(uint32_t streamId);
  void sendPing();
  // Announces drain: peer must not open new streams. Carries the
  // highest peer-initiated stream id this session has processed
  // (RFC 9113 §6.8).
  void sendGoaway(std::string debug = {});
  // Extension/control frame on stream 0.
  void sendControl(FrameType type, std::string payload = {},
                   uint32_t streamId = 0);

  // Sends GOAWAY and closes the transport once all streams finish.
  void drainAndClose(std::string debug = "draining");
  void closeNow(std::error_code reason = {});

  void setCallbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  [[nodiscard]] size_t activeStreams() const noexcept {
    return streams_.size();
  }
  [[nodiscard]] bool goawayReceived() const noexcept {
    return goawayReceived_;
  }
  [[nodiscard]] bool goawaySent() const noexcept { return goawaySent_; }
  [[nodiscard]] bool open() const noexcept { return conn_ && conn_->open(); }
  [[nodiscard]] Role role() const noexcept { return role_; }

 private:
  Session(ConnectionPtr conn, Role role);

  struct StreamState {
    bool localEnded = false;
    bool remoteEnded = false;
  };

  void handleInput(Buffer& in);
  void handleFrame(const Frame& f);
  void endStreamIfDone(uint32_t streamId, StreamState& st);
  // Marks our half of a live stream ended when `endStream` is set.
  void endLocal(uint32_t streamId, bool endStream);
  void maybeFinishDrain();
  void writeFrame(const Frame& f);
  // The stream's state, or null once it has closed.
  StreamState* liveStream(uint32_t streamId);
  // The state an incoming HEADERS/DATA frame applies to: opens a new
  // peer-initiated stream, or null for a frame on a closed stream.
  StreamState* streamForFrame(uint32_t streamId);

  ConnectionPtr conn_;
  Role role_;
  Callbacks cbs_;
  std::map<uint32_t, StreamState> streams_;
  uint32_t nextStreamId_;
  uint32_t lastPeerStreamId_ = 0;
  bool goawayReceived_ = false;
  bool goawaySent_ = false;
  bool drainRequested_ = false;
};

}  // namespace zdr::h2
