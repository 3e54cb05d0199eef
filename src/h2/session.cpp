#include "h2/session.h"

namespace zdr::h2 {

Session::Session(ConnectionPtr conn, Role role)
    : conn_(std::move(conn)),
      role_(role),
      nextStreamId_(role == Role::kClient ? 1 : 2) {}

void Session::start() {
  auto self = shared_from_this();
  conn_->setDataCallback([self](Buffer& in) { self->handleInput(in); });
  conn_->setCloseCallback([self](std::error_code ec) {
    if (self->cbs_.onClose) {
      self->cbs_.onClose(ec);
    }
  });
  if (!conn_->started()) {
    conn_->start();
  }
}

uint32_t Session::openStream() {
  if (goawayReceived_ || !open()) {
    return 0;
  }
  uint32_t id = nextStreamId_;
  nextStreamId_ += 2;
  streams_.emplace(id, StreamState{});
  return id;
}

Session::StreamState* Session::liveStream(uint32_t streamId) {
  auto it = streams_.find(streamId);
  return it == streams_.end() ? nullptr : &it->second;
}

Session::StreamState* Session::streamForFrame(uint32_t streamId) {
  if (auto* st = liveStream(streamId)) {
    return st;
  }
  // Only a peer-initiated id above every one seen so far opens a
  // stream. Anything else names a closed stream: after a reset its
  // in-flight frames are ignored (RFC 9113 §5.1), and must not bring
  // the stream back to life and hold a draining session open.
  const bool peerInitiated = (streamId % 2 == 1) == (role_ == Role::kServer);
  if (!peerInitiated || streamId <= lastPeerStreamId_) {
    return nullptr;
  }
  lastPeerStreamId_ = streamId;
  return &streams_[streamId];
}

void Session::writeFrame(const Frame& f) {
  if (!open()) {
    return;
  }
  Buffer out;
  encodeFrame(f, out);
  conn_->send(out.readable());
}

void Session::sendHeaders(uint32_t streamId, const HeaderList& headers,
                          bool endStream) {
  Frame f;
  f.type = FrameType::kHeaders;
  f.flags = endStream ? kFlagEndStream : 0;
  f.streamId = streamId;
  f.payload = encodeHeaderBlock(headers);
  writeFrame(f);
  endLocal(streamId, endStream);
}

void Session::sendData(uint32_t streamId, std::string_view data,
                       bool endStream) {
  Frame f;
  f.type = FrameType::kData;
  f.flags = endStream ? kFlagEndStream : 0;
  f.streamId = streamId;
  f.payload.assign(data);
  writeFrame(f);
  endLocal(streamId, endStream);
}

void Session::endLocal(uint32_t streamId, bool endStream) {
  StreamState* st = endStream ? liveStream(streamId) : nullptr;
  if (st != nullptr) {
    st->localEnded = true;
    endStreamIfDone(streamId, *st);
  }
}

void Session::sendReset(uint32_t streamId) {
  Frame f;
  f.type = FrameType::kRstStream;
  f.streamId = streamId;
  writeFrame(f);
  streams_.erase(streamId);
  maybeFinishDrain();
}

void Session::sendPing() {
  Frame f;
  f.type = FrameType::kPing;
  writeFrame(f);
}

void Session::sendGoaway(std::string debug) {
  if (goawaySent_) {
    return;
  }
  goawaySent_ = true;
  Frame f;
  f.type = FrameType::kGoaway;
  f.payload = encodeGoaway({lastPeerStreamId_, std::move(debug)});
  writeFrame(f);
}

void Session::sendControl(FrameType type, std::string payload,
                          uint32_t streamId) {
  Frame f;
  f.type = type;
  f.streamId = streamId;
  f.payload = std::move(payload);
  writeFrame(f);
}

void Session::drainAndClose(std::string debug) {
  drainRequested_ = true;
  sendGoaway(std::move(debug));
  maybeFinishDrain();
}

void Session::closeNow(std::error_code reason) {
  if (conn_) {
    conn_->close(reason);
  }
}

void Session::maybeFinishDrain() {
  if (drainRequested_ && streams_.empty() && conn_ && conn_->open()) {
    conn_->closeAfterFlush();
  }
}

void Session::handleInput(Buffer& in) {
  while (true) {
    bool malformed = false;
    auto frame = decodeFrame(in, malformed);
    if (malformed) {
      closeNow(std::make_error_code(std::errc::protocol_error));
      return;
    }
    if (!frame) {
      return;
    }
    handleFrame(*frame);
    if (!open()) {
      return;  // a handler closed us
    }
  }
}

void Session::endStreamIfDone(uint32_t streamId, StreamState& st) {
  if (st.localEnded && st.remoteEnded) {
    streams_.erase(streamId);
    maybeFinishDrain();
  }
}

void Session::handleFrame(const Frame& f) {
  switch (f.type) {
    case FrameType::kHeaders: {
      auto headers = decodeHeaderBlock(f.payload);
      if (!headers) {
        closeNow(std::make_error_code(std::errc::protocol_error));
        return;
      }
      StreamState* st = streamForFrame(f.streamId);
      if (st == nullptr) {
        break;
      }
      if (f.endStream()) {
        st->remoteEnded = true;
      }
      if (cbs_.onHeaders) {
        cbs_.onHeaders(f.streamId, *headers, f.endStream());
      }
      // Looked up again: the callback may have completed and erased
      // the stream.
      if (StreamState* live = liveStream(f.streamId)) {
        endStreamIfDone(f.streamId, *live);
      }
      break;
    }
    case FrameType::kData: {
      StreamState* st = streamForFrame(f.streamId);
      if (st == nullptr) {
        break;
      }
      if (f.endStream()) {
        st->remoteEnded = true;
      }
      if (cbs_.onData) {
        cbs_.onData(f.streamId, f.payload, f.endStream());
      }
      if (StreamState* live = liveStream(f.streamId)) {
        endStreamIfDone(f.streamId, *live);  // see kHeaders note
      }
      break;
    }
    case FrameType::kRstStream: {
      streams_.erase(f.streamId);
      if (cbs_.onReset) {
        cbs_.onReset(f.streamId);
      }
      maybeFinishDrain();
      break;
    }
    case FrameType::kPing: {
      if (!(f.flags & kFlagAck)) {
        Frame ack;
        ack.type = FrameType::kPing;
        ack.flags = kFlagAck;
        writeFrame(ack);
      }
      break;
    }
    case FrameType::kGoaway: {
      goawayReceived_ = true;
      auto info = decodeGoaway(f.payload);
      if (cbs_.onGoaway && info) {
        cbs_.onGoaway(*info);
      }
      break;
    }
    case FrameType::kSettings:
    case FrameType::kWindowUpdate:
      break;  // accepted, unused by this reproduction
    case FrameType::kReconnectSolicitation:
    case FrameType::kReconnect:
    case FrameType::kConnectAck:
    case FrameType::kConnectRefuse: {
      if (cbs_.onControl) {
        cbs_.onControl(f);
      }
      break;
    }
  }
}

}  // namespace zdr::h2
