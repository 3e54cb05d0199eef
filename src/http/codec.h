// Incremental HTTP/1.1 parser and serializer.
//
// The parser is a resumable state machine fed from a Buffer; it
// supports Content-Length and chunked transfer-encoding bodies. The
// chunked path deliberately exposes its mid-chunk position: a proxy
// implementing Partial Post Replay "must remember the exact state of
// forwarding the body … whether it is in the middle or at the
// beginning of a chunk in order to reconstitute the original chunk
// headers or recompute them from the current state" (§5.2).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "http/message.h"
#include "netcore/buffer.h"

namespace zdr::http {

enum class ParseStatus : uint8_t {
  kNeedMore,     // consumed what it could; feed more bytes
  kHeadersDone,  // headers parsed this call (body may still stream)
  kDone,         // message complete
  kError,
};

// Where a chunked-body parse currently sits; mirrored by the PPR proxy
// when it reconstitutes chunk framing for a replayed request.
struct ChunkState {
  bool chunked = false;
  bool atChunkBoundary = true;   // next bytes are a chunk-size header
  uint64_t chunkBytesLeft = 0;   // body bytes left in the current chunk
};

namespace detail {
enum class Phase : uint8_t {
  kStartLine,
  kHeaders,
  kBodyFixed,
  kBodyChunkSize,
  kBodyChunkData,
  kBodyChunkDataEnd,  // expect CRLF after chunk payload
  kBodyTrailer,
  kDone,
  kError,
};
}  // namespace detail

// Parses either requests or responses (template over message type).
template <typename Message>
class Parser {
 public:
  // Called with each body fragment as it is decoded (after de-chunking).
  using BodyCallback = std::function<void(std::string_view)>;

  // When set, body fragments are streamed to `cb` INSTEAD of being
  // accumulated into message().body.
  void setBodyCallback(BodyCallback cb) { bodyCb_ = std::move(cb); }

  // Consumes as much of `in` as possible. Returns kHeadersDone exactly
  // once per message (the call that finishes the header block), then
  // kNeedMore until kDone.
  ParseStatus feed(Buffer& in);

  [[nodiscard]] const Message& message() const noexcept { return msg_; }
  [[nodiscard]] Message& message() noexcept { return msg_; }
  [[nodiscard]] bool headersComplete() const noexcept {
    return headersDone_;
  }
  [[nodiscard]] bool messageComplete() const noexcept {
    return phase_ == detail::Phase::kDone;
  }
  [[nodiscard]] bool failed() const noexcept {
    return phase_ == detail::Phase::kError;
  }
  // A message has started (its start line is consumed) and is not yet
  // complete. False between messages on a keep-alive connection.
  [[nodiscard]] bool inProgress() const noexcept {
    return phase_ != detail::Phase::kStartLine &&
           phase_ != detail::Phase::kDone;
  }
  // Total decoded body bytes seen so far (streamed or accumulated).
  [[nodiscard]] uint64_t bodyBytesSeen() const noexcept { return bodySeen_; }
  [[nodiscard]] ChunkState chunkState() const noexcept;

  // Resets for the next message on a keep-alive connection.
  void reset();

 private:
  ParseStatus parseStartLine(std::string_view line);
  ParseStatus parseHeaderLine(std::string_view line);
  void onHeadersComplete();
  void deliverBody(std::string_view fragment);

  Message msg_;
  detail::Phase phase_ = detail::Phase::kStartLine;
  bool headersDone_ = false;
  bool headersDoneReported_ = false;
  bool chunked_ = false;
  bool hasLength_ = false;
  uint64_t bodyLeft_ = 0;   // fixed-length mode
  uint64_t chunkLeft_ = 0;  // chunked mode, current chunk
  uint64_t bodySeen_ = 0;
  BodyCallback bodyCb_;
};

using RequestParser = Parser<Request>;
using ResponseParser = Parser<Response>;

// ---- serialization ----

// Serializes start-line + headers (adds Content-Length from body size
// unless Transfer-Encoding/Content-Length already present) + body.
void serialize(const Request& req, Buffer& out);
void serialize(const Response& res, Buffer& out);

// Header-block-only variants for streamed bodies.
void serializeHead(const Request& req, Buffer& out);
void serializeHead(const Response& res, Buffer& out);

// Chunked transfer-encoding writers.
void appendChunk(Buffer& out, std::string_view data);
void appendFinalChunk(Buffer& out);

}  // namespace zdr::http
