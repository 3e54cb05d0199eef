#include "http/client.h"

namespace zdr::http {

void Client::ensureConnected(std::function<void(std::error_code)> next) {
  if (conn_ && conn_->open()) {
    sentOnReusedConn_ = true;
    next({});
    return;
  }
  sentOnReusedConn_ = false;
  conn_ = nullptr;
  auto self = shared_from_this();
  Connector::connect(loop_, server_,
                     [self, next](TcpSocket sock, std::error_code ec) {
                       if (self->closed_) {
                         // close() raced this connect: a Connection made
                         // now would self-capture and outlive the loop.
                         return;
                       }
                       if (ec) {
                         next(ec);
                         return;
                       }
                       self->conn_ = Connection::make(self->loop_,
                                                      std::move(sock));
                       self->conn_->setDataCallback([self](Buffer& in) {
                         if (!self->busy_) {
                           in.clear();  // stray bytes between requests
                           return;
                         }
                         auto st = self->parser_.feed(in);
                         if (st == ParseStatus::kError) {
                           Result r;
                           r.transportError = std::make_error_code(
                               std::errc::protocol_error);
                           self->finish(r);
                           return;
                         }
                         if (self->parser_.messageComplete()) {
                           Result r;
                           r.response = self->parser_.message();
                           r.ok = r.response.status < 500;
                           auto conn = r.response.headers.get("Connection");
                           if (conn && Headers::nameEquals(*conn, "close")) {
                             // RFC 9112 §9.6: the server closes after
                             // this response, so the next request must
                             // dial fresh. The close callback goes
                             // first: with busy_ still set it would
                             // turn this good response into an error.
                             auto done = std::move(self->conn_);
                             done->setCloseCallback(nullptr);
                             done->close({});
                           }
                           self->finish(r);
                         }
                       });
                       self->conn_->setCloseCallback(
                           [self](std::error_code why) {
                             self->conn_ = nullptr;
                             if (!self->busy_) {
                               return;
                             }
                             // Stale keep-alive race: retry once on a
                             // fresh connection if nothing was received.
                             if (self->sentOnReusedConn_ &&
                                 self->retryable_ && !self->retriedOnce_ &&
                                 !self->parser_.headersComplete()) {
                               self->retriedOnce_ = true;
                               self->sentOnReusedConn_ = false;
                               self->parser_.reset();
                               self->resendAfterStaleConn();
                               return;
                             }
                             Result r;
                             r.transportError =
                                 why ? why
                                     : std::make_error_code(
                                           std::errc::connection_reset);
                             self->finish(r);
                           });
                       self->conn_->start();
                       next({});
                     });
}

void Client::beginRequest(Callback cb, Duration timeout) {
  busy_ = true;
  cb_ = std::move(cb);
  parser_.reset();
  requestStart_ = Clock::now();
  auto self = shared_from_this();
  timeoutTimer_ = loop_.runAfter(timeout, [self] {
    if (self->busy_) {
      Result r;
      r.timedOut = true;
      self->finish(r);
      if (self->conn_) {
        self->conn_->close({});
        self->conn_ = nullptr;
      }
    }
  });
}

void Client::finish(Result r) {
  if (!busy_) {
    return;
  }
  busy_ = false;
  loop_.cancelTimer(timeoutTimer_);
  loop_.cancelTimer(chunkTimer_);
  chunksLeft_ = 0;
  if (!bodyFullySent_ && conn_) {
    // Early final response to an unfinished upload: per HTTP/1.1
    // semantics the connection cannot carry another request.
    conn_->close({});
    conn_ = nullptr;
  }
  bodyFullySent_ = true;
  r.latencySec =
      std::chrono::duration<double>(Clock::now() - requestStart_).count();
  auto cb = std::move(cb_);
  cb_ = nullptr;
  if (cb) {
    cb(r);
  }
}

void Client::request(Request req, Callback cb, Duration timeout) {
  beginRequest(std::move(cb), timeout);
  if (!req.headers.has("Host")) {
    req.headers.set("Host", "testbed");
  }
  retryRequest_ = req;
  retryTimeout_ = timeout;
  retriedOnce_ = false;
  retryable_ = true;
  auto self = shared_from_this();
  ensureConnected([self, req = std::move(req)](std::error_code ec) mutable {
    if (ec) {
      Result r;
      r.transportError = ec;
      self->finish(r);
      return;
    }
    Buffer out;
    serialize(req, out);
    self->conn_->send(out.readable());
  });
}

void Client::resendAfterStaleConn() {
  auto self = shared_from_this();
  ensureConnected([self](std::error_code ec) {
    if (ec) {
      Result r;
      r.transportError = ec;
      self->finish(r);
      return;
    }
    Buffer out;
    serialize(self->retryRequest_, out);
    self->conn_->send(out.readable());
  });
}

void Client::pacedPost(const std::string& path, size_t chunks,
                       size_t chunkBytes, Duration interval, Callback cb,
                       Duration timeout) {
  beginRequest(std::move(cb), timeout);
  chunksLeft_ = chunks;
  chunkBytes_ = chunkBytes;
  chunkInterval_ = interval;
  bodyFullySent_ = false;
  retryable_ = false;  // a streamed body cannot be transparently replayed

  auto self = shared_from_this();
  ensureConnected([self, path](std::error_code ec) {
    if (ec) {
      Result r;
      r.transportError = ec;
      self->finish(r);
      return;
    }
    Request req;
    req.method = "POST";
    req.path = path;
    req.headers.set("Host", "testbed");
    req.headers.set("Transfer-Encoding", "chunked");
    Buffer out;
    serializeHead(req, out);
    self->conn_->send(out.readable());
    self->sendNextChunk();
  });
}

void Client::sendNextChunk() {
  if (!busy_ || !conn_ || !conn_->open()) {
    return;
  }
  Buffer out;
  if (chunksLeft_ == 0) {
    appendFinalChunk(out);
    conn_->send(out.readable());
    bodyFullySent_ = true;
    return;  // now await the response
  }
  --chunksLeft_;
  std::string payload(chunkBytes_, 'u');
  appendChunk(out, payload);
  conn_->send(out.readable());
  auto self = shared_from_this();
  chunkTimer_ = loop_.runAfter(chunkInterval_, [self] {
    self->sendNextChunk();
  });
}

void Client::close() {
  closed_ = true;
  if (conn_) {
    conn_->close({});
    conn_ = nullptr;
  }
}

}  // namespace zdr::http
