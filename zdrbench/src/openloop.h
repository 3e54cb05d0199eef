// Open-loop load generator.
//
// One generator thread owns the client event loop and walks a
// precomputed schedule on its own clock, polling the loop between
// sends; nothing is paced through EventLoop timers, whose 1 ms ticks
// would quantize the offered load, and no hand-off between threads
// sits between an operation's due time and its send. Every operation
// is timed from its intended send time, so a stall anywhere (generator,
// kernel, server) is charged to every operation queued behind it.
//
// Operations go to streams: keep-alive HTTP connections (one request
// in flight per connection, later ones wait in a per-connection FIFO),
// one MQTT session publishing sequence-numbered messages to its own
// topic and receiving them back, or one quicish flow. Each stream
// checks the outputs it receives; a wrong output is a correctness
// violation, a missing or refused one a failed operation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "derive.h"
#include "http/client.h"
#include "metrics/metrics.h"
#include "mqtt/client.h"
#include "netcore/event_loop.h"
#include "quicish/client.h"

namespace zdrbench {

enum class OpKind : uint8_t {
  kGet,
  kCached,
  kPost,
  kPacedPost,
  kPublish,
  kQuic,
};

enum class OpState : uint8_t { kPending, kOk, kFailed };

struct Op {
  OpKind kind = OpKind::kGet;
  uint32_t stream = 0;
  uint64_t id = 0;          // unique per run: names the GET path / seq
  uint32_t arg = 0;         // cache key, body bytes or chunk count
  uint64_t intendedNs = 0;  // trace::nowNs() clock
  uint64_t dispatchNs = 0;  // taken in by the client loop
  uint64_t sentNs = 0;      // handed to the connection
  uint64_t doneNs = 0;
  OpState state = OpState::kPending;
  uint64_t traceId = 0;  // traced runs: the op span joins the program's
  uint64_t spanId = 0;
};

// The HTTP request an operation sends (no trace header): GET
// /api/obj/<id>, GET /cached/<key>, or POST /upload/<id> whose body is
// Content-Length framed for odd ids and chunk-encoded for even ones.
zdr::http::Request requestFor(const Op& op);

// What the streams saw go wrong, beyond plain failures.
struct Violations {
  uint64_t wrongEcho = 0;     // 2xx whose body is not "ok:<path>"
  uint64_t status379 = 0;     // a PPR 379 reached the client
  uint64_t mqttOrder = 0;     // duplicate or out-of-order sequence
  uint64_t quicExtraAcks = 0; // more acks than datagrams sent
};

struct PhaseResult {
  size_t offered = 0;
  size_t finished = 0;
  size_t failed = 0;
  std::vector<double> backlog;  // sampled every kBacklogSampleMs
  double backlogMax = 0;
};

class OpenLoop {
 public:
  static constexpr int kBacklogSampleMs = 20;

  explicit OpenLoop(zdr::MetricsRegistry* reg);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  // Stream constructors; each returns the stream index ops refer to.
  uint32_t addHttp(const zdr::SocketAddr& entry, size_t connections);
  // Blocks until the session's first self-publish came back.
  uint32_t addMqtt(const zdr::SocketAddr& entry, const std::string& clientId);
  uint32_t addQuic(const zdr::SocketAddr& vip, uint64_t connId);

  // Runs `ops` (intended times are offsets from now, in ns) to
  // completion. Returns when every op finished or `drainMs` after the
  // last was due, whichever is first.
  PhaseResult run(std::vector<Op>& ops, int drainMs);

  // Closes every stream; stream indices restart at 0 for streams added
  // afterwards. Call settleUndelivered() first.
  void closeStreams();
  // Closes every stream for good; further runs are invalid.
  void close();
  // Tracing adds an x-zdr-trace header to each HTTP request so the
  // program's hop spans join the operation's span.
  void setTracing(bool on) {
    runSync([this, on] { tracing_ = on; });
  }
  // Runs `fn` on the generator thread and waits for it.
  void runSync(const std::function<void()>& fn);

  [[nodiscard]] zdr::EventLoop& loop() { return *loop_; }
  // CPU of the generator thread; readable from any thread.
  [[nodiscard]] double driverCpuSeconds() const;
  [[nodiscard]] Violations violations();
  [[nodiscard]] uint64_t mqttDrops() const { return mqttDrops_.load(); }
  void quicCounts(uint64_t& sent, uint64_t& acks, uint64_t& resets);
  // Unacked or reset quicish datagrams (failed operations); acks beyond
  // what was sent are recorded as a violation. Call after the last run.
  size_t settleUndelivered();

  // One blocking GET on a private connection (setup probe, /__stats,
  // /__trace). False on any failure or non-200 answer.
  static bool fetch(zdr::EventLoop& loop, const zdr::SocketAddr& entry,
                    const std::string& path, std::string& body,
                    int timeoutMs = 5000);

 private:
  struct Stream;
  struct HttpConn;
  void drive();
  void endPhase();
  void issue(size_t idx);
  void finish(size_t idx, bool ok);
  void sendHttp(Stream& s, HttpConn& c, size_t idx);
  void mqttReceived(Stream& s, const std::string& payload);
  void mqttConnect(Stream& s);

  bool tracing_ = false;
  zdr::Counter* okCounter_;
  zdr::Counter* errHttp_;
  zdr::Counter* errTimeout_;
  zdr::Histogram* latencyHist_;
  std::unique_ptr<zdr::EventLoop> loop_;
  std::vector<std::unique_ptr<Stream>> streams_;  // generator thread
  // Phase state, generator thread (published by runSync / phaseMu_).
  std::vector<Op>* ops_ = nullptr;
  size_t next_ = 0;
  uint64_t deadlineNs_ = 0;
  uint64_t nextSampleNs_ = 0;
  PhaseResult phase_;
  std::mutex phaseMu_;
  std::condition_variable phaseCv_;
  bool phaseDone_ = false;
  std::atomic<size_t> finished_{0};
  std::atomic<size_t> failed_{0};
  std::atomic<uint64_t> mqttDrops_{0};
  Violations violations_;  // loop thread
  uint64_t generation_ = 0;    // generator thread; bumped per run
  uint64_t streamsEpoch_ = 0;  // generator thread; bumped by closeStreams
  std::atomic<bool> closed_{false};
  std::atomic<bool> stop_{false};
  std::thread driver_;  // last: runs drive() over everything above
};

}  // namespace zdrbench
