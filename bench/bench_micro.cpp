// Micro-benchmarks (google-benchmark) of the hot-path building blocks:
// HTTP codec, trunk framing, MQTT codec, consistent hashing, fd
// passing.
#include <benchmark/benchmark.h>

#include "h2/frame.h"
#include "http/codec.h"
#include "l4lb/consistent_hash.h"
#include "l4lb/hashing.h"
#include "metrics/metrics.h"
#include "mqtt/codec.h"
#include "netcore/fd_passing.h"
#include "netcore/socket.h"

namespace {

void BM_HttpParseRequest(benchmark::State& state) {
  std::string wire =
      "POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 512\r\n"
      "X-Header-One: value\r\nX-Header-Two: value\r\n\r\n" +
      std::string(512, 'b');
  for (auto _ : state) {
    zdr::http::RequestParser parser;
    zdr::Buffer in;
    in.append(wire);
    benchmark::DoNotOptimize(parser.feed(in));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParseRequest);

void BM_HttpParseChunked(benchmark::State& state) {
  zdr::Buffer body;
  body.append("POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  for (int i = 0; i < 16; ++i) {
    zdr::http::appendChunk(body, std::string(256, 'c'));
  }
  zdr::http::appendFinalChunk(body);
  std::string wire(body.view());
  for (auto _ : state) {
    zdr::http::RequestParser parser;
    zdr::Buffer in;
    in.append(wire);
    benchmark::DoNotOptimize(parser.feed(in));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParseChunked);

void BM_HttpSerializeResponse(benchmark::State& state) {
  zdr::http::Response res;
  res.status = 200;
  res.headers.add("Content-Type", "text/html");
  res.body = std::string(1024, 'r');
  for (auto _ : state) {
    zdr::Buffer out;
    zdr::http::serialize(res, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_HttpSerializeResponse);

void BM_H2FrameRoundTrip(benchmark::State& state) {
  zdr::h2::Frame f;
  f.type = zdr::h2::FrameType::kData;
  f.streamId = 5;
  f.payload = std::string(1024, 'd');
  for (auto _ : state) {
    zdr::Buffer buf;
    zdr::h2::encodeFrame(f, buf);
    bool malformed = false;
    benchmark::DoNotOptimize(zdr::h2::decodeFrame(buf, malformed));
  }
}
BENCHMARK(BM_H2FrameRoundTrip);

void BM_MqttPublishRoundTrip(benchmark::State& state) {
  zdr::mqtt::Packet p;
  p.type = zdr::mqtt::PacketType::kPublish;
  p.topic = "t/user12345";
  p.payload = std::string(128, 'm');
  for (auto _ : state) {
    zdr::Buffer buf;
    zdr::mqtt::encode(p, buf);
    bool malformed = false;
    benchmark::DoNotOptimize(zdr::mqtt::decode(buf, malformed));
  }
}
BENCHMARK(BM_MqttPublishRoundTrip);

void BM_MaglevRebuild(benchmark::State& state) {
  std::vector<std::string> backends;
  for (int i = 0; i < state.range(0); ++i) {
    backends.push_back("backend" + std::to_string(i));
  }
  zdr::l4lb::MaglevHash hash(65537);
  for (auto _ : state) {
    hash.rebuild(backends);
    benchmark::DoNotOptimize(hash.pick(1234));
  }
}
BENCHMARK(BM_MaglevRebuild)->Arg(10)->Arg(100);

void BM_MaglevPick(benchmark::State& state) {
  std::vector<std::string> backends;
  for (int i = 0; i < 100; ++i) {
    backends.push_back("backend" + std::to_string(i));
  }
  zdr::l4lb::MaglevHash hash;
  hash.rebuild(backends);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.pick(zdr::l4lb::mix64(key++)));
  }
}
BENCHMARK(BM_MaglevPick);

void BM_RingPick(benchmark::State& state) {
  std::vector<std::string> backends;
  for (int i = 0; i < 100; ++i) {
    backends.push_back("backend" + std::to_string(i));
  }
  zdr::l4lb::RingHash hash;
  hash.rebuild(backends);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.pick(zdr::l4lb::mix64(key++)));
  }
}
BENCHMARK(BM_RingPick);

void BM_FdPassing(benchmark::State& state) {
  auto [a, b] = zdr::unixSocketPair();
  zdr::FdGuard dummy(::dup(0));
  int fds[] = {dummy.get()};
  std::string payload;
  for (auto _ : state) {
    (void)zdr::sendFdsMsg(a.fd(), "takeover", fds);
    std::vector<zdr::FdGuard> received;
    (void)zdr::recvFdsMsg(b.fd(), payload, received);
    benchmark::DoNotOptimize(received.size());
  }
}
BENCHMARK(BM_FdPassing);

// The proxy's per-request metric bumps. Uncached pays a name lookup
// (map + mutex) on every request; cached resolves the Counter* once at
// proxy construction (Proxy::HotCounters) and bumps a relaxed atomic.
void BM_CounterBumpUncached(benchmark::State& state) {
  zdr::MetricsRegistry registry;
  for (auto _ : state) {
    registry.counter("edge.requests").add();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterBumpUncached);

void BM_CounterBumpCached(benchmark::State& state) {
  zdr::MetricsRegistry registry;
  zdr::Counter* hot = &registry.counter("edge.requests");
  for (auto _ : state) {
    hot->add();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterBumpCached);

}  // namespace

BENCHMARK_MAIN();
