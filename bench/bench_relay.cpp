// Edge relay mode: copy-bytes and syscall economics of a streamed large
// response end to end.
//
// One "proxy_e2e" cell runs the real testbed with the Edge's relay-mode
// threshold live and a load generator fetching 256 KiB bodies: the
// response head goes out when the trunk HEADERS arrive and the body
// streams from trunk DATA frames without being re-buffered whole.
// Reports req/s, client p99, copy-bytes/request and syscalls/request.
//
// Emits BENCH_relay.json; CI gates copy_bytes_per_req and
// syscalls_per_req on the committed baseline
// (scripts/check_bench_regression.py --gate). Both are structural: a
// streamed body that starts being re-buffered shows up as one more
// userspace pass over 256 KiB per request.
//
// Usage: bench_relay [--smoke]
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "core/testbed.h"
#include "core/workload.h"
#include "netcore/io_stats.h"

using namespace zdr;

namespace {

struct Cell {
  uint64_t requests = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double rps = 0;
  double p99Ms = 0;
  double copyBytesPerReq = 0;
  double syscallsPerReq = 0;
};

size_t relaySyscalls() {
  return ioStats().totalReadSyscalls() + ioStats().totalWriteSyscalls();
}

constexpr size_t kBigBody = 256 * 1024;

Cell runProxyCell() {
  Cell cell;
  core::TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.proxyConfigHook = [](proxygen::Proxy::Config& c) {
    c.relayThresholdBytes = 64 * 1024;
  };
  core::Testbed bed(opts);
  for (size_t i = 0; i < bed.appCount(); ++i) {
    bed.app(i).withServer([](appserver::AppServer* s) {
      s->setHandler([](const http::Request& req, http::Response& res) {
        res.status = 200;
        if (req.path.rfind("/big", 0) == 0) {
          res.body.assign(kBigBody, 'B');
        } else {
          res.body = "ok";
        }
      });
    });
  }

  core::HttpLoadGen::Options lo;
  lo.concurrency = bench::scaledConnections(8, 4);
  lo.thinkTime = Duration{0};
  lo.path = "/big/stream";
  core::HttpLoadGen gen(bed.httpEntry(), lo, bed.metrics(), "gen");
  gen.start();

  auto& ok = bed.metrics().counter("gen.ok");
  bench::waitUntil([&] { return ok.value() >= lo.concurrency; }, 10000);
  uint64_t ok0 = ok.value();
  uint64_t copied0 = ioStats().copiedBytes();
  uint64_t syscalls0 = relaySyscalls();
  auto t0 = std::chrono::steady_clock::now();

  bench::sleepMs(bench::scaled<long>(1500, 250));

  cell.requests = ok.value() - ok0;
  double copied = static_cast<double>(ioStats().copiedBytes() - copied0);
  double syscalls = static_cast<double>(relaySyscalls() - syscalls0);
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  gen.stop();
  cell.errors = bed.metrics().counter("gen.err_http").value() +
                bed.metrics().counter("gen.err_transport").value() +
                bed.metrics().counter("gen.err_timeout").value();

  if (cell.requests > 0) {
    cell.rps = static_cast<double>(cell.requests) / cell.seconds;
    cell.copyBytesPerReq = copied / static_cast<double>(cell.requests);
    cell.syscallsPerReq = syscalls / static_cast<double>(cell.requests);
  }
  cell.p99Ms = bed.metrics().histogram("gen.latency_ms").quantile(0.99);
  return cell;
}

void writeJson(const Cell& c, const char* path) {
  std::ofstream out(path);
  // Client latency is loopback timing noise, so it rides a key the
  // regression gate does not police.
  out << "{\n  \"bench\": \"relay\",\n  \"smoke\": "
      << (bench::smokeMode() ? "true" : "false") << ",\n  \"cells\": [\n"
      << "    {\"mode\": \"proxy_e2e\", \"http_workers\": 1"
      << ", \"requests\": " << c.requests << ", \"errors\": " << c.errors
      << ", \"seconds\": " << c.seconds << ", \"rps\": " << c.rps
      << ", \"client_p99_ms\": " << c.p99Ms
      << ", \"copy_bytes_per_req\": " << c.copyBytesPerReq
      << ", \"syscalls_per_req\": " << c.syscallsPerReq << "}\n"
      << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ::setenv("ZDR_BENCH_SMOKE", "1", 1);
    }
  }

  bench::banner("Edge relay mode — streamed 256 KiB responses end to end",
                "a streamed body is never re-buffered whole at the edge");

  // The first Testbed in the process pays one-time costs that later
  // ones reuse; a discarded warm-up run takes that hit so the measured
  // cell starts warm.
  (void)runProxyCell();
  Cell c = runProxyCell();
  std::printf(
      "e2e    %8.0f req/s  p99 %7.3f ms  %10.0f copy-B/req  "
      "%7.2f syscalls/req  (%llu errors)\n",
      c.rps, c.p99Ms, c.copyBytesPerReq, c.syscallsPerReq,
      static_cast<unsigned long long>(c.errors));

  writeJson(c, "BENCH_relay.json");
  std::printf("\nwrote BENCH_relay.json\n");

  if (c.requests == 0) {
    std::fprintf(stderr, "error: no request completed\n");
    return 1;
  }
  return 0;
}
