// Proxy throughput trajectory: closed-loop load through the full
// edge → trunk → origin → app pipeline, swept over the SO_REUSEPORT
// worker count (httpWorkers ∈ {1, 2, 4}).
//
// Reports RPS, p50/p99 latency, CPU per request, and write syscalls
// per request for every cell, and emits BENCH_proxy_throughput.json so
// CI can track the perf trajectory across commits
// (scripts/check_bench_regression.py --gate compares against the
// committed baseline). The binary itself fails when any cell's
// completions leave the Little's-law prediction.
//
// Usage: bench_proxy_throughput [--smoke]
//   --smoke  equivalent to ZDR_BENCH_SMOKE=1: minimal fleet and
//            per-cell duration — crash/API-drift detection, not
//            figure-quality numbers.
#include <cstring>
#include <fstream>
#include <memory>

#include "bench_util.h"
#include "core/testbed.h"
#include "core/workload.h"
#include "netcore/io_stats.h"

using namespace zdr;

namespace {

struct Cell {
  size_t httpWorkers = 1;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double rps = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  double cpuUsPerReq = 0;        // whole process (proxy + load + apps)
  double writeSyscallsPerReq = 0;  // whole process, before/after ratio
  double shedRate = 0;   // edge.err.shed / edge requests (0 when healthy)
  double retryRate = 0;  // shard.retries / edge requests (0 when healthy)
  double littleRatio = 0;  // completed ÷ Little's-law prediction
};

Cell runCell(size_t httpWorkers) {
  Cell cell;
  cell.httpWorkers = httpWorkers;

  core::TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = httpWorkers;
  core::Testbed bed(opts);

  // One HttpLoadGen is one event-loop thread; a single generator thread
  // cannot saturate a multi-worker edge, so the full run drives the
  // proxy from several. They share the "load" metric prefix (counters
  // and the latency histogram are thread-safe), completions are summed.
  const size_t kGens = bench::scaled<size_t>(4, 1);
  const size_t kConnsPerGen = bench::scaledConnections(8);
  std::vector<std::unique_ptr<core::HttpLoadGen>> gens;
  for (size_t g = 0; g < kGens; ++g) {
    core::HttpLoadGen::Options lo;
    lo.concurrency = kConnsPerGen;
    lo.thinkTime = Duration{0};
    gens.push_back(std::make_unique<core::HttpLoadGen>(bed.httpEntry(), lo,
                                                       bed.metrics(), "load"));
    gens.back()->start();
  }
  auto completedAll = [&] {
    uint64_t total = 0;
    for (const auto& g : gens) {
      total += g->completed();
    }
    return total;
  };

  // Warm up (connection establishment, cache-of-everything effects),
  // then measure a clean window.
  bench::waitUntil(
      [&] { return completedAll() >= bench::scaled<uint64_t>(200, 20); },
      10000);
  bed.metrics().histogram("load.latency_ms").reset();

  uint64_t doneStart = completedAll();
  double cpuStart = processCpuSeconds();
  uint64_t writesStart = ioStats().totalWriteSyscalls();
  auto t0 = std::chrono::steady_clock::now();

  bench::sleepMs(bench::scaled<long>(3000, 300));

  uint64_t doneEnd = completedAll();
  double cpuEnd = processCpuSeconds();
  uint64_t writesEnd = ioStats().totalWriteSyscalls();
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& g : gens) {
    g->stop();
  }

  cell.requests = doneEnd - doneStart;
  cell.errors = bed.metrics().counter("load.err_http").value() +
                bed.metrics().counter("load.err_transport").value() +
                bed.metrics().counter("load.err_timeout").value();
  cell.rps = static_cast<double>(cell.requests) / cell.seconds;
  cell.p50Ms = bed.metrics().histogram("load.latency_ms").quantile(0.5);
  cell.p99Ms = bed.metrics().histogram("load.latency_ms").quantile(0.99);
  cell.littleRatio = bench::littleRatio(
      cell.requests, kGens * kConnsPerGen, cell.seconds,
      bed.metrics().histogram("load.latency_ms").mean());
  if (cell.requests > 0) {
    cell.cpuUsPerReq =
        (cpuEnd - cpuStart) * 1e6 / static_cast<double>(cell.requests);
    cell.writeSyscallsPerReq = static_cast<double>(writesEnd - writesStart) /
                               static_cast<double>(cell.requests);
  }
  // Containment counters: on an all-healthy run both must be 0 — any
  // shedding or retrying here is a regression in the admission or
  // retry-budget logic, which is why CI tracks them per cell.
  uint64_t edgeRequests = bed.metrics().counter("edge0.requests").value();
  if (edgeRequests > 0) {
    cell.shedRate =
        static_cast<double>(bed.metrics().counter("edge.err.shed").value()) /
        static_cast<double>(edgeRequests);
    cell.retryRate =
        static_cast<double>(bed.metrics().counter("shard.retries").value()) /
        static_cast<double>(edgeRequests);
  }
  return cell;
}

void writeJson(const std::vector<Cell>& cells, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"proxy_throughput\",\n  \"smoke\": "
      << (bench::smokeMode() ? "true" : "false") << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"http_workers\": " << c.httpWorkers
        << ", \"requests\": " << c.requests << ", \"errors\": " << c.errors
        << ", \"rps\": " << c.rps << ", \"p50_ms\": " << c.p50Ms
        << ", \"p99_ms\": " << c.p99Ms
        << ", \"cpu_us_per_req\": " << c.cpuUsPerReq
        << ", \"write_syscalls_per_req\": " << c.writeSyscallsPerReq
        << ", \"shed_rate\": " << c.shedRate
        << ", \"retry_rate\": " << c.retryRate
        << ", \"little_ratio\": " << c.littleRatio << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ::setenv("ZDR_BENCH_SMOKE", "1", 1);
    }
  }

  bench::banner("Proxy throughput — SO_REUSEPORT workers",
                "RPS scales with the worker ring; writev coalescing keeps "
                "write syscalls per request low");

  const size_t workerSweep[] = {1, 2, 4};
  std::vector<Cell> cells;
  for (size_t workers : workerSweep) {
    cells.push_back(runCell(workers));
    const Cell& c = cells.back();
    std::printf(
        "workers=%zu  %8.0f rps  p50 %6.2f ms  p99 %6.2f ms"
        "  %7.1f cpu-us/req  %5.2f wr-syscalls/req  little %.2f"
        "  (%llu reqs, %llu err)\n",
        c.httpWorkers, c.rps, c.p50Ms, c.p99Ms, c.cpuUsPerReq,
        c.writeSyscallsPerReq, c.littleRatio,
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.errors));
  }

  bench::section("trajectory");
  const Cell& w1 = cells.front();
  const Cell& w4 = cells.back();
  if (w1.rps > 0) {
    bench::row("RPS speedup, 4 workers vs 1", w4.rps / w1.rps, "x");
  }

  writeJson(cells, "BENCH_proxy_throughput.json");
  std::printf("\nwrote BENCH_proxy_throughput.json\n");

  uint64_t total = 0;
  for (const auto& c : cells) {
    total += c.requests;
  }
  if (total == 0) {
    std::fprintf(stderr, "error: no requests completed in any cell\n");
    return 1;
  }
  // Structural: completions must match connections × window ÷ mean
  // latency, or the generator stalled outside the measured interval.
  for (const auto& c : cells) {
    if (!bench::littleRatioOk(c.littleRatio)) {
      std::fprintf(stderr,
                   "error: workers=%zu completed %.2fx the Little's-law "
                   "prediction (allowed 1 ± %.2f)\n",
                   c.httpWorkers, c.littleRatio, bench::kLittleTolerance);
      return 1;
    }
  }
  return 0;
}
