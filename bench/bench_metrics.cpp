// Observability overhead: what does the instrumentation itself cost?
//
// Two layers:
//  * micro — ns/op for every hot-path instrument (Counter, Gauge,
//    MaxGauge, exact Histogram, HdrHistogram, the span and event
//    rings — one SeqlockRing, so both cells time the bare record()),
//    plus the trace::nowNs clock read every recorded event pays,
//    single-thread tight loops, because these sit on the per-request
//    path of a multi-worker proxy;
//  * macro — closed-loop RPS through the full edge→origin→app pipeline
//    across three cells: full observability (tracing+recorder on),
//    tracing off, and flight recorder off (loop profiling + event
//    rings disabled). Each cell is best-of-3 with a discarded warmup
//    run, because scheduler noise on a shared machine dwarfs the
//    instruments' cost. The tracing budget is <2% RPS delta
//    (warn-only); the recorder budget is <2% RPS delta and IS gated in
//    CI (check_bench_regression.py --budget recorder_rps_delta=0.02).
//
// Emits BENCH_metrics.json; scripts/check_bench_regression.py compares
// against bench/baselines/BENCH_metrics.baseline.json.
//
// Usage: bench_metrics [--smoke]
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "core/testbed.h"
#include "core/workload.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"

using namespace zdr;

namespace {

struct MicroResult {
  const char* name;
  double nsPerOp = 0;
};

template <typename Fn>
MicroResult microBench(const char* name, uint64_t iters, Fn&& fn) {
  // Short warmup so lazily-faulted pages and branch predictors settle.
  for (uint64_t i = 0; i < iters / 10 + 1; ++i) {
    fn(i);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    fn(i);
  }
  double ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return {name, ns / static_cast<double>(iters)};
}

std::vector<MicroResult> runMicro() {
  const uint64_t kIters = bench::scaled<uint64_t>(2000000, 50000);
  std::vector<MicroResult> out;

  Counter counter;
  out.push_back(microBench("counter.add", kIters,
                           [&](uint64_t) { counter.add(); }));
  Gauge gauge;
  out.push_back(microBench("gauge.set", kIters, [&](uint64_t i) {
    gauge.set(static_cast<double>(i));
  }));
  MaxGauge maxGauge;
  out.push_back(microBench("max_gauge.update", kIters, [&](uint64_t i) {
    maxGauge.update(static_cast<double>(i % 1024));
  }));
  HdrHistogram hdr;
  out.push_back(microBench("hdr_histogram.record", kIters, [&](uint64_t i) {
    hdr.record(static_cast<double>(i % 10000));
  }));
  // The exact histogram is the cold-path instrument the hdr replaced on
  // the request path; keep iterations bounded — it allocates.
  Histogram exact;
  out.push_back(microBench("exact_histogram.record",
                           std::min<uint64_t>(kIters, 500000),
                           [&](uint64_t i) {
                             exact.record(static_cast<double>(i % 10000));
                           }));
  trace::SpanSink sink(8192);
  trace::Span span;
  span.traceId = 1;
  span.spanId = 2;
  span.kind = static_cast<uint32_t>(trace::SpanKind::kEdgeRequest);
  out.push_back(microBench("span_sink.record", kIters, [&](uint64_t i) {
    span.startNs = i;
    span.endNs = i + 5;
    sink.record(span);
  }));
  // Both ring cells time the bare record() so they compare like with
  // like; the clock read fr::recordEvent adds is its own cell.
  fr::EventRing ring(8192);
  fr::Event event;
  event.kind = static_cast<uint32_t>(fr::EventKind::kLoopIteration);
  event.instance = 1;
  out.push_back(microBench("event_ring.record", kIters, [&](uint64_t i) {
    event.tNs = i;
    event.durNs = i;
    ring.record(event);
  }));
  out.push_back(
      microBench("trace.now", kIters, [](uint64_t) { trace::nowNs(); }));
  return out;
}

struct Cell {
  bool tracing = true;
  bool recorder = true;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double rps = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  double cpuUsPerReq = 0;
  uint64_t spansRecorded = 0;
  uint64_t eventsRecorded = 0;
  double littleRatio = 0;  // completed ÷ Little's-law prediction
};

Cell runCell(bool tracing, bool recorder) {
  Cell cell;
  cell.tracing = tracing;
  cell.recorder = recorder;
  trace::setTracingEnabled(tracing);
  // The recorder-off cell is the full always-on flight-recorder cost:
  // the global event gate (recordEvent's early-out) plus the per-
  // dispatch clock reads the loop profiler takes when installed.
  fr::setRecorderEnabled(recorder);

  core::TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = bench::scaled<size_t>(4, 1);
  opts.proxyConfigHook = [recorder](proxygen::Proxy::Config& cfg) {
    cfg.loopProfiling = recorder;
  };
  core::Testbed bed(opts);

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

  bench::waitUntil(
      [&] { return completedAll() >= bench::scaled<uint64_t>(200, 20); },
      10000);
  bed.metrics().histogram("load.latency_ms").reset();

  uint64_t doneStart = completedAll();
  double cpuStart = processCpuSeconds();
  auto t0 = std::chrono::steady_clock::now();

  bench::sleepMs(bench::scaled<long>(3000, 300));

  uint64_t doneEnd = completedAll();
  double cpuEnd = processCpuSeconds();
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
  }
  cell.spansRecorded = bed.metrics().collectSpans().size();
  cell.eventsRecorded = bed.metrics().collectEvents().size();
  return cell;
}

void writeJson(const std::vector<MicroResult>& micro,
               const std::vector<Cell>& cells, double tracingDelta,
               double recorderDelta, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"metrics\",\n  \"smoke\": "
      << (bench::smokeMode() ? "true" : "false") << ",\n  \"micro\": {";
  for (size_t i = 0; i < micro.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << micro[i].name
        << "_ns\": " << micro[i].nsPerOp;
  }
  out << "},\n  \"tracing_rps_delta\": " << tracingDelta
      << ",\n  \"recorder_rps_delta\": " << recorderDelta
      << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"tracing\": " << (c.tracing ? "true" : "false")
        << ", \"recorder\": " << (c.recorder ? "true" : "false")
        << ", \"requests\": " << c.requests << ", \"errors\": " << c.errors
        << ", \"rps\": " << c.rps << ", \"p50_ms\": " << c.p50Ms
        << ", \"p99_ms\": " << c.p99Ms
        << ", \"cpu_us_per_req\": " << c.cpuUsPerReq
        << ", \"spans_recorded\": " << c.spansRecorded
        << ", \"events_recorded\": " << c.eventsRecorded
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

  bench::banner(
      "Observability overhead — instrument ns/op, tracing and flight "
      "recorder on/off RPS",
      "hot-path instruments are lock-free; tracing and the always-on "
      "recorder each cost <2% RPS");

  bench::section("micro (single thread)");
  auto micro = runMicro();
  for (const auto& m : micro) {
    bench::row(m.name, m.nsPerOp, "ns/op");
  }

  bench::section("macro (tracing / recorder on vs off)");
  const bool origTracing = trace::tracingEnabled();
  const bool origRecorder = fr::recorderEnabled();
  std::vector<Cell> cells;
  // Cell order is load-bearing for the delta math and the structural
  // checks below: [0] full observability, [1] tracing off, [2]
  // recorder off.
  const std::pair<bool, bool> kCellGrid[] = {
      {true, true}, {false, true}, {true, false}};
  // Each cell is best-of-N. Closed-loop RPS on a shared machine swings
  // with scheduler placement far more than the instruments cost — a
  // single-shot cell showed recorder-off running SLOWER than recorder-on
  // run-to-run — so a 2% gate needs noise filtering. Taking the max
  // over repeats discards interference (which only ever slows a run)
  // while structural overhead, work the instruments do on every
  // request, survives in all repeats. One extra discarded run up front
  // warms the allocator and page cache shared by every cell.
  const int kRepeats = 3;
  runCell(true, true);
  for (auto [tracing, recorder] : kCellGrid) {
    Cell best = runCell(tracing, recorder);
    for (int r = 1; r < kRepeats; ++r) {
      Cell c = runCell(tracing, recorder);
      if (c.rps > best.rps) {
        best = c;
      }
    }
    cells.push_back(best);
    const Cell& c = cells.back();
    std::printf(
        "tracing=%-3s recorder=%-3s  %8.0f rps  p50 %6.2f ms  "
        "p99 %6.2f ms  %7.1f cpu-us/req  %8llu spans  %8llu events  "
        "little %.2f  (%llu reqs, %llu err)\n",
        c.tracing ? "on" : "off", c.recorder ? "on" : "off", c.rps, c.p50Ms,
        c.p99Ms, c.cpuUsPerReq,
        static_cast<unsigned long long>(c.spansRecorded),
        static_cast<unsigned long long>(c.eventsRecorded), c.littleRatio,
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.errors));
  }
  trace::setTracingEnabled(origTracing);
  fr::setRecorderEnabled(origRecorder);

  double tracingDelta = 0;
  double recorderDelta = 0;
  if (cells.size() == 3 && cells[1].rps > 0 && cells[2].rps > 0) {
    tracingDelta = (cells[1].rps - cells[0].rps) / cells[1].rps;
    recorderDelta = (cells[2].rps - cells[0].rps) / cells[2].rps;
    bench::section("budget");
    bench::row("RPS cost of tracing (off->on)", tracingDelta, "fraction");
    bench::row("RPS cost of recorder (off->on)", recorderDelta, "fraction");
    if (!bench::smokeMode() && tracingDelta > 0.02) {
      std::printf(
          "::warning::tracing overhead %.1f%% exceeds the 2%% budget "
          "(warn-only)\n",
          tracingDelta * 100);
    }
    if (!bench::smokeMode() && recorderDelta > 0.02) {
      std::printf(
          "::warning::recorder overhead %.1f%% exceeds the 2%% budget "
          "(gated in CI via check_bench_regression.py --budget)\n",
          recorderDelta * 100);
    }
  }
  // Spans must flow when tracing is on and stop when off; recorder
  // events likewise. These are structural (not timing) and fail hard.
  if (cells.size() == 3) {
    if (cells[0].spansRecorded == 0) {
      std::fprintf(stderr, "error: tracing-on cell recorded no spans\n");
      return 1;
    }
    if (cells[1].spansRecorded != 0) {
      std::fprintf(stderr,
                   "error: tracing-off cell recorded %llu spans\n",
                   static_cast<unsigned long long>(cells[1].spansRecorded));
      return 1;
    }
    if (cells[0].eventsRecorded == 0) {
      std::fprintf(stderr, "error: recorder-on cell recorded no events\n");
      return 1;
    }
    if (cells[2].eventsRecorded != 0) {
      std::fprintf(stderr,
                   "error: recorder-off cell recorded %llu events\n",
                   static_cast<unsigned long long>(cells[2].eventsRecorded));
      return 1;
    }
  }

  writeJson(micro, cells, tracingDelta, recorderDelta,
            "BENCH_metrics.json");
  std::printf("\nwrote BENCH_metrics.json\n");

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
                   "error: tracing=%s recorder=%s completed %.2fx the "
                   "Little's-law prediction (allowed 1 ± %.2f)\n",
                   c.tracing ? "on" : "off", c.recorder ? "on" : "off",
                   c.littleRatio, bench::kLittleTolerance);
      return 1;
    }
  }
  return 0;
}
