// zdr_perfbench: the repository's end-to-end benchmark. One process runs
// one workload on a fresh in-process testbed and prints every metric by
// name with its unit, then one JSON result line. See ../README.md for
// the workloads, the metric map and how to read the numbers.
//
//   zdr_perfbench --workload api_steady --seed 1 --seconds 20 --trace 0
//       [--out-dir DIR]
//
// Exits 1 without a result when a correctness or validity check fails,
// 2 on bad arguments or a ZDR_* switch in the environment.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.h"
#include "derive.h"
#include "h2/frame.h"
#include "http/codec.h"
#include "metrics/json_lite.h"
#include "metrics/trace.h"
#include "mqtt/codec.h"
#include "netcore/io_stats.h"
#include "openloop.h"
#include "release/release_controller.h"

extern char** environ;

namespace {

using namespace zdr;
using namespace zdrbench;
using trace::nowNs;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 6;
  bool trace = false;
  std::string outDir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "zdr_perfbench: " << why
            << "\nusage: zdr_perfbench --workload api_steady|upload_pubsub|"
               "rolling_release --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + k);
    }
    std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--out-dir") {
        a.outDir = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.seconds < 1 || a.seconds > 600) {
    usage("--seconds must be 1..600");
  }
  return a;
}

// --------------------------------------------------------------- spans

// The benchmark's own spans: one around each operation and its wait in
// the generator, each scrape, each host restart and each timed codec
// loop. Kept in memory, written at exit; off unless --trace 1.
class SpanLog {
 public:
  void enable() { on_ = true; }
  void add(SpanRec s) {
    if (!on_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  // Records [startNs, now) under a fresh span id; returns the id.
  uint64_t close(const std::string& layer, uint64_t startNs,
                 uint64_t traceId = 0, uint64_t parentId = 0) {
    if (!on_) {
      return 0;
    }
    SpanRec s;
    s.traceId = traceId != 0 ? traceId : trace::newId();
    s.spanId = trace::newId();
    s.parentId = parentId;
    s.layer = layer;
    s.startNs = startNs;
    s.endNs = nowNs();
    add(s);
    return s.spanId;
  }
  std::vector<SpanRec> all() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

SpanLog g_spans;

// ------------------------------------------------------------ decorators

// Times each restart from beginRestart until the wrapped host first
// reports completion. The controller polls restartComplete() between
// scrapes, so the resolution is its scrape interval.
class TimedHost final : public release::RestartableHost {
 public:
  TimedHost(release::RestartableHost& inner, std::string tier)
      : inner_(inner), tier_(std::move(tier)) {}
  [[nodiscard]] std::string hostName() const override {
    return inner_.hostName();
  }
  void beginRestart(release::Strategy s) override {
    std::lock_guard<std::mutex> lock(mu_);
    startNs_ = nowNs();
    pending_ = true;
    inner_.beginRestart(s);
  }
  [[nodiscard]] bool restartComplete() const override {
    bool done = inner_.restartComplete();
    std::lock_guard<std::mutex> lock(mu_);
    if (done && pending_) {
      pending_ = false;
      restartMs_.push_back(static_cast<double>(nowNs() - startNs_) / 1e6);
      g_spans.close(tier_ + ".restart", startNs_);
    }
    return done;
  }
  [[nodiscard]] const std::string& tier() const { return tier_; }
  std::vector<double> restartMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return restartMs_;
  }

 private:
  release::RestartableHost& inner_;
  std::string tier_;
  mutable std::mutex mu_;
  mutable uint64_t startNs_ = 0;
  mutable bool pending_ = false;
  mutable std::vector<double> restartMs_;
};

// Times each /__stats scrape the controller makes.
class TimedStats final : public release::StatsSource {
 public:
  explicit TimedStats(std::vector<SocketAddr> entries)
      : inner_(std::move(entries)) {}
  bool scrape(stats::StatsSnapshot& out, std::string& err) override {
    uint64_t t0 = nowNs();
    bool ok = inner_.scrape(out, err);
    std::lock_guard<std::mutex> lock(mu_);
    ms_.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    failures_ += ok ? 0 : 1;
    g_spans.close("release.scrape", t0);
    return ok;
  }
  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }
  std::vector<double> ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return ms_;
  }
  uint64_t failures() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  release::HttpStatsSource inner_;
  std::mutex mu_;
  std::vector<double> ms_;
  uint64_t failures_ = 0;
};

// ------------------------------------------------------------ workloads

// Poisson stream of one operation kind, `rate` per second.
struct Flow {
  OpKind kind;
  uint32_t stream;
  double rate;
};

struct Workload {
  std::string name;
  core::TestbedOptions bed;
  bool l4 = false;
  int setups = 5;
  size_t httpConns = 4;     // keep-alive connections of the main stream
  bool pacedConn = false;   // a second HTTP connection for paced uploads
  size_t mqttSessions = 0;  // in the window
  bool quic = false;
  // Window mix, per second.
  double getRate = 0;
  double cachedShare = 0;  // of getRate
  double postRate = 0;
  double pacedRate = 0;
  double pubRate = 0;  // per session
  double quicRate = 0;
  bool releaseInWindow = false;
  // Time parts of the window for the medians (see windowed()); a
  // release window is judged whole.
  size_t maxParts = kMaxParts;
  // First rung of the traced run's GET ladder, per second.
  double ladderStart = 0;
};

constexpr double kLadderP99LimitMs = 20.0;  // fixed SLO of the ladder
constexpr double kLadderRungS = 0.8;
constexpr double kLadderCachedShare = 0.10;
constexpr size_t kLadderConns = 4;
constexpr double kLadderFine = 1.05;  // rung step, finer than every bound
constexpr int kLadderCoarseRungs = 7;  // 1.05^7 ≈ 1.41 per coarse step
constexpr int kLadderMaxRung = 70;     // 1.05^70 ≈ 30× ladderStart

Workload workloadFor(const std::string& name) {
  Workload w;
  w.name = name;
  w.bed.edges = 1;
  w.bed.origins = 1;
  w.bed.appServers = 2;
  w.bed.brokers = 1;
  if (name == "api_steady") {
    w.bed.brokers = 0;
    w.bed.enableMqtt = false;
    w.getRate = 3000;
    w.cachedShare = 0.10;
    w.ladderStart = 1500;
  } else if (name == "upload_pubsub") {
    w.httpConns = 2;
    w.mqttSessions = 2;
    w.postRate = 1000;
    w.pubRate = 300;
    w.ladderStart = 1500;
  } else if (name == "rolling_release") {
    w.bed.edges = 2;
    w.bed.origins = 2;
    w.bed.appServers = 3;
    w.bed.enableQuic = true;
    w.l4 = true;
    w.setups = 3;
    w.httpConns = 1;
    w.pacedConn = true;
    w.mqttSessions = 1;
    w.quic = true;
    w.getRate = 200;
    w.pacedRate = 2;
    w.pubRate = 200;
    w.quicRate = 50;
    w.releaseInWindow = true;
    w.maxParts = 1;
    w.ladderStart = 1000;
  } else {
    usage("unknown workload " + name);
  }
  return w;
}

// Seeded generators for op arguments.
class Inputs {
 public:
  explicit Inputs(uint64_t seed) : rng_(seed) {
    // Zipf(1.0) over 4096 cacheable keys: four times the edge cache's
    // 1024 entries, so the cache hits the head and misses the tail.
    double sum = 0;
    for (int k = 1; k <= 4096; ++k) {
      sum += 1.0 / k;
      zipfCdf_.push_back(sum);
    }
    for (auto& c : zipfCdf_) {
      c /= sum;
    }
  }
  double exp(double rate) {
    return std::exponential_distribution<double>(rate)(rng_);
  }
  double uniform() { return std::uniform_real_distribution<double>()(rng_); }
  uint32_t zipfKey() {
    double u = uniform();
    return static_cast<uint32_t>(
        std::lower_bound(zipfCdf_.begin(), zipfCdf_.end(), u) -
        zipfCdf_.begin());
  }
  // Pareto(xm = 1 KiB, alpha = 1.2) body sizes, capped at 384 KiB.
  uint32_t bodyBytes() {
    double x = 1024.0 / std::pow(1.0 - uniform(), 1.0 / 1.2);
    return static_cast<uint32_t>(std::min(x, 384.0 * 1024));
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> zipfCdf_;
};

std::vector<Op> schedule(Inputs& in, const std::vector<Flow>& flows,
                         double seconds, double cachedShare,
                         uint64_t& nextId) {
  std::vector<Op> ops;
  for (const auto& f : flows) {
    if (f.rate <= 0) {
      continue;
    }
    double t = in.exp(f.rate);
    while (t < seconds) {
      Op op;
      op.kind = f.kind;
      op.stream = f.stream;
      op.intendedNs = static_cast<uint64_t>(t * 1e9);
      if (f.kind == OpKind::kGet && in.uniform() < cachedShare) {
        op.kind = OpKind::kCached;
        op.arg = in.zipfKey();
      } else if (f.kind == OpKind::kPost) {
        op.arg = in.bodyBytes();
      } else if (f.kind == OpKind::kPacedPost) {
        op.arg = 6;  // chunks: ~300 ms per upload
      }
      ops.push_back(op);
      t += in.exp(f.rate);
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.intendedNs < b.intendedNs;
  });
  for (auto& op : ops) {
    op.id = nextId++;
  }
  return ops;
}

// ----------------------------------------------------------------- fleet

std::string g_runDir;  // takeover sockets live here

struct Fleet {
  std::unique_ptr<core::Testbed> bed;
  std::unique_ptr<core::L4Host> l4;
  SocketAddr httpEntry;
  SocketAddr mqttEntry;
};

// The benchmark's L4 host fronts the edges (the testbed's own is not
// reachable from outside, and its loop must be for the CPU ledger).
std::unique_ptr<Fleet> buildFleet(const Workload& w) {
  auto f = std::make_unique<Fleet>();
  core::TestbedOptions o = w.bed;
  const std::string dir = g_runDir;
  o.proxyConfigHook = [dir](proxygen::Proxy::Config& cfg) {
    // Keep the takeover rendezvous socket inside the run directory.
    cfg.takeoverPath = dir + "/t" + std::to_string(::getpid()) + "-" +
                       std::to_string(cfg.instanceId) + ".sock";
  };
  f->bed = std::make_unique<core::Testbed>(o);
  f->httpEntry = f->bed->httpEntry();
  f->mqttEntry = f->bed->mqttEntry();
  if (w.l4) {
    // HTTP only: the L4 health checker probes GET /__health on the
    // backend address itself, which an edge's MQTT port cannot answer,
    // so an MQTT VIP never sees a healthy backend. MQTT sessions dial
    // edge 0 directly.
    f->l4 = std::make_unique<core::L4Host>("l4", &f->bed->metrics());
    std::vector<l4lb::BackendTarget> http;
    for (size_t i = 0; i < f->bed->edgeCount(); ++i) {
      auto& e = f->bed->edge(i);
      http.push_back({e.hostName(), e.httpVip()});
    }
    f->httpEntry = f->l4->addVip("http", std::move(http), {});
  }
  return f;
}

// Pins the calling thread to the given slots of the process's allowed
// CPUs (slot i = the i-th allowed CPU, modulo their count). Placement
// is fixed so run-to-run differences in where the scheduler happens to
// put communicating threads do not show up as CPU cost.
void pinCurrentThread(std::initializer_list<size_t> slots) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  if (cpus.size() < 4) {
    return;  // too few CPUs to give the generator its own
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t s : slots) {
    CPU_SET(cpus[s % cpus.size()], &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

// CPU the program used: the process's, less the generator thread's.
double programCpuSeconds(const OpenLoop& gen) {
  return processCpuSeconds() - gen.driverCpuSeconds();
}

// Slot 0 is the generator's; edges, origins and the rest of the fleet
// get one slot each.
void pinFleet(Fleet& f) {
  auto& bed = *f.bed;
  for (size_t i = 0; i < bed.edgeCount(); ++i) {
    bed.edge(i).withActiveProxy(
        [](proxygen::Proxy*) { pinCurrentThread({1}); });
  }
  for (size_t i = 0; i < bed.originCount(); ++i) {
    bed.origin(i).withActiveProxy(
        [](proxygen::Proxy*) { pinCurrentThread({1}); });
  }
  for (size_t i = 0; i < bed.appCount(); ++i) {
    bed.app(i).withServer([](appserver::AppServer*) { pinCurrentThread({1}); });
  }
  if (bed.options().brokers > 0) {
    bed.broker(0).withBroker([](mqtt::Broker&) { pinCurrentThread({1}); });
  }
  if (f.l4) {
    f.l4->withBalancer("http",
                       [](l4lb::L4Balancer&) { pinCurrentThread({1}); });
  }
}

void destroyFleet(std::unique_ptr<Fleet>& f) {
  if (f) {
    f->l4.reset();
    f->bed.reset();
    f.reset();
  }
}

// --------------------------------------------------------------- ledger

// Everything sampled at a window's edges. CPU is per tier: each host's
// loop thread, read on that thread.
struct Ledger {
  double process = 0;
  std::map<std::string, double> cpu;  // tier → seconds
  double genLoop = 0;
  std::map<std::string, double> reg;  // registry snapshot
  uint64_t readSys = 0, writeSys = 0, udpSys = 0, spliceSys = 0;
  uint64_t copied = 0, spliced = 0;
  uint64_t waitSys = 0, opSys = 0, timersArmed = 0;
  uint64_t mqttDrops = 0;
};

void addEngine(Ledger& l, const EngineSample& e) {
  l.waitSys += e.io.waitSyscalls;
  l.opSys += e.io.opSyscalls;
  l.timersArmed += e.timers.armed;
}

Ledger sample(Fleet& f, OpenLoop& gen) {
  Ledger l;
  auto& bed = *f.bed;
  for (size_t i = 0; i < bed.edgeCount(); ++i) {
    auto& h = bed.edge(i);
    l.cpu["edge"] += h.hostCpuSeconds();
    h.withActiveProxy(
        [&](proxygen::Proxy*) { addEngine(l, h.loop().engineSample()); });
  }
  for (size_t i = 0; i < bed.originCount(); ++i) {
    auto& h = bed.origin(i);
    l.cpu["origin"] += h.hostCpuSeconds();
    h.withActiveProxy(
        [&](proxygen::Proxy*) { addEngine(l, h.loop().engineSample()); });
  }
  for (size_t i = 0; i < bed.appCount(); ++i) {
    auto& h = bed.app(i);
    h.withServer([&](appserver::AppServer*) {
      l.cpu["app"] += threadCpuSeconds();
      addEngine(l, h.loop().engineSample());
    });
  }
  if (bed.options().brokers > 0) {
    bed.broker(0).withBroker(
        [&](mqtt::Broker&) { l.cpu["broker"] += threadCpuSeconds(); });
  }
  if (f.l4) {
    f.l4->withBalancer(
        "http", [&](l4lb::L4Balancer&) { l.cpu["l4"] += threadCpuSeconds(); });
  }
  l.genLoop = gen.driverCpuSeconds();
  l.mqttDrops = gen.mqttDrops();
  const auto& io = ioStats();
  l.readSys = io.totalReadSyscalls();
  l.writeSys = io.totalWriteSyscalls();
  l.udpSys = io.totalUdpSyscalls();
  l.spliceSys = io.spliceCalls.load();
  l.copied = io.copiedBytes();
  l.spliced = io.spliceBytes.load();
  l.reg = bed.metrics().snapshot();
  l.process = processCpuSeconds();
  return l;
}

double regDelta(const Ledger& a, const Ledger& b, const std::string& key) {
  auto get = [&key](const Ledger& l) {
    auto it = l.reg.find(key);
    return it == l.reg.end() ? 0.0 : it->second;
  };
  return get(b) - get(a);
}

// Σ over counters named <prefix>*<suffix>.
double regDeltaMatch(const Ledger& a, const Ledger& b,
                     const std::string& prefix, const std::string& suffix) {
  double sum = 0;
  for (const auto& [k, v] : b.reg) {
    if (k.size() >= prefix.size() + suffix.size() &&
        k.compare(0, prefix.size(), prefix) == 0 &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v - (a.reg.count(k) != 0 ? a.reg.at(k) : 0.0);
    }
  }
  return sum;
}

double regMaxMatch(const Ledger& l, const std::string& prefix,
                   const std::string& suffix) {
  double m = 0;
  for (const auto& [k, v] : l.reg) {
    if (k.size() >= prefix.size() + suffix.size() &&
        k.compare(0, prefix.size(), prefix) == 0 &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      m = std::max(m, v);
    }
  }
  return m;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // base of a ratio, sample count, …
};

class Report {
 public:
  void e2e(const std::string& n, double v, const std::string& u,
           const std::string& note = "") {
    e2e_.push_back({n, v, u, note});
  }
  void layer(const std::string& n, double v, const std::string& u,
             const std::string& note = "") {
    layer_.push_back({n, v, u, note});
  }
  void ratio(const std::string& n, const Ratio& r, const std::string& base) {
    std::ostringstream os;
    os << "base " << base << ": " << r.num << "/" << r.base;
    layer(n, r.value(), "ratio", os.str());
  }
  // Thread-safe: a rollout running beside the window may fail too.
  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(failMu_);
    failures_.push_back(why);
  }
  [[nodiscard]] bool failed() {
    std::lock_guard<std::mutex> lock(failMu_);
    return !failures_.empty();
  }

  void printLines() const {
    auto line = [](const char* kind, const Metric& m) {
      std::printf("%-6s %-40s %16.6f %-6s %s\n", kind, m.name.c_str(),
                  m.value, m.unit.c_str(), m.note.c_str());
    };
    for (const auto& m : e2e_) {
      line("e2e", m);
    }
    for (const auto& m : layer_) {
      line("layer", m);
    }
  }
  void printFailures() const {
    for (const auto& f : failures_) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
  }
  void printJson(bool layers, uint64_t attempted, uint64_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": true, \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    const auto& ms = layers ? layer_ : e2e_;
    for (size_t i = 0; i < ms.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", ms[i].value);
      os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
  }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::mutex failMu_;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------- provenance

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// TCP socket memory the kernel holds for this network namespace, KiB.
double kernelTcpMemKb() {
  std::ifstream in("/proc/net/sockstat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TCP:", 0) == 0) {
      auto pos = line.find(" mem ");
      if (pos != std::string::npos) {
        return std::stod(line.substr(pos + 5)) *
               static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
      }
    }
  }
  return 0;
}

void refuseKillSwitches() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZDR_", 4) == 0) {
      std::cerr << "zdr_perfbench: refusing to run with " << *e
                << " set: the benchmark measures the program's defaults\n";
      std::exit(2);
    }
  }
}

// ------------------------------------------------------------- the run

struct Latencies {
  std::vector<double> http;
  std::vector<double> publish;
  std::vector<double> late;
  size_t ok = 0;
  size_t failed = 0;
  size_t publishes = 0;  // completed publishes
  std::map<std::string, size_t> failedBy;
};

const char* kindName(OpKind k) {
  switch (k) {
    case OpKind::kGet:
      return "get";
    case OpKind::kCached:
      return "cached_get";
    case OpKind::kPost:
      return "post";
    case OpKind::kPacedPost:
      return "paced_post";
    case OpKind::kPublish:
      return "publish";
    case OpKind::kQuic:
      return "quic";
  }
  return "?";
}

Latencies collect(const std::vector<Op>& ops) {
  Latencies l;
  for (const auto& op : ops) {
    if (op.dispatchNs != 0) {
      l.late.push_back(latencyMs(op.intendedNs, op.dispatchNs));
    }
    if (op.state == OpState::kOk) {
      ++l.ok;
      double ms = latencyMs(op.intendedNs, op.doneNs);
      if (op.kind == OpKind::kPublish) {
        l.publish.push_back(ms);
        ++l.publishes;
      } else if (op.kind != OpKind::kQuic) {
        l.http.push_back(ms);
      }
    } else if (op.state == OpState::kFailed) {
      ++l.failed;
      ++l.failedBy[kindName(op.kind)];
    }
  }
  return l;
}

struct CodecTimes {
  double httpNsPerReq = 0;
  double chunkedNsPerKib = 0;
  double h2NsPerReq = 0;
  double mqttNsPerPublish = 0;
};

class Bench {
 public:
  Bench(const Args& args, Workload w)
      : args_(args), w_(std::move(w)), in_(args.seed) {}

  int run();

  struct Window {
    Ledger a, b;
    PhaseResult res;
    Latencies lat;
    std::vector<Op> ops;
    double releaseCpu = 0;
    double peakRssMb = 0;  // at the window's end
    // (ns, process CPU s excluding the generator thread)
    std::vector<std::pair<uint64_t, double>> cpuTrace;
  };

 private:
  void setup();
  void openStreams();
  std::vector<Flow> windowFlows() const;
  std::vector<Flow> ladderFlows(double rate) const;
  // One measured phase; checks accounting and (optionally) backlog.
  PhaseResult phase(std::vector<Op>& ops, const std::string& what,
                    bool checkBacklog, double rate);
  Window window(bool traced);
  double ladder();
  // A full edge → origin → app ZDR rollout; returns wall seconds.
  double release(double* cpuOut);
  void reportE2E(const Window& w);
  void reportLatency(const Window& w);
  void reportLayers(const Window& w0, const Window& w, const CodecTimes& ct,
                    const std::vector<SpanRec>& program,
                    const std::map<std::string, std::vector<double>>& hopUs,
                    size_t statsBytes, double statsParseUs);
  void printLedger(const Window& w);
  void writeSpans();
  void checkViolations();

  Args args_;
  Workload w_;
  Inputs in_;
  uint64_t nextId_ = 1;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<OpenLoop> gen_;
  EventLoopThread probe_{"bench-probe"};
  uint32_t httpStream_ = 0, pacedStream_ = 0, quicStream_ = 0;
  std::vector<uint32_t> mqttStreams_;
  std::vector<double> setupS_;
  Report rep_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  // Release bookkeeping (of the last rollout).
  std::vector<std::unique_ptr<TimedHost>> timedHosts_;
  std::unique_ptr<TimedStats> timedStats_;
  release::ReleaseControllerReport releaseReport_;
  std::vector<double> releaseS_;
  Ledger relA_, relB_;  // around whichever phase ran the rollout
};

void Bench::setup() {
  for (int i = 0; i < w_.setups; ++i) {
    destroyFleet(fleet_);
    uint64_t t0 = nowNs();
    fleet_ = buildFleet(w_);
    // Set-up ends at the first correct response through the chain.
    const std::string path = "/api/obj/setup-" + std::to_string(i);
    std::string body;
    bool ok = false;
    for (int attempt = 0; attempt < 200 && !ok; ++attempt) {
      ok = OpenLoop::fetch(probe_.loop(), fleet_->httpEntry, path, body) &&
           body == "ok:" + path;
      if (!ok) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (!ok) {
      throw std::runtime_error("setup: no correct response through the chain");
    }
    setupS_.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
}

void Bench::openStreams() {
  pinFleet(*fleet_);
  // The generator thread inherits slot 0 from its creator; everything
  // this thread starts later (controller, restarts, scrapes) stays off it.
  pinCurrentThread({0});
  gen_ = std::make_unique<OpenLoop>(&fleet_->bed->metrics());
  pinCurrentThread({2, 3});
  httpStream_ = gen_->addHttp(fleet_->httpEntry, w_.httpConns);
  if (w_.pacedConn) {
    pacedStream_ = gen_->addHttp(fleet_->httpEntry, 1);
  }
  for (size_t i = 0; i < w_.mqttSessions; ++i) {
    mqttStreams_.push_back(
        gen_->addMqtt(fleet_->mqttEntry, "bench-dev" + std::to_string(i)));
  }
  if (w_.quic) {
    quicStream_ =
        gen_->addQuic(fleet_->bed->edge(0).quicVip(), 0xbe7c000 + args_.seed);
  }
}

std::vector<Flow> Bench::windowFlows() const {
  std::vector<Flow> f;
  f.push_back({OpKind::kGet, httpStream_, w_.getRate});
  f.push_back({OpKind::kPost, httpStream_, w_.postRate});
  if (w_.pacedConn) {
    f.push_back({OpKind::kPacedPost, pacedStream_, w_.pacedRate});
  }
  for (uint32_t s : mqttStreams_) {
    f.push_back({OpKind::kPublish, s, w_.pubRate});
  }
  if (w_.quic) {
    f.push_back({OpKind::kQuic, quicStream_, w_.quicRate});
  }
  return f;
}

std::vector<Flow> Bench::ladderFlows(double rate) const {
  return {{OpKind::kGet, httpStream_, rate}};
}

PhaseResult Bench::phase(std::vector<Op>& ops, const std::string& what,
                         bool checkBacklog, double rate) {
  PhaseResult r = gen_->run(ops, 4000);
  if (r.finished != r.offered) {
    rep_.fail(what + ": " + std::to_string(r.offered - r.finished) + " of " +
              std::to_string(r.offered) +
              " offered operations neither completed nor failed");
  }
  // A backlog that keeps rising at a rate the ladder calls sustainable
  // means the harness (or the box) stalled: fail rather than report.
  if (checkBacklog && backlogGrowing(r.backlog, 16 + 0.05 * rate)) {
    rep_.fail(what + ": backlog kept growing (max " +
              std::to_string(r.backlogMax) + ")");
  }
  return r;
}

double Bench::release(double* cpuOut) {
  auto& bed = *fleet_->bed;
  std::vector<SocketAddr> entries;
  for (size_t i = 0; i < bed.edgeCount(); ++i) {
    entries.push_back(bed.httpEntry(i));
  }
  timedStats_ = std::make_unique<TimedStats>(entries);
  timedHosts_.clear();
  std::vector<release::StageSpec> stages;
  auto stage = [&](const std::string& tier,
                   std::vector<release::RestartableHost*> hosts) {
    release::StageSpec s;
    s.name = tier + "/bench";
    s.tier = tier;
    s.pop = "bench";
    for (auto* h : hosts) {
      timedHosts_.push_back(std::make_unique<TimedHost>(*h, tier));
      s.hosts.push_back(timedHosts_.back().get());
    }
    s.stats = timedStats_.get();
    s.signals.clientPrefixes = {"bench"};
    s.signals.latencyHist = "bench.latency_ms";
    s.batchFraction = 0.5;
    // Budgets wide open (see the SLO thresholds below).
    s.budget.maxClientErrors = 1e6;
    s.budget.maxShedRequests = 1e6;
    s.budget.maxMqttDrops = 1e6;
    s.budget.maxDrainStragglers = 1e6;
    stages.push_back(std::move(s));
  };
  stage("edge", bed.edgeHosts());
  stage("origin", bed.originHosts());
  stage("app", bed.appHosts());
  release::ReleaseControllerOptions o;
  o.strategy = release::Strategy::kZeroDowntime;
  o.metrics = &bed.metrics();
  // The controller still scrapes and judges every sample, but its gates
  // are opened so wide that only a collapse pauses or rolls back: the
  // benchmark times the rollout and counts the disruption it causes
  // (in `failed` and error_rate) instead of turning the first client
  // error into a rollback that ends the run.
  o.slo.errRateSoft = 0.2;
  o.slo.errRateHard = 0.5;
  o.slo.p99FloorMs = 1000.0;
  o.slo.shedRateSoft = 0.2;
  o.slo.shedRateHard = 0.5;
  o.slo.breakerTripsSoft = 1e6;
  o.slo.breakerTripsHard = 1e6;
  o.slo.drainStragglersSoft = 1e6;
  o.slo.drainStragglersHard = 1e6;
  o.slo.mqttDropsSoft = 1e6;
  o.slo.mqttDropsHard = 1e6;
  const double cpu0 = threadCpuSeconds();
  const uint64_t t0 = nowNs();
  releaseReport_ = release::ReleaseController(std::move(stages), o).run();
  const double s = static_cast<double>(nowNs() - t0) / 1e9;
  if (cpuOut != nullptr) {
    *cpuOut = threadCpuSeconds() - cpu0;
  }
  g_spans.close("release.rollout", t0);
  releaseS_.push_back(s);
  size_t hosts = bed.edgeCount() + bed.originCount() + bed.appCount();
  if (releaseReport_.outcome != release::RolloutOutcome::kCompleted ||
      releaseReport_.hostsReleased != hosts) {
    for (const auto& st : releaseReport_.stages) {
      for (const auto& d : st.decisions) {
        if (!d.reason.empty()) {
          std::fprintf(stderr, "release %s %s: %s\n", st.name.c_str(),
                       d.action.c_str(), d.reason.c_str());
        }
      }
    }
    rep_.fail(std::string("release ended ") +
              release::rolloutOutcomeName(releaseReport_.outcome) + " with " +
              std::to_string(releaseReport_.hostsReleased) + "/" +
              std::to_string(hosts) + " hosts released");
  }
  return s;
}

Bench::Window Bench::window(bool traced) {
  Window w;
  double secs = args_.seconds;
  w.ops = schedule(in_, windowFlows(), secs, w_.cachedShare, nextId_);
  w.a = sample(*fleet_, *gen_);
  std::thread rel;
  if (w_.releaseInWindow) {
    relA_ = w.a;
    rel = std::thread([this, &w] {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      release(&w.releaseCpu);
    });
  }
  std::atomic<bool> running{true};
  std::thread cpuSampler([&] {
    while (running.load()) {
      w.cpuTrace.emplace_back(nowNs(), programCpuSeconds(*gen_));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  w.res = phase(w.ops, traced ? "traced window" : "window", !w_.releaseInWindow,
                w_.getRate + w_.postRate);
  running = false;
  cpuSampler.join();
  if (rel.joinable()) {
    rel.join();
  }
  w.b = sample(*fleet_, *gen_);
  if (w_.releaseInWindow) {
    relB_ = w.b;
  }
  w.lat = collect(w.ops);
  w.peakRssMb = peakRssMb();
  attempted_ += w.ops.size();
  failed_ += w.lat.failed;
  return w;
}

double Bench::ladder() {
  // One rung: the main stream's mix at `rate` for kLadderRungS. A rung
  // that misses is run once more before it counts as over: a single
  // scheduler stall on a shared box must not read as the knee.
  auto rung = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::vector<Op> ops = schedule(in_, ladderFlows(rate), kLadderRungS,
                                     kLadderCachedShare, nextId_);
      PhaseResult r = gen_->run(ops, 4000);
      Latencies l = collect(ops);
      // p99 as the window reports it when the rung has the samples,
      // else the highest percentile that keeps 10 samples beyond it.
      LatencySummary s = summarize(l.http);
      WindowedLatency wl = windowed(l.http);
      if (wl.valid()) {
        s.tailQ = 0.99;
        s.tail = wl.p99;
      }
      bool ok = r.finished == r.offered && l.failed == 0 && s.tailQ > 0 &&
                s.tail <= kLadderP99LimitMs &&
                !backlogGrowing(r.backlog, 8 + 0.01 * rate);
      std::printf(
          "ladder %-10.1f ops %-6zu tail p%-5g %9.3f ms backlog_max %6.0f %s\n",
          rate, ops.size(), s.tailQ * 100, s.tail, r.backlogMax,
          ok ? "ok" : "over");
      if (ok) {
        return true;
      }
    }
    return false;
  };
  // Rungs sit at ladderStart * kLadderFine^k. Coarse steps of
  // kLadderCoarseRungs rungs bracket the knee, then bisection finds the
  // highest passing rung inside the bracket.
  int lo = -1;
  int hi = -1;
  auto rateAt = [&](int k) {
    return w_.ladderStart * std::pow(kLadderFine, k);
  };
  for (int k = 0; k <= kLadderMaxRung; k += kLadderCoarseRungs) {
    if (!rung(rateAt(k))) {
      hi = k;
      break;
    }
    lo = k;
  }
  if (lo < 0) {
    rep_.fail("ladder: the first rung, " + std::to_string(w_.ladderStart) +
              "/s, is not sustainable");
    return w_.ladderStart;
  }
  if (hi < 0) {
    rep_.fail("ladder: no rung up to " + std::to_string(rateAt(lo)) +
              "/s missed the limit; the ladder does not reach the knee");
    return rateAt(lo);
  }
  while (hi - lo > 1) {
    int mid = (lo + hi) / 2;
    (rung(rateAt(mid)) ? lo : hi) = mid;
  }
  return rateAt(lo);
}

void Bench::checkViolations() {
  Violations v = gen_->violations();
  if (v.wrongEcho != 0) {
    rep_.fail(std::to_string(v.wrongEcho) +
              " responses did not echo their path");
  }
  if (v.status379 != 0) {
    rep_.fail(std::to_string(v.status379) +
              " responses with status 379 reached a client");
  }
  if (v.mqttOrder != 0) {
    rep_.fail(std::to_string(v.mqttOrder) +
              " MQTT deliveries were duplicated or out of order");
  }
  if (v.quicExtraAcks != 0) {
    rep_.fail(std::to_string(v.quicExtraAcks) +
              " quicish acks beyond datagrams sent");
  }
}

// Times each layer's codec on the window's own requests and responses
// (the first HTTP ops of the window, cycled), one span per layer.
CodecTimes timeCodecs(const std::vector<Op>& ops) {
  std::vector<std::pair<http::Request, http::Response>> pairs;
  for (const auto& op : ops) {
    if (op.kind == OpKind::kGet || op.kind == OpKind::kCached ||
        op.kind == OpKind::kPost) {
      auto req = requestFor(op);
      req.headers.set("Host", "testbed");
      http::Response res;
      res.body = "ok:" + req.path;
      pairs.emplace_back(std::move(req), std::move(res));
      if (pairs.size() == 256) {
        break;
      }
    }
  }
  CodecTimes t;
  constexpr int kIters = 2000;
  if (!pairs.empty()) {
    uint64_t t0 = nowNs();
    size_t sink = 0;
    for (int i = 0; i < kIters; ++i) {
      const auto& [req, res] = pairs[i % pairs.size()];
      Buffer b;
      http::serialize(req, b);
      http::RequestParser rp;
      rp.feed(b);
      Buffer rb;
      http::serialize(res, rb);
      http::ResponseParser sp;
      sp.feed(rb);
      sink += rp.message().path.size() + sp.message().body.size();
    }
    t.httpNsPerReq = static_cast<double>(nowNs() - t0) / kIters;
    g_spans.close("codec.http", t0);

    t0 = nowNs();
    for (int i = 0; i < kIters; ++i) {
      const auto& [req, res] = pairs[i % pairs.size()];
      h2::HeaderList hl{{":method", req.method}, {":path", req.path}};
      for (const auto& [k, v] : req.headers.all()) {
        hl.emplace_back(k, v);
      }
      Buffer b;
      h2::Frame f;
      f.type = h2::FrameType::kHeaders;
      f.streamId = 1;
      f.payload = h2::encodeHeaderBlock(hl);
      h2::encodeFrame(f, b);
      h2::Frame d;
      d.type = h2::FrameType::kData;
      d.flags = h2::kFlagEndStream;
      d.streamId = 1;
      d.payload = res.body;
      f.payload = h2::encodeHeaderBlock({{":status", "200"}});
      h2::encodeFrame(f, b);
      h2::encodeFrame(d, b);
      bool bad = false;
      while (auto fr = h2::decodeFrame(b, bad)) {
        if (fr->type == h2::FrameType::kHeaders) {
          sink += h2::decodeHeaderBlock(fr->payload)->size();
        }
      }
    }
    t.h2NsPerReq = static_cast<double>(nowNs() - t0) / kIters;
    g_spans.close("codec.h2", t0);
    if (sink == 0) {
      std::printf("codec: empty\n");  // keeps the loops observable
    }
  }
  {
    http::Request req;
    req.method = "POST";
    req.path = "/upload/chunked";
    req.headers.set("Transfer-Encoding", "chunked");
    const std::string body(64 * 1024, 'c');
    uint64_t t0 = nowNs();
    constexpr int kChunkIters = 200;
    for (int i = 0; i < kChunkIters; ++i) {
      Buffer framed;
      for (size_t off = 0; off < body.size(); off += 16384) {
        http::appendChunk(framed, std::string_view(body).substr(off, 16384));
      }
      http::appendFinalChunk(framed);
      Buffer b;
      http::serializeHead(req, b);
      b.append(framed.view());
      http::RequestParser rp;
      rp.feed(b);
      if (!rp.messageComplete()) {
        std::printf("codec: chunked parse incomplete\n");
      }
    }
    t.chunkedNsPerKib =
        static_cast<double>(nowNs() - t0) / kChunkIters / 64.0;
    g_spans.close("codec.http_chunked", t0);
  }
  {
    mqtt::Packet p;
    p.type = mqtt::PacketType::kPublish;
    p.topic = "bench/bench-dev0";
    uint64_t t0 = nowNs();
    for (int i = 0; i < kIters; ++i) {
      p.payload = std::to_string(1000000 + i);
      Buffer b;
      mqtt::encode(p, b);
      bool bad = false;
      auto back = mqtt::decode(b, bad);
      if (!back || back->payload != p.payload) {
        std::printf("codec: mqtt round trip failed\n");
      }
    }
    t.mqttNsPerPublish = static_cast<double>(nowNs() - t0) / kIters;
    g_spans.close("codec.mqtt", t0);
  }
  return t;
}

// Program spans from one /__trace capture.
std::vector<SpanRec> parseTraceCapture(
    const std::string& body,
    std::map<std::string, std::vector<double>>& hopUs) {
  std::vector<SpanRec> out;
  auto doc = jsonlite::Parser::parse(body);
  for (const auto& [sink, v] : doc.at("spans").fields) {
    for (const auto& sp : v->at("spans").items) {
      SpanRec s;
      s.traceId = sp->at("trace_id").asU64();
      s.spanId = sp->at("span_id").asU64();
      s.parentId = sp->at("parent_id").asU64();
      const std::string kind = sp->at("kind").str;
      s.startNs = sp->at("start_ns").asU64();
      s.endNs = sp->at("end_ns").asU64();
      s.layer = kind.rfind("edge.", 0) == 0     ? "proxygen.edge"
                : kind.rfind("origin.", 0) == 0 ? "proxygen.origin"
                                                : "appserver";
      if (s.endNs >= s.startNs) {
        hopUs[kind].push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
      }
      out.push_back(s);
    }
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantileSorted(v, 0.5);
}

// The program's CPU (the process's, less the generator thread's) per
// completed op in each of `parts` equal time slices of the window, CPU
// interpolated from the sampler's trace; the median.
double windowedCpuUsPerOp(const Bench::Window& w, size_t parts) {
  if (w.ops.empty() || w.cpuTrace.size() < 2 || parts == 0) {
    return 0;
  }
  const uint64_t t0 = w.ops.front().intendedNs;
  const uint64_t t1 = w.ops.back().intendedNs;
  auto cpuAt = [&w](uint64_t t) {
    const auto& tr = w.cpuTrace;
    auto it = std::lower_bound(tr.begin(), tr.end(), std::make_pair(t, 0.0));
    if (it == tr.begin()) {
      return it->second;
    }
    if (it == tr.end()) {
      return tr.back().second;
    }
    auto prev = std::prev(it);
    double f = static_cast<double>(t - prev->first) /
               static_cast<double>(it->first - prev->first);
    return prev->second + f * (it->second - prev->second);
  };
  std::vector<double> perOp;
  for (size_t i = 0; i < parts; ++i) {
    uint64_t a = t0 + (t1 - t0) * i / parts;
    uint64_t b = t0 + (t1 - t0) * (i + 1) / parts;
    size_t done = 0;
    for (const auto& op : w.ops) {
      done += op.state == OpState::kOk && op.doneNs >= a && op.doneNs < b;
    }
    if (done > 0) {
      perOp.push_back((cpuAt(b) - cpuAt(a)) * 1e6 / static_cast<double>(done));
    }
  }
  return median(perOp);
}

void Bench::reportE2E(const Window& w) {
  std::sort(setupS_.begin(), setupS_.end());
  rep_.e2e("setup_s", quantileSorted(setupS_, 0.5), "s",
           "median of " + std::to_string(setupS_.size()) + " set-ups");
  const size_t parts = windowed(w.lat.http, w_.maxParts).parts;
  const double whole =
      ((w.b.process - w.a.process) - (w.b.genLoop - w.a.genLoop)) * 1e6 /
      static_cast<double>(w.lat.ok);
  rep_.e2e("cpu_us_per_req", windowedCpuUsPerOp(w, parts), "us",
           "process CPU less the generator's / completed ops, median of " +
               std::to_string(parts) + " time parts (whole window: " +
               std::to_string(whole) + ")");
  rep_.e2e("rss_mb", w.peakRssMb, "MB",
           "peak through the window; kernel TCP socket memory " +
               std::to_string(kernelTcpMemKb()) + " KiB");
  rep_.e2e("release_s", median(releaseS_), "s",
           w_.releaseInWindow ? "rollout under the window's traffic"
                              : "rollout of the idle fleet after the window");
}

// Latency of the (untraced) window. Printed on every run; a per-layer
// metric rather than an end-to-end one, because on a shared VM its
// run-to-run spread is wider than any bound a comparison could use.
void Bench::reportLatency(const Window& w) {
  WindowedLatency h = windowed(w.lat.http, w_.maxParts);
  if (!h.valid()) {
    rep_.fail("window: " + std::to_string(h.n) +
              " request samples, fewer than " +
              std::to_string(kMinPartSamples) + " (10 beyond p99)");
  }
  std::string n = "n=" + std::to_string(h.n) + " in " +
                  std::to_string(h.parts) + " parts, median of part p50/p99";
  rep_.layer("latency.p50_ms", h.p50, "ms", n);
  rep_.layer("latency.p99_ms", h.p99, "ms", n);
  WindowedLatency p = windowed(w.lat.publish, w_.maxParts);
  if (w_.mqttSessions > 0 && !p.valid()) {
    rep_.fail("publishes: " + std::to_string(p.n) + " samples, fewer than " +
              std::to_string(kMinPartSamples));
  }
  rep_.layer("latency.publish_p99_ms", p.p99, "ms",
             w_.mqttSessions > 0 ? "n=" + std::to_string(p.n) + " in " +
                                       std::to_string(p.parts) + " parts"
                                 : "no MQTT in this window");
}

void Bench::reportLayers(
    const Window& w0, const Window& w, const CodecTimes& ct,
    const std::vector<SpanRec>& program,
    const std::map<std::string, std::vector<double>>& hopUs,
    size_t statsBytes, double statsParseUs) {
  const Ledger& a = w.a;
  const Ledger& b = w.b;
  const double ops = static_cast<double>(w.lat.ok);
  auto perOp = [ops](double x) { return ops > 0 ? x / ops : 0.0; };
  auto perOpU = [&perOp](uint64_t x0, uint64_t x1) {
    return perOp(static_cast<double>(x1 - x0));
  };
  auto cpu = [&](const std::string& tier) {
    auto get = [&tier](const Ledger& l) {
      auto it = l.cpu.find(tier);
      return it == l.cpu.end() ? 0.0 : it->second;
    };
    return get(b) - get(a);
  };
  // Counter deltas over the window, and over the phase that ran the
  // rollout (the same window on rolling_release).
  auto win = [&](const std::string& c) {
    return regDelta(a, b, "counter." + c);
  };
  auto rel = [this](const std::string& c) {
    return regDelta(relA_, relB_, "counter." + c);
  };
  auto relSum = [this](const std::string& prefix, const std::string& suffix) {
    return regDeltaMatch(relA_, relB_, "counter." + prefix, suffix);
  };
  auto L = [this](const std::string& n, double v, const std::string& unit,
                  const std::string& note = "") {
    rep_.layer(n, v, unit, note);
  };
  const std::string perReq =
      "per completed op (" + std::to_string(w.lat.ok) + ")";
  const std::string rollout = "during the rollout";

  // loadgen
  std::vector<double> late = w.lat.late;
  std::sort(late.begin(), late.end());
  L("loadgen.late_p99_ms", quantileSorted(late, 0.99), "ms",
    "dispatch - intended, n=" + std::to_string(late.size()));
  L("loadgen.backlog_max", w.res.backlogMax, "count");
  const double genCpu = b.genLoop - a.genLoop;
  L("loadgen.cpu_us_per_req", perOp(genCpu * 1e6), "us",
    "the generator thread (busy-polls one CPU), " + perReq);

  // netcore
  const uint64_t sys0 = a.readSys + a.writeSys + a.udpSys + a.spliceSys +
                        a.waitSys + a.opSys;
  const uint64_t sys1 = b.readSys + b.writeSys + b.udpSys + b.spliceSys +
                        b.waitSys + b.opSys;
  L("netcore.syscalls_per_req", perOpU(sys0, sys1), "count",
    "socket I/O + splice + loop waits + emulated ops, " + perReq);
  L("netcore.write_syscalls_per_req", perOpU(a.writeSys, b.writeSys),
    "count", perReq);
  L("netcore.wait_syscalls_per_req", perOpU(a.waitSys, b.waitSys), "count",
    "edge, origin and app loops, " + perReq);
  L("netcore.timers_armed_per_req", perOpU(a.timersArmed, b.timersArmed),
    "count", perReq);
  L("netcore.copy_bytes_per_req", perOpU(a.copied, b.copied), "B", perReq);
  const double spliced = static_cast<double>(b.spliced - a.spliced);
  rep_.ratio("netcore.splice_share",
             {spliced, spliced + static_cast<double>(b.copied - a.copied)},
             "bytes moved (spliced + through userspace)");
  L("netcore.kernel_tcp_mem_kb", kernelTcpMemKb(), "KiB",
    "/proc/net/sockstat at the end");

  // http, h2
  L("http.parse_ns_per_req", ct.httpNsPerReq, "ns",
    "serialize+parse of request and response");
  L("http.chunked_ns_per_kib", ct.chunkedNsPerKib, "ns",
    "64 KiB body in 16 KiB chunks");
  L("h2.frame_ns_per_req", ct.h2NsPerReq, "ns",
    "HEADERS both ways + DATA, encode+decode");
  L("h2.goaways", rel("edge.trunk_goaway_received"), "count", rollout);
  L("h2.trunks_redialed", rel("edge.trunk_established"), "count", rollout);

  // proxygen
  L("proxygen.edge.cpu_us_per_req", perOp(cpu("edge") * 1e6), "us", perReq);
  L("proxygen.origin.cpu_us_per_req", perOp(cpu("origin") * 1e6), "us",
    perReq);
  L("proxygen.edge.request_us_p50",
    regMaxMatch(b, "hdr.edge0.", ".request_us.p50"), "us", "edge0, cumulative");
  L("proxygen.edge.request_us_p99",
    regMaxMatch(b, "hdr.edge0.", ".request_us.p99"), "us", "edge0, cumulative");
  auto hop = [&hopUs](const std::string& kind) {
    auto it = hopUs.find(kind);
    return it == hopUs.end() ? 0.0 : median(it->second);
  };
  const std::string span = "median span, /__trace";
  L("proxygen.hop.edge_local_us", hop("edge.local"), "us", span);
  L("proxygen.hop.trunk_wait_us", hop("edge.trunk_wait"), "us", span);
  L("proxygen.hop.origin_app_attempt_us", hop("origin.app_attempt"), "us",
    span);
  const double hit = win("edge.cache_hit");
  rep_.ratio("proxygen.edge.cache_hit_ratio",
             {hit, hit + win("edge.cache_miss")}, "cacheable requests");
  const double poolHit = rel("pool.hits");
  rep_.ratio("proxygen.pool_hit_ratio",
             {poolHit, poolHit + rel("pool.misses")},
             "origin app-connection acquisitions during the rollout");
  L("proxygen.dispatch_retries_per_req", perOp(win("edge.dispatch_retries")),
    "count", perReq);
  const double replays = relSum("origin", ".ppr_replays");
  L("proxygen.ppr_replays", replays, "count", rollout);
  rep_.ratio("proxygen.ppr_replay_ok_ratio",
             {replays, relSum("origin", ".ppr_379_received")},
             "379s received by origins");
  L("proxygen.ppr_retries_exhausted",
    relSum("origin", ".ppr_retries_exhausted"), "count", rollout);
  rep_.ratio("proxygen.dcr_resumed_ratio",
             {rel("edge.dcr_resumed"),
              relSum("origin", ".dcr_solicitations_sent")},
             "reconnect solicitations sent by origins");

  // appserver
  L("appserver.cpu_us_per_req", perOp(cpu("app") * 1e6), "us", perReq);
  L("appserver.handle_us_p99", regMaxMatch(b, "hdr.app", ".handle_us.p99"),
    "us", "max over apps, cumulative");
  std::vector<double> appMs;
  std::vector<double> proxyMs;
  for (const auto& h : timedHosts_) {
    auto ms = h->restartMs();
    auto& into = h->tier() == "app" ? appMs : proxyMs;
    into.insert(into.end(), ms.begin(), ms.end());
  }
  L("appserver.restart_ms", median(appMs), "ms",
    "median, n=" + std::to_string(appMs.size()));

  // mqtt
  const double pubs = static_cast<double>(w.lat.publishes);
  L("mqtt.codec_ns_per_publish", ct.mqttNsPerPublish, "ns", "encode+decode");
  L("mqtt.broker_cpu_us_per_publish",
    pubs > 0 ? cpu("broker") * 1e6 / pubs : 0.0, "us",
    "per delivered publish (" + std::to_string(w.lat.publishes) + ")");
  L("mqtt.session_drops",
    static_cast<double>(relB_.mqttDrops - relA_.mqttDrops), "count",
    "client-seen, " + rollout);
  L("mqtt.session_resumed", rel("broker.connect_resumed"), "count", rollout);

  // takeover
  std::sort(proxyMs.begin(), proxyMs.end());
  L("takeover.restart_ms_p50", quantileSorted(proxyMs, 0.5), "ms",
    "edge+origin, n=" + std::to_string(proxyMs.size()));
  L("takeover.restart_ms_max", proxyMs.empty() ? 0.0 : proxyMs.back(), "ms");
  L("takeover.fds_adopted", relSum("", ".ring_adopted_fds"), "count");
  L("takeover.failed", relSum("", ".takeover_failed"), "count");
  rep_.ratio("takeover.drain_early_exit_ratio",
             {relSum("edge", ".drain_early_exit") +
                  relSum("origin", ".drain_early_exit"),
              relSum("", ".zdr_restarts")},
             "ZDR restarts");
  L("takeover.forced_closes", rel("release.drain_forced_closes"), "count");

  // release
  std::vector<double> scr =
      timedStats_ ? timedStats_->ms() : std::vector<double>{};
  std::sort(scr.begin(), scr.end());
  const std::string nScr = "n=" + std::to_string(scr.size());
  L("release.scrape_ms_p50", quantileSorted(scr, 0.5), "ms", nScr);
  L("release.scrape_ms_p99", quantileSorted(scr, 0.99), "ms", nScr);
  L("release.scrape_failures",
    timedStats_ ? static_cast<double>(timedStats_->failures()) : 0.0, "count");
  for (const char* tier : {"edge", "origin", "app"}) {
    double s = 0;
    for (const auto& st : releaseReport_.stages) {
      s += st.tier == tier ? st.seconds : 0.0;
    }
    L(std::string("release.stage_s.") + tier, s, "s");
  }

  // metrics
  L("metrics.stats_bytes", static_cast<double>(statsBytes), "B",
    "one /__stats body");
  L("metrics.stats_parse_us", statsParseUs, "us",
    "json_lite parse, median of 5");
  auto programCpuPerOp = [](const Window& x) {
    return ((x.b.process - x.a.process) - (x.b.genLoop - x.a.genLoop)) * 1e6 /
           static_cast<double>(std::max<size_t>(x.lat.ok, 1));
  };
  L("metrics.trace_overhead", programCpuPerOp(w) - programCpuPerOp(w0), "us",
    "traced - untraced window, CPU less the generator's per op");

  // l4lb, quicish
  L("l4lb.cpu_us_per_req", perOp(cpu("l4") * 1e6), "us", perReq);
  L("l4lb.hc_transitions", rel("l4.hc_transitions"), "count", rollout);
  uint64_t qs = 0;
  uint64_t qa = 0;
  uint64_t qr = 0;
  gen_->quicCounts(qs, qa, qr);
  rep_.ratio("quicish.ack_ratio",
             {static_cast<double>(qa), static_cast<double>(qs)},
             "datagrams sent");
  L("quicish.resets", static_cast<double>(qr), "count");

  // ledger reconciliation
  double tiers = genCpu + w.releaseCpu;
  for (const auto& [tier, s] : b.cpu) {
    (void)s;
    tiers += cpu(tier);
  }
  const double proc = b.process - a.process;
  L("cpu.unattributed_share", proc > 0 ? 1.0 - tiers / proc : 0.0, "ratio",
    "base: process CPU " + std::to_string(proc) + " s");

  // Self time from the span trees joined on the operations' trace ids.
  std::set<uint64_t> traced;
  for (const auto& op : w.ops) {
    if (op.traceId != 0 && op.state == OpState::kOk) {
      traced.insert(op.traceId);
    }
  }
  std::vector<SpanRec> spans;
  std::set<uint64_t> joined;
  for (const auto& s : program) {
    if (traced.count(s.traceId) != 0) {
      spans.push_back(s);
      joined.insert(s.traceId);
    }
  }
  for (const auto& op : w.ops) {
    if (joined.count(op.traceId) != 0) {
      spans.push_back({op.traceId, op.spanId, 0, "loadgen.client",
                       op.intendedNs, op.doneNs});
      spans.push_back({op.traceId, trace::newId(), op.spanId, "loadgen.queue",
                       op.intendedNs, op.sentNs});
    }
  }
  for (const auto& s : spans) {
    g_spans.add(s);
  }
  auto self = selfTimeByLayer(spans);
  const double nj = static_cast<double>(joined.size());
  for (const char* layer : {"loadgen.queue", "loadgen.client", "proxygen.edge",
                            "proxygen.origin", "appserver"}) {
    L(std::string("self_us.") + layer, nj > 0 ? self[layer] / 1e3 / nj : 0.0,
      "us", "per joined op (" + std::to_string(joined.size()) + ")");
  }
  const double attempted = static_cast<double>(w.lat.failed + w.lat.ok);
  L("error_rate",
    attempted > 0 ? static_cast<double>(w.lat.failed) / attempted : 0.0,
    "ratio", "base: traced window ops");
}

void Bench::printLedger(const Window& w) {
  const double ops = static_cast<double>(std::max<size_t>(w.lat.ok, 1));
  const double proc = w.b.process - w.a.process;
  std::printf("ledger %-12s %12s %8s\n", "tier", "cpu_us/op", "share");
  auto row = [&](const std::string& t, double s) {
    std::printf("ledger %-12s %12.3f %8.3f\n", t.c_str(), s * 1e6 / ops,
                proc > 0 ? s / proc : 0.0);
  };
  double sum = 0;
  double gen = w.b.genLoop - w.a.genLoop;
  row("loadgen", gen);
  sum += gen;
  for (const auto& [tier, s] : w.b.cpu) {
    double d = s - (w.a.cpu.count(tier) ? w.a.cpu.at(tier) : 0.0);
    row(tier, d);
    sum += d;
  }
  if (w.releaseCpu > 0) {
    row("controller", w.releaseCpu);
    sum += w.releaseCpu;
  }
  row("unattributed", proc - sum);
  row("process", proc);
}

int Bench::run() {
  setup();
  openStreams();
  {
    // Warm-up: connections open, caches fill, lazy set-up finishes.
    std::vector<Op> warm =
        schedule(in_, windowFlows(), 0.5, w_.cachedShare, nextId_);
    gen_->run(warm, 4000);
  }
  Window w0 = window(false);
  Window w1;
  if (args_.trace) {
    g_spans.enable();
    gen_->setTracing(true);
    w1 = window(true);
    gen_->setTracing(false);
  }
  const Window& wm = args_.trace ? w1 : w0;

  failed_ += gen_->settleUndelivered();
  // Traced run: codec timings, one /__stats body and the /__trace
  // capture, taken before the ladder's traffic overwrites the program's
  // span rings; then the ladder.
  CodecTimes ct;
  std::string statsBody;
  std::vector<double> parseUs;
  std::map<std::string, std::vector<double>> hopUs;
  std::vector<SpanRec> program;
  if (args_.trace) {
    ct = timeCodecs(wm.ops);
    const SocketAddr edge0 = fleet_->bed->httpEntry(0);
    if (!OpenLoop::fetch(probe_.loop(), edge0, "/__stats", statsBody)) {
      rep_.fail("GET /__stats failed");
    }
    for (int i = 0; i < 5; ++i) {
      uint64_t t0 = nowNs();
      auto doc = jsonlite::Parser::parse(statsBody);
      parseUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      g_spans.close("metrics.stats_parse", t0);
    }
    std::string traceBody;
    if (!OpenLoop::fetch(probe_.loop(), edge0, "/__trace?spans=all",
                         traceBody, 20000)) {
      rep_.fail("GET /__trace failed");
    } else {
      program = parseTraceCapture(traceBody, hopUs);
    }
    // Every workload's ladder drives the same four fresh keep-alive
    // connections, so the knee is one yardstick across fleets.
    gen_->closeStreams();
    httpStream_ = gen_->addHttp(fleet_->httpEntry, kLadderConns);
    const double slo = ladder();
    rep_.layer("ladder.slo_rps", slo, "1/s",
               "GET mix: highest ladder rung with p99 <= " +
                   std::to_string(kLadderP99LimitMs) +
                   " ms, no failure, no growing backlog");
  }
  if (!w_.releaseInWindow) {
    relA_ = sample(*fleet_, *gen_);
    release(nullptr);
    relB_ = sample(*fleet_, *gen_);
  }
  checkViolations();
  if (args_.trace) {
    reportLayers(w0, wm, ct, program, hopUs, statsBody.size(),
                 median(parseUs));
  }
  reportLatency(w0);
  if (!args_.trace) {
    reportE2E(w0);
  }

  std::printf("provenance workload %s seed %llu seconds %d trace %d\n",
              w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0);
  utsname u{};
  ::uname(&u);
  std::printf("provenance backend %s timer %s kernel %s nproc %u build %s\n",
              gen_->loop().backendName(), gen_->loop().timerImplName(),
              u.release, std::thread::hardware_concurrency(),
              ZDRBENCH_BUILD_TYPE);
  std::printf("ops attempted %llu failed %llu (window:",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const auto& [k, n] : w0.lat.failedBy) {
    std::printf(" %s=%zu", k.c_str(), n);
  }
  std::printf(")\n");
  printLedger(wm);
  if (rep_.failed()) {
    rep_.printFailures();
    return 1;
  }
  rep_.printLines();
  if (args_.trace) {
    writeSpans();
  }
  rep_.printJson(args_.trace, attempted_, failed_);
  return 0;
}

void Bench::writeSpans() {
  const std::string path = args_.outDir + "/spans-" + w_.name + "-seed" +
                           std::to_string(args_.seed) + ".json";
  std::ofstream out(path);
  out << "[";
  auto spans = g_spans.all();
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"trace_id\": " << s.traceId
        << ", \"span_id\": " << s.spanId << ", \"parent_id\": " << s.parentId
        << ", \"layer\": \"" << s.layer << "\", \"start_ns\": " << s.startNs
        << ", \"end_ns\": " << s.endNs << "}";
  }
  out << "\n]\n";
  std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  refuseKillSwitches();
  Args args = parseArgs(argc, argv);
  Workload w = workloadFor(args.workload);
  g_runDir = args.outDir;
  ::mkdir(g_runDir.c_str(), 0755);
  try {
    Bench b(args, w);
    return b.run();
  } catch (const std::exception& e) {
    std::cerr << "zdr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
