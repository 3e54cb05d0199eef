#include "release/release_controller.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "http/client.h"
#include "metrics/json_lite.h"

namespace zdr::release {

// ---------------------------------------------------------------------------
// HttpStatsSource

HttpStatsSource::HttpStatsSource(std::vector<SocketAddr> entries,
                                 Duration timeout)
    : entries_(std::move(entries)), timeout_(timeout), thread_("scraper") {}

HttpStatsSource::~HttpStatsSource() {
  if (client_) {
    auto client = client_;
    thread_.runSync([client] { client->close(); });
  }
}

std::string HttpStatsSource::describe() const {
  std::string out = "http:";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += (i ? "," : "") + entries_[i].str();
  }
  return out;
}

bool HttpStatsSource::scrapeOne(const SocketAddr& entry,
                                stats::StatsSnapshot& out, std::string& err) {
  // The callback may outlive this frame if the loop is slow to cancel
  // the request; shared state keeps the rendezvous safe either way.
  struct Rendezvous {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    http::Client::Result result;
  };
  auto rv = std::make_shared<Rendezvous>();

  // Keep-alive: reuse the cached client while the entry is unchanged;
  // a scrape every ~100 ms must not open a fresh connection each time.
  if (!client_ || !(clientEntry_ == entry)) {
    auto old = client_;
    thread_.runSync([&, old] {
      if (old) {
        old->close();
      }
      client_ = http::Client::make(thread_.loop(), entry);
    });
    clientEntry_ = entry;
  }
  auto client = client_;
  thread_.runSync([client, rv, this] {
    http::Request req;
    req.method = "GET";
    req.path = "/__stats";
    client->request(
        std::move(req),
        [rv](http::Client::Result r) {
          std::lock_guard<std::mutex> lock(rv->m);
          rv->result = std::move(r);
          rv->done = true;
          rv->cv.notify_all();
        },
        timeout_);
  });
  {
    std::unique_lock<std::mutex> lock(rv->m);
    // The client's own timer bounds the request; the extra slack only
    // guards against a wedged loop thread.
    rv->cv.wait_for(lock, timeout_ + Duration{2000},
                    [&] { return rv->done; });
    if (!rv->done) {
      err = "scrape rendezvous timed out (" + entry.str() + ")";
      return false;
    }
  }
  const auto& r = rv->result;
  if (!r.ok) {
    if (r.timedOut) {
      err = "scrape timed out (" + entry.str() + ")";
    } else if (r.transportError) {
      err = "scrape transport error (" + entry.str() +
            "): " + r.transportError.message();
    } else {
      err = "scrape HTTP " + std::to_string(r.response.status) + " (" +
            entry.str() + ")";
    }
    // Whatever state the connection is in, don't trust it again.
    auto stale = client_;
    thread_.runSync([stale] { stale->close(); });
    client_.reset();
    return false;
  }
  try {
    out = stats::parseStatsSnapshot(r.response.body);
  } catch (const std::exception& e) {
    err = std::string("scrape parse error: ") + e.what();
    return false;
  }
  return true;
}

bool HttpStatsSource::scrape(stats::StatsSnapshot& out, std::string& err) {
  // Start from whoever answered last; a restarting edge should cost at
  // most one failover hop, not a failure.
  std::string firstErr;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t idx = (preferred_ + i) % entries_.size();
    std::string thisErr;
    if (scrapeOne(entries_[idx], out, thisErr)) {
      preferred_ = idx;
      return true;
    }
    if (firstErr.empty()) {
      firstErr = thisErr;
    }
  }
  err = firstErr.empty() ? "no stats entries configured" : firstErr;
  return false;
}

// ---------------------------------------------------------------------------
// Names + report serialization

const char* stageOutcomeName(StageOutcome o) {
  switch (o) {
    case StageOutcome::kNotStarted:
      return "not_started";
    case StageOutcome::kCompleted:
      return "completed";
    case StageOutcome::kRolledBack:
      return "rolled_back";
    case StageOutcome::kAborted:
      return "aborted";
    case StageOutcome::kSkipped:
      return "skipped";
  }
  return "unknown";
}

const char* rolloutOutcomeName(RolloutOutcome o) {
  switch (o) {
    case RolloutOutcome::kCompleted:
      return "completed";
    case RolloutOutcome::kRolledBack:
      return "rolled_back";
    case RolloutOutcome::kAborted:
      return "aborted";
  }
  return "unknown";
}

namespace {

void field(std::ostream& os, bool& first, const char* name) {
  if (!first) {
    os << ",";
  }
  first = false;
  jsonlite::writeString(os, name);
  os << ":";
}

void numField(std::ostream& os, bool& first, const char* name, double v) {
  field(os, first, name);
  jsonlite::writeNumber(os, v);
}

void strField(std::ostream& os, bool& first, const char* name,
              const std::string& v) {
  field(os, first, name);
  jsonlite::writeString(os, v);
}

void writeSample(std::ostream& os, const SloSample& s) {
  bool f = true;
  os << "{";
  numField(os, f, "t_ns", s.tNs);
  numField(os, f, "ok_delta", s.okDelta);
  numField(os, f, "err_delta", s.errDelta);
  numField(os, f, "shed_delta", s.shedDelta);
  numField(os, f, "breaker_delta", s.breakerDelta);
  numField(os, f, "straggler_delta", s.stragglerDelta);
  numField(os, f, "mqtt_drop_delta", s.mqttDropDelta);
  numField(os, f, "p99_ms", s.p99Ms);
  numField(os, f, "baseline_p99_ms", s.baselineP99Ms);
  os << "}";
}

void writeThresholds(std::ostream& os, const SloThresholds& t) {
  bool f = true;
  os << "{";
  numField(os, f, "err_rate_soft", t.errRateSoft);
  numField(os, f, "err_rate_hard", t.errRateHard);
  numField(os, f, "min_requests_for_rate", t.minRequestsForRate);
  numField(os, f, "p99_inflation_soft", t.p99InflationSoft);
  numField(os, f, "p99_inflation_hard", t.p99InflationHard);
  numField(os, f, "p99_floor_ms", t.p99FloorMs);
  numField(os, f, "shed_rate_soft", t.shedRateSoft);
  numField(os, f, "shed_rate_hard", t.shedRateHard);
  numField(os, f, "breaker_trips_soft", t.breakerTripsSoft);
  numField(os, f, "breaker_trips_hard", t.breakerTripsHard);
  numField(os, f, "drain_stragglers_soft", t.drainStragglersSoft);
  numField(os, f, "drain_stragglers_hard", t.drainStragglersHard);
  numField(os, f, "mqtt_drops_soft", t.mqttDropsSoft);
  numField(os, f, "mqtt_drops_hard", t.mqttDropsHard);
  os << "}";
}

void writeStage(std::ostream& os, const StageReport& st) {
  bool f = true;
  os << "{";
  strField(os, f, "name", st.name);
  strField(os, f, "tier", st.tier);
  strField(os, f, "pop", st.pop);
  field(os, f, "hosts");
  os << "[";
  for (size_t i = 0; i < st.hosts.size(); ++i) {
    if (i) {
      os << ",";
    }
    jsonlite::writeString(os, st.hosts[i]);
  }
  os << "]";
  strField(os, f, "outcome", stageOutcomeName(st.outcome));
  numField(os, f, "batches_completed",
           static_cast<double>(st.batchesCompleted));
  numField(os, f, "hosts_released", static_cast<double>(st.hostsReleased));
  numField(os, f, "hosts_rolled_back",
           static_cast<double>(st.hostsRolledBack));
  numField(os, f, "pauses", static_cast<double>(st.pauses));
  numField(os, f, "seconds", st.seconds);
  field(os, f, "baseline");
  {
    bool g = true;
    os << "{";
    numField(os, g, "ok", st.baseline.ok);
    numField(os, g, "err", st.baseline.err);
    numField(os, g, "shed", st.baseline.shed);
    numField(os, g, "breaker_trips", st.baseline.breakerTrips);
    numField(os, g, "drain_stragglers", st.baseline.drainStragglers);
    numField(os, g, "mqtt_drops", st.baseline.mqttDrops);
    numField(os, g, "p99_ms", st.baseline.p99Ms);
    os << "}";
  }
  field(os, f, "budget");
  {
    bool g = true;
    os << "{";
    numField(os, g, "max_client_errors", st.budget.maxClientErrors);
    numField(os, g, "max_shed_requests", st.budget.maxShedRequests);
    numField(os, g, "max_mqtt_drops", st.budget.maxMqttDrops);
    numField(os, g, "max_drain_stragglers", st.budget.maxDrainStragglers);
    os << "}";
  }
  field(os, f, "consumed");
  {
    bool g = true;
    os << "{";
    numField(os, g, "client_errors", st.consumed.clientErrors);
    numField(os, g, "shed_requests", st.consumed.shedRequests);
    numField(os, g, "mqtt_drops", st.consumed.mqttDrops);
    numField(os, g, "drain_stragglers", st.consumed.drainStragglers);
    os << "}";
  }
  field(os, f, "within_budget");
  os << (st.withinBudget ? "true" : "false");
  field(os, f, "decisions");
  os << "[";
  for (size_t i = 0; i < st.decisions.size(); ++i) {
    const StageDecision& d = st.decisions[i];
    if (i) {
      os << ",";
    }
    bool g = true;
    os << "{";
    numField(os, g, "t_ms", d.tMs);
    strField(os, g, "action", d.action);
    strField(os, g, "level", sloLevelName(d.level));
    strField(os, g, "reason", d.reason);
    if (d.hasSample) {
      field(os, g, "sample");
      writeSample(os, d.sample);
    }
    os << "}";
  }
  os << "]";
  os << "}";
}

}  // namespace

std::string ReleaseControllerReport::toJson() const {
  std::ostringstream os;
  bool f = true;
  os << "{";
  strField(os, f, "schema", "zdr.release_report.v1");
  strField(os, f, "outcome", rolloutOutcomeName(outcome));
  strField(os, f, "strategy",
           strategy == Strategy::kZeroDowntime ? "zero_downtime"
                                               : "hard_restart");
  numField(os, f, "total_seconds", totalSeconds);
  numField(os, f, "hosts_released", static_cast<double>(hostsReleased));
  numField(os, f, "hosts_rolled_back", static_cast<double>(hostsRolledBack));
  numField(os, f, "scrapes", static_cast<double>(scrapes));
  numField(os, f, "scrape_failures", static_cast<double>(scrapeFailures));
  field(os, f, "slo");
  writeThresholds(os, slo);
  field(os, f, "stages");
  os << "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i) {
      os << ",";
    }
    writeStage(os, stages[i]);
  }
  os << "]";
  os << "}";
  return os.str();
}

bool ReleaseControllerReport::writeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << toJson() << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// ReleaseController

struct ReleaseController::StageRun {
  explicit StageRun(SloEvaluator ev) : evaluator(std::move(ev)) {}
  SloEvaluator evaluator;
  std::vector<RestartableHost*> released;
  int consecutiveSoft = 0;
  int consecutiveHard = 0;
  int consecutiveOk = 0;
  int consecutiveScrapeFailures = 0;
  // Confirmed breaches awaiting action: hard ⇒ roll back at the next
  // safe point (the in-flight batch is never interrupted); soft ⇒
  // pause after the current batch.
  bool hardPending = false;
  bool softPending = false;
  std::string breachReason;
  SloLevel lastLevel = SloLevel::kOk;
};

ReleaseController::ReleaseController(std::vector<StageSpec> stages,
                                     ReleaseControllerOptions options)
    : stages_(std::move(stages)), opts_(std::move(options)) {
  report_.strategy = opts_.strategy;
  report_.slo = opts_.slo;
}

void ReleaseController::emit(const std::string& event) {
  if (opts_.onEvent) {
    opts_.onEvent(event);
  }
}

void ReleaseController::bump(const std::string& name, uint64_t n) {
  if (opts_.metrics) {
    opts_.metrics->counter(name).add(n);
  }
}

void ReleaseController::record(StageReport& out, const std::string& action,
                               SloLevel level, const std::string& reason,
                               const SloSample* sample) {
  StageDecision d;
  d.tMs = clock_.seconds() * 1000.0;
  d.action = action;
  d.level = level;
  d.reason = reason;
  if (sample != nullptr) {
    d.sample = *sample;
    d.hasSample = true;
  }
  out.decisions.push_back(std::move(d));
}

namespace {

// First budget dimension the sample exceeds, or "" if within budget.
// Budget burn is not debounced: the underlying counters are monotonic,
// so an exceeded budget can never recover on its own.
std::string budgetBreach(const DisruptionBudget& b, const SloSample& s) {
  char buf[96];
  if (s.errDelta > b.maxClientErrors) {
    std::snprintf(buf, sizeof buf, "budget client_errors %.0f > %.0f",
                  s.errDelta, b.maxClientErrors);
    return buf;
  }
  if (s.shedDelta > b.maxShedRequests) {
    std::snprintf(buf, sizeof buf, "budget shed_requests %.0f > %.0f",
                  s.shedDelta, b.maxShedRequests);
    return buf;
  }
  if (s.mqttDropDelta > b.maxMqttDrops) {
    std::snprintf(buf, sizeof buf, "budget mqtt_drops %.0f > %.0f",
                  s.mqttDropDelta, b.maxMqttDrops);
    return buf;
  }
  if (s.stragglerDelta > b.maxDrainStragglers) {
    std::snprintf(buf, sizeof buf, "budget drain_stragglers %.0f > %.0f",
                  s.stragglerDelta, b.maxDrainStragglers);
    return buf;
  }
  return "";
}

}  // namespace

void ReleaseController::observe(StageSpec& spec, StageRun& run,
                                StageReport& out) {
  stats::StatsSnapshot snap;
  std::string err;
  report_.scrapes++;
  bump("release.controller.scrapes");
  if (!spec.stats->scrape(snap, err)) {
    report_.scrapeFailures++;
    bump("release.controller.scrape_failures");
    run.consecutiveScrapeFailures++;
    record(out, "scrape_failure", SloLevel::kOk, err);
    if (run.consecutiveScrapeFailures >= opts_.maxScrapeFailures &&
        !run.hardPending) {
      // Flying blind is a hard condition: the controller may not keep
      // mutating a fleet it cannot observe.
      run.hardPending = true;
      run.breachReason = "stats unreachable: " + err;
      bump("slo.hard_breach");
    }
    return;
  }
  run.consecutiveScrapeFailures = 0;

  SloSample s = run.evaluator.extract(snap);
  // Deltas are cumulative since the stage baseline, so the latest
  // sample IS the stage's consumption; max() guards the reset clamp.
  out.consumed.clientErrors = std::max(out.consumed.clientErrors, s.errDelta);
  out.consumed.shedRequests = std::max(out.consumed.shedRequests, s.shedDelta);
  out.consumed.mqttDrops = std::max(out.consumed.mqttDrops, s.mqttDropDelta);
  out.consumed.drainStragglers =
      std::max(out.consumed.drainStragglers, s.stragglerDelta);

  SloVerdict v = run.evaluator.judge(s);
  std::string burn = budgetBreach(spec.budget, s);
  if (!burn.empty()) {
    v.level = SloLevel::kHard;
    v.reason = burn;
  }
  record(out, "observe", v.level, v.reason, &s);
  run.lastLevel = v.level;

  switch (v.level) {
    case SloLevel::kOk:
      bump("slo.ok");
      run.consecutiveOk++;
      run.consecutiveSoft = 0;
      run.consecutiveHard = 0;
      return;
    case SloLevel::kSoft:
      bump("slo.soft_breach");
      run.consecutiveOk = 0;
      run.consecutiveSoft++;
      run.consecutiveHard = 0;
      break;
    case SloLevel::kHard:
      bump("slo.hard_breach");
      run.consecutiveOk = 0;
      run.consecutiveSoft++;  // hard also counts toward soft debounce
      run.consecutiveHard++;
      break;
  }
  if (!burn.empty() && !run.hardPending) {
    run.hardPending = true;
    run.breachReason = v.reason;
    return;
  }
  if (run.consecutiveHard >= opts_.confirmScrapes && !run.hardPending) {
    run.hardPending = true;
    run.breachReason = v.reason;
  } else if (run.consecutiveSoft >= opts_.confirmScrapes &&
             !run.softPending && !run.hardPending) {
    run.softPending = true;
    run.breachReason = v.reason;
  }
}

bool ReleaseController::pauseAndAwaitRecovery(StageSpec& spec, StageRun& run,
                                              StageReport& out) {
  record(out, "pause", SloLevel::kSoft, run.breachReason);
  emit("controller_pause " + spec.name + ": " + run.breachReason);
  bump("release.controller.pauses");
  out.pauses++;
  run.softPending = false;
  run.consecutiveOk = 0;
  for (int i = 0; i < opts_.pauseGraceScrapes; ++i) {
    std::this_thread::sleep_for(opts_.scrapeInterval);
    observe(spec, run, out);
    if (run.hardPending) {
      return false;
    }
    // A fresh soft confirmation while already paused doesn't re-pause;
    // it just keeps the grace clock running.
    run.softPending = false;
    if (run.consecutiveOk >= opts_.confirmScrapes) {
      record(out, "resume", SloLevel::kOk, "");
      emit("controller_resume " + spec.name);
      bump("release.controller.resumes");
      return true;
    }
  }
  run.hardPending = true;
  run.breachReason = "pause grace exhausted: " + run.breachReason;
  return false;
}

void ReleaseController::rollbackStage(StageSpec& spec, size_t idx,
                                      StageRun& run, StageReport& out) {
  record(out, "rollback", SloLevel::kHard, run.breachReason);
  emit("controller_rollback " + spec.name + ": " + run.breachReason);
  bump("release.controller.rollbacks");
  if (opts_.onStageRollback) {
    opts_.onStageRollback(spec, idx);
  }
  // Re-restart only the hosts this stage touched; completed stages
  // stay on the new version (they soaked clean).
  for (auto* h : run.released) {
    emit("controller_rollback_restart " + h->hostName());
  }
  const bool converged = restartAndWait(run.released, opts_.strategy,
                                        opts_.perBatchTimeout, Duration{10})
                             .empty();
  if (!converged) {
    abortStage(spec, out, "rollback restart timed out");
    return;
  }
  stopRollout_ = true;
  out.outcome = StageOutcome::kRolledBack;
  out.hostsRolledBack = run.released.size();
  report_.hostsRolledBack += run.released.size();
  bump("release.controller.hosts_rolled_back", run.released.size());
  record(out, "rollback_done", SloLevel::kOk, "");
  emit("controller_rollback_done " + spec.name);
  report_.outcome = RolloutOutcome::kRolledBack;
}

void ReleaseController::abortStage(const StageSpec& spec, StageReport& out,
                                   const std::string& reason) {
  out.outcome = StageOutcome::kAborted;
  record(out, "abort", SloLevel::kHard, reason);
  emit("controller_abort " + spec.name);
  bump("release.controller.aborts");
  report_.outcome = RolloutOutcome::kAborted;
  stopRollout_ = true;
}

ReleaseController::Breach ReleaseController::handleBreach(StageSpec& spec,
                                                          size_t idx,
                                                          StageRun& run,
                                                          StageReport& out) {
  if (!run.hardPending && !run.softPending) {
    return Breach::kNone;
  }
  if (!run.hardPending && pauseAndAwaitRecovery(spec, run, out)) {
    return Breach::kResumed;
  }
  rollbackStage(spec, idx, run, out);
  return Breach::kRolledBack;
}

void ReleaseController::runStage(StageSpec& spec, size_t idx,
                                 StageReport& out) {
  for (auto* h : spec.hosts) {
    out.hosts.push_back(h->hostName());
  }
  emit("controller_stage_start " + spec.name);
  bump("release.controller.stages_started");
  if (opts_.onStageStart) {
    opts_.onStageStart(spec, idx);
  }

  StageRun run{SloEvaluator(spec.signals, opts_.slo)};

  // Baseline: every later sample is a delta against this scrape.
  stats::StatsSnapshot snap;
  bool haveBaseline = false;
  for (int i = 0; i < opts_.maxScrapeFailures && !haveBaseline; ++i) {
    std::string err;
    report_.scrapes++;
    bump("release.controller.scrapes");
    if (spec.stats->scrape(snap, err)) {
      haveBaseline = true;
    } else {
      report_.scrapeFailures++;
      bump("release.controller.scrape_failures");
      record(out, "scrape_failure", SloLevel::kOk, err);
      std::this_thread::sleep_for(opts_.scrapeInterval);
    }
  }
  if (!haveBaseline) {
    // Nothing was restarted yet, so there is nothing to roll back —
    // but continuing blind is not an option either.
    abortStage(spec, out, "baseline scrape unreachable");
    return;
  }
  run.evaluator.setBaseline(snap);
  out.baseline = run.evaluator.baseline();
  record(out, "baseline", SloLevel::kOk, "");

  // The first batch is the stage's canary: nothing else restarts until
  // it has come back under observation and passed the breach checks.
  const size_t size = batchSize(spec.hosts.size(), spec.batchFraction);
  size_t next = 0;
  while (next < spec.hosts.size()) {
    size_t end = std::min(next + size, spec.hosts.size());
    std::vector<RestartableHost*> batch(spec.hosts.begin() + next,
                                        spec.hosts.begin() + end);
    record(out, "batch_start", SloLevel::kOk,
           "hosts " + std::to_string(next) + ".." + std::to_string(end - 1));
    bump("release.controller.batches");
    for (auto* h : batch) {
      emit("controller_restart " + h->hostName());
    }
    auto stuck = restartAndWait(batch, opts_.strategy, opts_.perBatchTimeout,
                                opts_.scrapeInterval,
                                [&] { observe(spec, run, out); });
    if (!stuck.empty()) {
      std::string reason = "batch restart timed out:";
      for (auto* h : stuck) {
        reason += " " + h->hostName();
      }
      abortStage(spec, out, reason);
      return;
    }
    run.released.insert(run.released.end(), batch.begin(), batch.end());
    out.hostsReleased += batch.size();
    out.batchesCompleted++;
    report_.hostsReleased += batch.size();
    bump("release.controller.hosts_released", batch.size());
    record(out, "batch_done", SloLevel::kOk, "");
    next = end;

    if (handleBreach(spec, idx, run, out) == Breach::kRolledBack) {
      return;
    }

    // Inter-batch gate: hold here until the fleet has re-converged
    // around the batch just restarted. restartComplete() only proves
    // the hosts came back; their peers still need to re-dial trunks and
    // refill pools, and launching the next batch during that window can
    // drain the last healthy path to a tier. The gate demands fresh
    // consecutive Ok scrapes — a breach instead takes the normal
    // pause/rollback path, and a fleet that flaps without ever
    // confirming either way is escalated rather than waited on forever.
    if (next < spec.hosts.size() && opts_.interBatchScrapes > 0) {
      run.consecutiveOk = 0;
      int gateScrapes = 0;
      const int gateLimit =
          std::max(opts_.pauseGraceScrapes, 4 * opts_.interBatchScrapes);
      while (run.consecutiveOk < opts_.interBatchScrapes) {
        std::this_thread::sleep_for(opts_.scrapeInterval);
        observe(spec, run, out);
        gateScrapes++;
        if (!run.hardPending && !run.softPending && gateScrapes > gateLimit) {
          run.softPending = true;
          run.breachReason = "inter-batch gate not converging";
        }
        const Breach b = handleBreach(spec, idx, run, out);
        if (b == Breach::kRolledBack) {
          return;
        }
        if (b == Breach::kResumed) {
          // A resume required confirmScrapes consecutive Ok samples —
          // the fleet is demonstrably converged; the gate is satisfied.
          break;
        }
      }
      record(out, "batch_gate_ok", SloLevel::kOk, "");
    }
  }

  // Soak: the stage completes only after stageSoakScrapes consecutive
  // clean samples with the whole stage on the new version. A failed
  // scrape is no sample: it neither extends nor breaks the streak
  // (flying blind has its own limit, maxScrapeFailures).
  int okStreak = 0;
  while (okStreak < opts_.stageSoakScrapes) {
    std::this_thread::sleep_for(opts_.scrapeInterval);
    observe(spec, run, out);
    const Breach b = handleBreach(spec, idx, run, out);
    if (b == Breach::kRolledBack) {
      return;
    }
    if (b == Breach::kResumed) {
      okStreak = 0;
    } else if (run.consecutiveScrapeFailures == 0) {
      okStreak = run.lastLevel == SloLevel::kOk ? okStreak + 1 : 0;
    }
  }

  out.outcome = StageOutcome::kCompleted;
  record(out, "complete", SloLevel::kOk, "");
  emit("controller_stage_complete " + spec.name);
  bump("release.controller.stages_completed");
}

ReleaseControllerReport ReleaseController::run() {
  clock_.restart();
  report_.stages.clear();
  report_.stages.resize(stages_.size());
  emit("controller_start");
  for (size_t i = 0; i < stages_.size(); ++i) {
    StageReport& out = report_.stages[i];
    out.name = stages_[i].name;
    out.tier = stages_[i].tier;
    out.pop = stages_[i].pop;
    out.budget = stages_[i].budget;
    if (stopRollout_) {
      out.outcome = StageOutcome::kSkipped;
      continue;
    }
    Stopwatch stageClock;
    runStage(stages_[i], i, out);
    out.seconds = stageClock.seconds();
  }
  for (StageReport& st : report_.stages) {
    st.withinBudget = st.consumed.clientErrors <= st.budget.maxClientErrors &&
                      st.consumed.shedRequests <= st.budget.maxShedRequests &&
                      st.consumed.mqttDrops <= st.budget.maxMqttDrops &&
                      st.consumed.drainStragglers <=
                          st.budget.maxDrainStragglers;
  }
  report_.totalSeconds = clock_.seconds();
  emit(std::string("controller_done ") +
       rolloutOutcomeName(report_.outcome));
  return report_;
}

}  // namespace zdr::release
