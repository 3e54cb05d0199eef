// Fleet-scale release controller: SLO-gated staged rollouts, and the
// repo's one stateful release orchestrator (§5.1's "health of the
// service … monitored during the release phase", with rollback of a
// regressing release). Release tooling sits *outside* the fleet and
// decides from scraped signals alone. This controller drives a staged,
// multi-tier, multi-PoP rollout — one stage per (tier, PoP), edge tier
// before origin tier — where every continue / pause / rollback decision
// comes from /__stats scrapes evaluated by an SloEvaluator against a
// baseline captured at stage entry.
//
// Canary: the first batch of every stage (sized by
// StageSpec::batchFraction) restarts alone and is observed while it
// restarts; a confirmed breach rolls back just that batch before any
// other host is touched. The StatsSource is the health gate.
//
// Batches restart through release::restartAndWait (release.h), the
// same primitive the plain runRollingRelease loop uses.
//
// Stage state machine:
//
//        ┌────────── releasing ◄──────────┐ resume (confirmed Ok)
//        │               │ soft breach    │
//   batch loop           ▼ (confirmed)    │
//        │            paused ─────────────┘
//        │               │ hard breach, budget burn,
//        ▼               │ grace exhausted, or blind
//     soaking            ▼
//        │ ok         rolling back ──► rolled_back (rollout stops)
//        ▼               │ restart timeout
//    completed           └─────────────► aborted
//
// Debounce: a breach must hold for `confirmScrapes` consecutive
// scrapes before the controller acts (a single hot sample must not
// flap a fleet-wide release); recovery similarly needs `confirmScrapes`
// consecutive Ok scrapes. A hard breach rolls back *the offending
// stage only* — hosts already released by completed stages keep the
// new binary; undoing a verified-healthy stage is its own risk.
//
// Every decision (including each observation) is recorded with the
// sample it was made from, and the whole run serializes into
// RELEASE_report.json with per-stage disruption budgets — the report
// is machine-checked in CI by scripts/check_release_report.py.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "netcore/event_loop.h"
#include "netcore/socket_addr.h"
#include "release/release.h"
#include "release/slo_evaluator.h"

namespace zdr::http {
class Client;
}

namespace zdr::release {

// One scrape of a PoP's /__stats endpoint. The controller never reads
// in-process state: everything it knows arrives through this.
class StatsSource {
 public:
  virtual ~StatsSource() = default;
  // False ⇒ `err` says why. Failures count against the controller's
  // flying-blind tolerance, not as an SLO breach.
  virtual bool scrape(stats::StatsSnapshot& out, std::string& err) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

// Blocking scraper over one or more live HTTP entries of a PoP (any
// edge serves /__stats; extra entries are failover targets so one
// restarting edge cannot blind the controller).
class HttpStatsSource final : public StatsSource {
 public:
  explicit HttpStatsSource(std::vector<SocketAddr> entries,
                           Duration timeout = Duration{3000});
  ~HttpStatsSource() override;
  bool scrape(stats::StatsSnapshot& out, std::string& err) override;
  [[nodiscard]] std::string describe() const override;

 private:
  bool scrapeOne(const SocketAddr& entry, stats::StatsSnapshot& out,
                 std::string& err);

  std::vector<SocketAddr> entries_;
  Duration timeout_;
  size_t preferred_ = 0;  // last entry that answered
  EventLoopThread thread_;
  std::shared_ptr<http::Client> client_;
  SocketAddr clientEntry_{};
};

// What one stage is allowed to burn. Client-visible errors default to
// zero: the paper's bar is *disruption-free*, and the machine check
// holds the report to it.
struct DisruptionBudget {
  double maxClientErrors = 0;
  double maxShedRequests = 0;
  double maxMqttDrops = 0;
  double maxDrainStragglers = 2;
};

struct StageSpec {
  std::string name;  // e.g. "edge/pop0"
  std::string tier;  // "edge" | "origin" | "app"
  std::string pop;
  std::vector<RestartableHost*> hosts;
  StatsSource* stats = nullptr;
  SloSignals signals;
  double batchFraction = 0.5;
  DisruptionBudget budget;
};

enum class StageOutcome : uint8_t {
  kNotStarted,
  kCompleted,
  kRolledBack,
  kAborted,   // rollback itself failed to converge
  kSkipped,   // an earlier stage failed; never started
};

[[nodiscard]] const char* stageOutcomeName(StageOutcome o);

enum class RolloutOutcome : uint8_t { kCompleted, kRolledBack, kAborted };

[[nodiscard]] const char* rolloutOutcomeName(RolloutOutcome o);

// One controller decision (observations included — the report must let
// a reader re-derive every action from the samples alone).
struct StageDecision {
  double tMs = 0;  // since controller start
  // observe | baseline | batch_start | batch_done | pause | resume |
  // rollback | rollback_done | complete | scrape_failure | abort
  std::string action;
  SloLevel level = SloLevel::kOk;
  std::string reason;
  SloSample sample;
  bool hasSample = false;
};

struct StageReport {
  std::string name;
  std::string tier;
  std::string pop;
  std::vector<std::string> hosts;
  StageOutcome outcome = StageOutcome::kNotStarted;
  size_t batchesCompleted = 0;
  size_t hostsReleased = 0;
  size_t hostsRolledBack = 0;
  size_t pauses = 0;
  double seconds = 0;
  SloEvaluator::Absolutes baseline{};
  DisruptionBudget budget;
  struct Consumed {
    double clientErrors = 0;
    double shedRequests = 0;
    double mqttDrops = 0;
    double drainStragglers = 0;
  } consumed;
  bool withinBudget = true;
  std::vector<StageDecision> decisions;
};

struct ReleaseControllerReport {
  RolloutOutcome outcome = RolloutOutcome::kCompleted;
  Strategy strategy = Strategy::kZeroDowntime;
  double totalSeconds = 0;
  size_t hostsReleased = 0;
  size_t hostsRolledBack = 0;
  uint64_t scrapes = 0;
  uint64_t scrapeFailures = 0;
  SloThresholds slo;
  std::vector<StageReport> stages;

  [[nodiscard]] std::string toJson() const;
  // Returns false on I/O failure.
  bool writeJson(const std::string& path) const;
};

struct ReleaseControllerOptions {
  Strategy strategy = Strategy::kZeroDowntime;
  SloThresholds slo;
  // Scrape cadence while a stage is active.
  Duration scrapeInterval{100};
  Duration perBatchTimeout{30000};
  // Consecutive breaching scrapes before the controller acts, and
  // consecutive Ok scrapes before a paused stage resumes.
  int confirmScrapes = 2;
  // Consecutive Ok samples required after the last batch before the
  // stage completes (measured, not slept). A failed scrape is no
  // sample: it neither counts toward nor resets the streak.
  int stageSoakScrapes = 3;
  // Scrapes a paused stage waits for recovery before escalating the
  // soft breach to a rollback.
  int pauseGraceScrapes = 20;
  // Consecutive Ok scrapes required between batches before the next
  // batch launches. The data plane needs time to re-converge around a
  // just-restarted batch (trunks re-dialed, pools refilled); launching
  // the next batch on restartComplete alone can drain the last healthy
  // path to a tier while its peers are still re-establishing. 0
  // disables the gate (batches launch back-to-back).
  int interBatchScrapes = 2;
  // Consecutive scrape failures before the controller declares itself
  // blind and rolls the stage back (never continue unobserved).
  int maxScrapeFailures = 10;
  std::function<void(const std::string& event)> onEvent;
  // Test/scenario hooks around stage boundaries.
  std::function<void(const StageSpec&, size_t stageIdx)> onStageStart;
  std::function<void(const StageSpec&, size_t stageIdx)> onStageRollback;
  // Controller-side instruments (release.controller.* / slo.*);
  // nullptr ⇒ unmetered.
  MetricsRegistry* metrics = nullptr;
};

class ReleaseController {
 public:
  ReleaseController(std::vector<StageSpec> stages,
                    ReleaseControllerOptions options);

  // Blocking: drives the whole rollout on the caller's thread (never
  // an event-loop thread). One controller, one run.
  ReleaseControllerReport run();

 private:
  struct StageRun;
  void runStage(StageSpec& spec, size_t idx, StageReport& out);
  // One scrape → sample → verdict → recorded decision; updates the
  // stage's debounce counters, budget consumption and pending flags.
  void observe(StageSpec& spec, StageRun& run, StageReport& out);
  // Paused stage waiting for recovery. True ⇒ resumed; false ⇒ the
  // breach persisted (or hardened) and the stage must roll back.
  bool pauseAndAwaitRecovery(StageSpec& spec, StageRun& run,
                             StageReport& out);
  void rollbackStage(StageSpec& spec, size_t idx, StageRun& run,
                     StageReport& out);
  // What a pending breach led to at a safe point.
  enum class Breach : uint8_t { kNone, kResumed, kRolledBack };
  // Hard pending ⇒ roll back; soft pending ⇒ pause, then resume or
  // (breach hardened, grace exhausted) roll back.
  Breach handleBreach(StageSpec& spec, size_t idx, StageRun& run,
                      StageReport& out);
  // Stage ends kAborted and the rollout stops.
  void abortStage(const StageSpec& spec, StageReport& out,
                  const std::string& reason);
  void record(StageReport& out, const std::string& action, SloLevel level,
              const std::string& reason, const SloSample* sample = nullptr);
  void emit(const std::string& event);
  void bump(const std::string& name, uint64_t n = 1);

  std::vector<StageSpec> stages_;
  ReleaseControllerOptions opts_;
  ReleaseControllerReport report_;
  Stopwatch clock_;
  bool stopRollout_ = false;
};

}  // namespace zdr::release
