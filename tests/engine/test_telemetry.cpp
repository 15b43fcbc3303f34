// Integration tests for the engine telemetry bundle: exact-count
// agreement with the DeadlineMonitor, automatic flight dumps on forced
// deadline misses, journal event production, and the DJSTAR_FLIGHT /
// DJSTAR_TRACE environment hooks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "djstar/engine/engine.hpp"

namespace de = djstar::engine;
namespace ds = djstar::support;
namespace chaos = djstar::core::chaos;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// Find a frozen metric by name; fails the test when absent.
const ds::MetricValue* find_metric(const ds::MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const ds::MetricValue& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return nullptr;
}

de::EngineConfig sequential_config() {
  de::EngineConfig cfg;
  cfg.strategy = djstar::core::Strategy::kSequential;
  cfg.threads = 1;
  return cfg;
}

// Every cycle, node 0 stalls longer than the whole deadline — a
// guaranteed deterministic deadline miss.
chaos::FaultPlan stall_every_cycle(double stall_us) {
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.stall_permille = 1000;
  plan.stall_us = stall_us;
  plan.targets = {0};
  return plan;
}

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace

TEST(EngineTelemetry, CountsAgreeWithDeadlineMonitorExactly) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  engine.run_cycles(50);

  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* cycles = find_metric(snap, "djstar_cycles_total");
  const ds::MetricValue* misses =
      find_metric(snap, "djstar_deadline_misses_total");
  ASSERT_NE(cycles, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(std::uint64_t(cycles->value), engine.monitor().cycles());
  EXPECT_EQ(std::uint64_t(misses->value), engine.monitor().misses());

  const ds::MetricValue* apc = find_metric(snap, "djstar_apc_total_us");
  ASSERT_NE(apc, nullptr);
  EXPECT_EQ(apc->count, engine.monitor().cycles());

  // The rendered exports carry the same numbers.
  const std::string prom = engine.telemetry().prometheus();
  EXPECT_NE(prom.find("djstar_cycles_total " +
                      std::to_string(engine.monitor().cycles())),
            std::string::npos);
  const std::string json = engine.telemetry().json();
  EXPECT_NE(json.find("\"name\":\"djstar_cycles_total\""), std::string::npos);

  // Supervised, with the profiler and the SLO engine on: every consumer
  // of the cycle's miss verdict must count exactly the monitor's misses.
  // Latency spikes on node 0 force a mix of missed and on-time cycles.
  // The ladder is pinned at kFull (overrun_trip far above the run length,
  // no SLO page), and the watchdog is off so no spike becomes a cancel.
  // An integral deadline keeps the SLO engine's virtual clock exact, so
  // the last cycle seals the last window.
  de::EngineConfig sup_cfg = sequential_config();
  sup_cfg.deadline_us = 3000.0;
  de::AudioEngine sup_engine(sup_cfg);
  de::SupervisorConfig scfg;
  scfg.overrun_trip = 1000;
  scfg.use_watchdog = false;
  sup_engine.enable_supervision(scfg);
  de::ProfilerConfig pcfg;
  pcfg.mode = de::ProfMode::kAttrib;
  sup_engine.enable_profiler(pcfg);
  const double deadline_us = sup_cfg.deadline_us;
  ds::SloConfig slo;
  slo.enabled = true;
  slo.tsdb.window_us = 10.0 * deadline_us;  // 10 cycles per window
  slo.tsdb.retention = 64;
  slo.windows.fast_short = 1;
  slo.windows.fast_long = 2;
  slo.windows.slow_short = 2;
  slo.windows.slow_long = 4;
  slo.spec.miss_ratio = 0.5;  // burn <= 2: never warns, never forces a step
  sup_engine.enable_slo(slo);
  chaos::FaultPlan spikes;
  spikes.seed = 11;
  spikes.latency_permille = 300;
  spikes.latency_min_us = 2.0 * deadline_us;
  spikes.latency_max_us = 2.0 * deadline_us;
  spikes.targets = {0};
  sup_engine.arm_faults(spikes);
  constexpr std::size_t kCycles = 60;  // whole windows: all sealed
  for (std::size_t i = 0; i < kCycles; ++i) sup_engine.run_cycle_supervised();

  const std::uint64_t sup_misses = sup_engine.monitor().misses();
  ASSERT_EQ(sup_engine.monitor().cycles(), kCycles);
  EXPECT_GT(sup_misses, 0u);
  EXPECT_EQ(sup_engine.supervisor().level(), de::DegradationLevel::kFull);
  EXPECT_EQ(sup_engine.profiler().blame_reports(), sup_misses);
  EXPECT_EQ(sup_engine.supervisor().stats().overruns, sup_misses);
  ds::TimeSeriesStore::SeriesSnapshot series;
  ASSERT_TRUE(sup_engine.slo_store()->snapshot("engine_misses", 0, series));
  std::uint64_t slo_misses = 0;
  for (const ds::TsWindow& w : series.windows) slo_misses += w.count;
  EXPECT_EQ(slo_misses, sup_misses);
  const ds::MetricsSnapshot sup_snap =
      sup_engine.telemetry().registry().snapshot();
  const ds::MetricValue* sup_metric =
      find_metric(sup_snap, "djstar_deadline_misses_total");
  ASSERT_NE(sup_metric, nullptr);
  EXPECT_EQ(std::uint64_t(sup_metric->value), sup_misses);
}

TEST(EngineTelemetry, ForcedStallProducesMissFlightDumpAndJournal) {
  const std::string dump =
      testing::TempDir() + "/telemetry_incident_trace.json";
  std::remove(dump.c_str());

  de::AudioEngine engine(sequential_config());
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  tcfg.flight_dump_cycles = 8;
  engine.enable_telemetry(tcfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  engine.run_cycles(3);

  // Every cycle stalls past the deadline: the monitor and the metric
  // must agree the misses happened, and the first one dumps the flight
  // recorder.
  EXPECT_EQ(engine.monitor().misses(), 3u);
  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* misses =
      find_metric(snap, "djstar_deadline_misses_total");
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(std::uint64_t(misses->value), 3u);
  const ds::MetricValue* faults =
      find_metric(snap, "djstar_faults_injected_total");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(std::uint64_t(faults->value), engine.compiled().faults_injected());
  EXPECT_EQ(std::uint64_t(faults->value), 3u);

  EXPECT_GE(engine.telemetry().flight_dumps(), 1u);
  ASSERT_TRUE(file_exists(dump));
  const std::string trace = slurp(dump);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  // The journal carries the matching typed events.
  const std::vector<ds::Event> evs =
      engine.telemetry().journal().drain_all();
  std::size_t n_miss = 0, n_fault = 0, n_dump = 0;
  for (const ds::Event& e : evs) {
    switch (e.kind) {
      case ds::EventKind::kDeadlineMiss: ++n_miss; break;
      case ds::EventKind::kFaultInjected: ++n_fault; break;
      case ds::EventKind::kFlightDump: ++n_dump; break;
      default: break;
    }
  }
  EXPECT_EQ(n_miss, 3u);
  EXPECT_EQ(n_fault, 3u);
  EXPECT_EQ(n_dump, engine.telemetry().flight_dumps());
  std::remove(dump.c_str());
}

TEST(EngineTelemetry, DumpCooldownLimitsIncidentStorms) {
  const std::string dump = testing::TempDir() + "/telemetry_cooldown.json";
  de::AudioEngine engine(sequential_config());
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  tcfg.flight_dump_cooldown = 1000;  // far beyond the run length
  engine.enable_telemetry(tcfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  engine.run_cycles(5);
  EXPECT_EQ(engine.telemetry().flight_dumps(), 1u);
  std::remove(dump.c_str());
}

TEST(EngineTelemetry, SupervisedDegradationIsCountedAndJournaled) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  de::SupervisorConfig scfg;
  scfg.overrun_trip = 1;     // one overrun per rung down
  scfg.use_watchdog = false; // deterministic on a loaded CI box
  engine.enable_supervision(scfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  for (int i = 0; i < 4; ++i) engine.run_cycle_supervised();

  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* degrades =
      find_metric(snap, "djstar_degrade_steps_total");
  const ds::MetricValue* level = find_metric(snap, "djstar_degradation_level");
  ASSERT_NE(degrades, nullptr);
  ASSERT_NE(level, nullptr);
  EXPECT_GT(degrades->value, 0.0);
  EXPECT_GT(level->value, 0.0);

  bool saw_degrade_event = false;
  for (const ds::Event& e : engine.telemetry().journal().drain_all()) {
    if (e.kind == ds::EventKind::kDegrade) saw_degrade_event = true;
  }
  EXPECT_TRUE(saw_degrade_event);
}

TEST(EngineTelemetry, EnvFlightVariableEnablesTelemetry) {
  EnvGuard guard("DJSTAR_FLIGHT");
  const std::string dump = testing::TempDir() + "/env_flight_trace.json";
  ::setenv("DJSTAR_FLIGHT", dump.c_str(), 1);
  de::AudioEngine engine(sequential_config());
  EXPECT_TRUE(engine.telemetry_enabled());
  EXPECT_EQ(engine.telemetry().config().flight_dump_path, dump);
  engine.run_cycles(2);
  EXPECT_EQ(std::uint64_t(
                find_metric(engine.telemetry().registry().snapshot(),
                            "djstar_cycles_total")
                    ->value),
            2u);
}

TEST(EngineTelemetry, EnvFlightEmptyValueThrows) {
  EnvGuard guard("DJSTAR_FLIGHT");
  ::setenv("DJSTAR_FLIGHT", "   ", 1);
  EXPECT_THROW(de::AudioEngine engine(sequential_config()),
               std::invalid_argument);
}

TEST(EngineTelemetry, EnvTraceCapturesFirstCycleThenDisarms) {
  EnvGuard guard("DJSTAR_TRACE");
  const std::string path = testing::TempDir() + "/env_first_cycle.json";
  std::remove(path.c_str());
  ::setenv("DJSTAR_TRACE", path.c_str(), 1);

  de::AudioEngine engine(sequential_config());
  EXPECT_FALSE(engine.telemetry_enabled());  // trace alone, no telemetry
  engine.run_cycle();
  ASSERT_TRUE(file_exists(path));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // One-shot: later cycles must not grow the capture.
  const std::string first = json;
  engine.run_cycles(3);
  EXPECT_EQ(slurp(path), first);
  std::remove(path.c_str());
}

TEST(EngineTelemetry, EnvTraceEmptyValueThrows) {
  EnvGuard guard("DJSTAR_TRACE");
  ::setenv("DJSTAR_TRACE", "", 1);
  EXPECT_THROW(de::AudioEngine engine(sequential_config()),
               std::invalid_argument);
}

TEST(EngineTelemetry, StrategySwapKeepsTelemetryWired) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  engine.run_cycles(2);
  engine.set_strategy(djstar::core::Strategy::kBusyWait, 2);
  engine.run_cycles(2);
  EXPECT_EQ(std::uint64_t(
                find_metric(engine.telemetry().registry().snapshot(),
                            "djstar_cycles_total")
                    ->value),
            4u);
  // Flight lanes were resized for the new worker count and keep
  // recording after the swap.
  EXPECT_EQ(engine.telemetry().flight().thread_count(), 2u);
  EXPECT_GT(engine.telemetry().flight().total_recorded(), 0u);
}
