// Serve-layer circuit-breaker integration (DESIGN.md §12): a session
// that keeps blowing its deadline trips, is torn down and snapshot, and
// is restored via a half-open probe — without disturbing co-hosted
// realtime sessions or the admission log's replayability.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"
#include "stress/stress_util.hpp"

namespace ds = djstar::serve;
namespace dj = djstar::support;
namespace dt = djstar::test;

namespace {

ds::SessionSpec light_realtime() {
  ds::SyntheticSpec spec;
  spec.name = "rt";
  spec.qos = ds::QoS::kRealtime;
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 0.5;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = 0.05 * spec.deadline_us;
  return s;
}

// Two chains of two calibrated 1500 us spins. At full quality each
// chain's critical path is >= 3000 us against the 2902.5 us deadline, so
// every kFull cycle misses. The supervisor ladder sheds each chain's tail
// (ceil(0.4 * 2) = 1 node) at kBypassFx; on a host that runs the two
// chains in parallel, those ~1500 us cycles are clean. Only where the
// chains are serialized does the session keep missing once degraded.
ds::SessionSpec doomed_session() {
  ds::SyntheticSpec spec;
  spec.name = "doomed";
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 1500.0;
  spec.jitter = 0.0;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = 100.0;  // lie to admission so it runs live
  return s;
}

ds::HostConfig breaker_host(unsigned k = 2, double backoff_ms = 10.0) {
  ds::HostConfig cfg;
  cfg.threads = 2;
  cfg.breaker.trip_failures = k;
  cfg.breaker.backoff_ms = backoff_ms;
  // These tests exercise the breaker, not the overload handler: a
  // doomed standard session must reach its K-miss trip instead of
  // racing the shed path for who mitigates it first.
  cfg.overload.shed_standard = false;
  return cfg;
}

struct EventTally {
  unsigned trips = 0;
  unsigned probes = 0;
  unsigned restores = 0;
};

EventTally tally(ds::EngineHost& host) {
  EventTally t;
  for (const dj::Event& e : host.journal().drain_all()) {
    if (e.kind == dj::EventKind::kBreakerTrip) ++t.trips;
    if (e.kind == dj::EventKind::kBreakerProbe) ++t.probes;
    if (e.kind == dj::EventKind::kSessionRestored) ++t.restores;
  }
  return t;
}

}  // namespace

TEST(ServeBreaker, FailingSessionTripsAndIsRestoredByProbe) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker trip/restore");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());

  bool saw_tripped = false;
  EventTally total;
  for (int i = 0; i < dt::scaled(120) && total.restores == 0; ++i) {
    host.run_fleet_cycle();
    if (host.session_state(id) == ds::SessionState::kTripped) {
      saw_tripped = true;
    }
    const EventTally t = tally(host);
    total.trips += t.trips;
    total.probes += t.probes;
    total.restores += t.restores;
  }
  EXPECT_TRUE(saw_tripped) << "session never reached kTripped";
  EXPECT_GE(total.trips, 1u);
  EXPECT_GE(total.probes, 1u);
  EXPECT_GE(total.restores, 1u) << "probe never restored the session";
}

TEST(ServeBreaker, TrippedSessionDoesNotDisturbRealtimeNeighbor) {
  dt::Watchdog watchdog(dt::scaled_timeout(180), "breaker co-hosting");
  ds::EngineHost host(breaker_host());
  const ds::SessionId rt = host.submit(light_realtime());
  const ds::SessionId bad = host.submit(doomed_session());

  const int cycles = dt::scaled(400);
  bool tripped_once = false;
  for (int i = 0; i < cycles; ++i) {
    host.run_fleet_cycle();
    if (host.session_state(bad) == ds::SessionState::kTripped) {
      tripped_once = true;
    }
    ASSERT_EQ(host.session_state(rt), ds::SessionState::kActive)
        << "realtime neighbor lost its slot at tick " << i;
  }
  ASSERT_TRUE(tripped_once);

  // Steady-state SLO for the co-hosted realtime session: miss rate
  // <= 0.1% once the doomed session is parked most of the time. The
  // first few ticks share the pool with a 6 ms graph, so misses there
  // are expected — the breaker exists precisely to bound that exposure.
  const ds::Session* s = host.session(rt);
  ASSERT_NE(s, nullptr);
  const auto& c = s->counters();
  ASSERT_GT(c.cycles, 0u);
  const double grace = 8.0;  // pre-trip cycles that may legitimately miss
  const double excess =
      c.misses > grace ? static_cast<double>(c.misses) - grace : 0.0;
  EXPECT_LE(excess / static_cast<double>(c.cycles), 0.001)
      << c.misses << " misses over " << c.cycles << " cycles";
}

TEST(ServeBreaker, ProbesDoNotTouchTheAdmissionLog) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker admission log");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());
  host.run_fleet_cycle();  // admission decision lands here
  const std::size_t log_after_admit = host.admission_log().size();

  EventTally total;
  for (int i = 0; i < dt::scaled(120) && total.restores == 0; ++i) {
    host.run_fleet_cycle();
    const EventTally t = tally(host);
    total.probes += t.probes;
    total.restores += t.restores;
  }
  ASSERT_GE(total.restores, 1u);
  // The log is a pure function of the submission sequence; probes and
  // restores must leave it untouched or replays diverge.
  EXPECT_EQ(host.admission_log().size(), log_after_admit);
  (void)id;
}

TEST(ServeBreaker, CloseWhileTrippedReleasesTheParkedSession) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker close-tripped");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());

  for (int i = 0; i < dt::scaled(60); ++i) {
    host.run_fleet_cycle();
    if (host.session_state(id) == ds::SessionState::kTripped) break;
  }
  ASSERT_EQ(host.session_state(id), ds::SessionState::kTripped);
  ASSERT_EQ(host.tripped_sessions(), 1u);

  host.close(id);
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(id), ds::SessionState::kClosed);
  EXPECT_EQ(host.tripped_sessions(), 0u);
  // And it must stay gone: no probe may resurrect a closed session.
  for (int i = 0; i < 30; ++i) host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(id), ds::SessionState::kClosed);
  EXPECT_EQ(host.active_sessions(), 0u);
}

TEST(ServeBreaker, DisabledBreakerNeverTrips) {
  ds::HostConfig cfg;
  cfg.threads = 2;  // cfg.breaker stays default (trip_failures == 0)
  ds::EngineHost host(cfg);
  const ds::SessionId id = host.submit(doomed_session());
  for (int i = 0; i < 30; ++i) host.run_fleet_cycle();
  // Pre-breaker behaviour: the session stays active and keeps missing
  // (its own supervisor ladder is the only mitigation).
  EXPECT_EQ(host.session_state(id), ds::SessionState::kActive);
  EXPECT_EQ(host.tripped_sessions(), 0u);
}

TEST(ServeBreaker, SnapshotRestoresDegradationLevelAndCost) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker snapshot");
  // K equals the ladder's overrun trip. The snapshot holds a degraded
  // level only if the ladder stepped before the trip (K >= overrun_trip),
  // and the breaker trips at all only if it counts K misses before the
  // degraded cycles turn clean (K <= overrun_trip): clean degraded cycles
  // are not breaker failures (DESIGN.md §12). With K == overrun_trip the
  // third kFull miss steps the ladder to kBypassFx and trips the breaker
  // in the same tick; trip_session runs after the dispatch loop, so the
  // snapshot records kBypassFx.
  ds::HostConfig cfg = breaker_host(/*k=*/0, /*backoff_ms=*/5.0);
  cfg.breaker.trip_failures = cfg.supervisor.overrun_trip;  // default 3
  // The snapshot carries the session's cost estimate back to the probe;
  // it changes only through recalibrate(), which this test never calls.
  // Admit probes unconditionally so the test stays independent of probe
  // admission (covered elsewhere) and exercises snapshot/restore only.
  cfg.admission.utilization_bound = 50.0;
  ds::EngineHost host(cfg);
  const ds::SessionId id = host.submit(doomed_session());

  // Let the session run long enough that its own ladder degrades it,
  // then trip + restore; the restored session must come back degraded
  // (not at full quality, where it would instantly fault again).
  bool restored = false;
  // Timeline: the trip lands on cycle 3, and the probe after 5 ms +/- 20%
  // of virtual time, i.e. 2-3 ticks of 2902.5 us later. The budget is far
  // above that; a loaded or sanitized run may re-trip on a probe first.
  for (int i = 0; i < dt::scaled(600) && !restored; ++i) {
    host.run_fleet_cycle();
    for (const dj::Event& e : host.journal().drain_all()) {
      if (e.kind == dj::EventKind::kSessionRestored) restored = true;
    }
  }
  ASSERT_TRUE(restored);
  const ds::Session* s = host.session(id);
  if (s != nullptr) {  // may have re-tripped already; both are fine
    EXPECT_GT(s->supervisor().level(), djstar::engine::DegradationLevel::kFull);
  }
}
