// The harness's O(1) "is any coordination in flight?" answer
// (System::any_coordination_active) reads a count the protocols keep
// themselves (rt::RunContext::coordinating). These runs step the
// simulator one event at a time and, after every event, recount the
// processes whose coordination_active() predicate is true — the O(n) scan
// the count replaced lives on only here, as the reference.
#include <cstddef>
#include <functional>

#include <gtest/gtest.h>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kCaoSinghal,    Algorithm::kKooToueg,
    Algorithm::kElnozahy,      Algorithm::kChandyLamport,
    Algorithm::kLaiYang,       Algorithm::kSimpleScheme,
    Algorithm::kRevisedScheme, Algorithm::kUncoordinated,
};

std::size_t scan_active(System& sys) {
  std::size_t active = 0;
  for (ProcessId p = 0; p < sys.n(); ++p) {
    if (sys.proto(p).coordination_active()) ++active;
  }
  return active;
}

/// Steps `sys` to quiescence, checking the count against the scan after
/// every event. Returns the number of events at which some process was
/// coordinating, so callers can see the check was not vacuous.
std::size_t step_and_check(System& sys, const char* what) {
  EXPECT_EQ(sys.coordinating_count(), scan_active(sys)) << what;
  std::size_t busy_events = 0;
  std::size_t events = 0;
  while (sys.simulator().step()) {
    ++events;
    const std::size_t expect = scan_active(sys);
    if (sys.coordinating_count() != expect) {
      ADD_FAILURE() << what << ": count " << sys.coordinating_count()
                    << " != " << expect << " active after event " << events
                    << " (t=" << sim::to_seconds(sys.simulator().now())
                    << " s)";
      return busy_events;
    }
    EXPECT_EQ(sys.any_coordination_active(), expect > 0);
    if (expect > 0) ++busy_events;
  }
  EXPECT_EQ(sys.coordinating_count(), 0u) << what << ": drained run";
  return busy_events;
}

TEST(CoordinationCount, EveryAlgorithmOnTheLan) {
  for (Algorithm a : kAllAlgorithms) {
    SystemOptions opts;
    opts.num_processes = 16;
    opts.algorithm = a;
    opts.seed = 11;
    System sys(opts);
    const sim::SimTime horizon = sim::seconds(1800);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 0.2,
        [&sys](ProcessId s, ProcessId d) { sys.send(s, d); });
    harness::SchedulerOptions so;
    so.interval = sim::seconds(300);
    harness::CheckpointScheduler sched(sys, so);
    wl.start(horizon);
    sched.start(horizon);
    const std::size_t busy = step_and_check(sys, harness::to_string(a));
    if (harness::has_committed_lines(a)) {
      EXPECT_GT(busy, 0u) << harness::to_string(a);
    }
  }
}

TEST(CoordinationCount, EveryAlgorithmOnCellularWithMobility) {
  for (Algorithm a : kAllAlgorithms) {
    SystemOptions opts;
    // A Chandy-Lamport snapshot floods n(n-1) markers: at n = 1000 that is
    // ~1M events per snapshot, each followed by the O(n) reference scan
    // (~7 s per snapshot), so that one algorithm runs at n = 250.
    opts.num_processes = a == Algorithm::kChandyLamport ? 250 : 1000;
    opts.algorithm = a;
    opts.seed = 12;
    opts.transport = harness::TransportKind::kCellular;
    opts.cellular.num_mss = 4;
    opts.cellular.cells_per_mss = 3;
    System sys(opts);
    const sim::SimTime horizon = sim::seconds(240);
    mobile::MobilityParams mp;
    mp.mean_residence = sim::seconds(60);
    mp.disconnect_probability = 0.3;
    mp.mean_disconnect = sim::seconds(20);
    mobile::MobilityModel mobility(sys.simulator(), sys.rng(),
                                   *sys.cellular(), mp);
    if (a == Algorithm::kCaoSinghal) {
      mobility.on_disconnect = [&sys](ProcessId p) {
        sys.cao(p).on_disconnect();
      };
    }
    mobility.start(horizon);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 0.02,
        [&sys](ProcessId s, ProcessId d) { sys.send(s, d); });
    harness::SchedulerOptions so;
    so.interval = sim::seconds(60);
    so.initiator_limit = 6;
    harness::CheckpointScheduler sched(sys, so);
    wl.start(horizon);
    sched.start(horizon);
    const std::size_t busy = step_and_check(sys, harness::to_string(a));
    if (harness::has_committed_lines(a)) {
      EXPECT_GT(busy, 0u) << harness::to_string(a);
    }
  }
}

TEST(CoordinationCount, KimParkPartialCommitUnderFailureChurn) {
  SystemOptions opts;
  opts.num_processes = 10;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.cs.failure_mode = core::FailureMode::kPartialCommit;
  opts.cs.decision_timeout = sim::seconds(90);
  opts.seed = 501;
  System sys(opts);
  const sim::SimTime horizon = sim::seconds(3600);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.05,
      [&sys](ProcessId s, ProcessId d) { sys.send(s, d); });
  harness::SchedulerOptions so;
  so.interval = sim::seconds(200);
  harness::CheckpointScheduler sched(sys, so);
  wl.start(horizon);
  sched.start(horizon);
  std::function<void(ProcessId)> churn = [&](ProcessId p) {
    sim::SimTime at =
        sys.simulator().now() + sys.rng().exponential(sim::seconds(400));
    if (at > horizon) return;
    sys.simulator().schedule_at(at, [&, p]() {
      sys.lan()->set_failed(p, true);
      sim::SimTime back =
          sys.simulator().now() + sys.rng().exponential(sim::seconds(45));
      sys.simulator().schedule_at(back, [&, p]() {
        sys.lan()->set_failed(p, false);
        sys.cao(p).on_restart();
        churn(p);
      });
    });
  };
  for (ProcessId p = 0; p < sys.n(); ++p) churn(p);
  EXPECT_GT(step_and_check(sys, "kim-park churn"), 0u);
  std::size_t aborted = 0;
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    if (st->aborted()) ++aborted;
  }
  EXPECT_GT(aborted, 0u) << "churn never hit a coordination";
}

TEST(CoordinationCount, ConcurrentInitiations) {
  SystemOptions opts;
  opts.num_processes = 16;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.cs.allow_concurrent = true;
  opts.seed = 42;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.3,
      [&sys](ProcessId s, ProcessId d) { sys.send(s, d); });
  wl.start(sim::seconds(1200));
  // Unserialized: every process fires on its own clock, so several
  // processes are coordinating at once.
  for (ProcessId p = 0; p < sys.n(); ++p) {
    for (int k = 1; k <= 4; ++k) {
      sim::SimTime at =
          sim::seconds(60 * k) + sys.rng().exponential(sim::seconds(30));
      sys.simulator().schedule_at(at, [&sys, p]() {
        if (!sys.proto(p).coordination_active()) sys.initiate(p);
      });
    }
  }
  std::size_t peak = 0;
  EXPECT_EQ(sys.coordinating_count(), 0u);
  while (sys.simulator().step()) {
    const std::size_t expect = scan_active(sys);
    ASSERT_EQ(sys.coordinating_count(), expect)
        << "t=" << sim::to_seconds(sys.simulator().now()) << " s";
    if (expect > peak) peak = expect;
  }
  EXPECT_GT(peak, 1u) << "initiations never overlapped";
  EXPECT_EQ(sys.coordinating_count(), 0u);
}

}  // namespace
}  // namespace mck
