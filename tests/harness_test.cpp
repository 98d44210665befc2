// Harness-level tests: the checkpoint scheduler's interval rule
// (Section 5.1), experiment aggregation, and statistics plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "stats/energy.hpp"
#include "stats/table.hpp"
#include "stats/welford.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;

// ---------------------------------------------------------------------
// Welford / tables
// ---------------------------------------------------------------------

TEST(Welford, MeanVarianceMinMax) {
  stats::Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
  EXPECT_EQ(w.count(), 8u);
}

TEST(Welford, MergeMatchesPooled) {
  stats::Welford a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Welford, ConfidenceIntervalShrinks) {
  stats::Welford small, large;
  sim::Rng rng(1);
  for (int i = 0; i < 20; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 2000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
  EXPECT_TRUE(large.ci_within(0.1));  // the paper's 10% criterion
}

TEST(TextTable, AlignsColumns) {
  stats::TextTable t({"a", "long header"});
  t.add_row({"xxxxx", "1"});
  std::string out = t.render();
  // Three lines: header, separator, row — all the same width.
  std::size_t p1 = out.find('\n');
  std::size_t p2 = out.find('\n', p1 + 1);
  std::size_t p3 = out.find('\n', p2 + 1);
  EXPECT_EQ(p1, p2 - p1 - 1);
  EXPECT_EQ(p1, p3 - p2 - 1);
}

// ---------------------------------------------------------------------
// Energy ledger
// ---------------------------------------------------------------------

TEST(Energy, JoulesFromAirtime) {
  stats::ProcessEnergy e;
  e.tx_bytes = 250000;  // 1 s of airtime at 2 Mbps
  e.rx_bytes = 250000;
  stats::RadioParams r;
  EXPECT_NEAR(e.joules(r), 1.6 + 1.2, 1e-9);
  e.bulk_bytes = 500000;  // a checkpoint transfer: 2 s of tx
  EXPECT_NEAR(e.joules(r), 1.6 + 1.2 + 3.2, 1e-9);
}

TEST(Energy, RunAccountingAddsUp) {
  SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kCaoSinghal;
  System sys(opts);
  sys.simulator().schedule_at(sim::milliseconds(10),
                              [&sys] { sys.send(1, 2); });
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.initiate(2); });
  sys.simulator().run_until(sim::kTimeNever);

  stats::ProcessEnergy totals = sys.stats().energy.totals();
  EXPECT_EQ(totals.tx_comp_msgs, 1u);
  EXPECT_EQ(totals.rx_comp_msgs, 1u);
  // Requests/replies + one commit broadcast transmission.
  EXPECT_GT(totals.tx_sys_msgs, 0u);
  // The broadcast wakes all three non-initiators.
  EXPECT_GE(totals.rx_sys_msgs, 3u);
  // Two tentative checkpoints crossed the air.
  EXPECT_EQ(totals.bulk_bytes, 2u * 500000u);
  EXPECT_GT(sys.stats().energy.total_joules(), 3.0);
}

// ---------------------------------------------------------------------
// Checkpoint scheduler
// ---------------------------------------------------------------------

TEST(Scheduler, FiresRoughlyEveryIntervalPerProcess) {
  SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kCaoSinghal;
  System sys(opts);
  harness::SchedulerOptions so;
  so.interval = sim::seconds(100);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(sim::seconds(1000));
  sys.simulator().run_until(sim::kTimeNever);
  // ~10 intervals x 4 processes, minus serialization slack.
  EXPECT_GE(sched.initiations_fired(), 30u);
  EXPECT_LE(sched.initiations_fired(), 44u);
}

TEST(Scheduler, ForcedCheckpointPushesScheduleOut) {
  // Paper: "If a process takes a checkpoint before its scheduled
  // checkpoint time, the next checkpoint will be scheduled 900s after
  // that time." A process swept into another initiation must not fire
  // its own right after.
  SystemOptions opts;
  opts.num_processes = 2;
  opts.algorithm = Algorithm::kCaoSinghal;
  System sys(opts);
  // Dependency so P1 is swept into P0's initiations.
  sys.simulator().schedule_at(sim::milliseconds(10),
                              [&sys] { sys.send(1, 0); });
  harness::SchedulerOptions so;
  so.interval = sim::seconds(100);
  so.stagger_start = false;  // both nominally due at t=100s
  harness::CheckpointScheduler sched(sys, so);
  sched.start(sim::seconds(150));
  sys.simulator().run_until(sim::kTimeNever);
  // Only one initiation total: the other process's timer found a fresh
  // checkpoint and pushed out past the horizon.
  EXPECT_EQ(sched.initiations_fired(), 1u);
  EXPECT_EQ(sys.tracker().initiation_count(), 1u);
}

TEST(Scheduler, SerializationPreventsOverlap) {
  SystemOptions opts;
  opts.num_processes = 6;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.seed = 3;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.5,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(600));
  harness::SchedulerOptions so;
  so.interval = sim::seconds(60);
  harness::CheckpointScheduler sched(sys, so);
  sched.start(sim::seconds(600));
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_GT(sched.retries(), 0u);  // overlaps were actually deferred
  EXPECT_TRUE(sys.check_consistency().consistent);
}

TEST(Scheduler, RejectsBadOptionsAtConstruction) {
  SystemOptions opts;
  opts.num_processes = 4;
  System sys(opts);
  auto make = [&sys](harness::SchedulerOptions so) {
    harness::CheckpointScheduler sched(sys, so);
  };
  harness::SchedulerOptions so;
  so.interval = 0;
  EXPECT_THROW(make(so), std::invalid_argument);
  so.interval = -sim::seconds(5);
  EXPECT_THROW(make(so), std::invalid_argument);
  so = {};
  so.retry_delay = 0;
  EXPECT_THROW(make(so), std::invalid_argument);
  so.retry_delay = -1;
  EXPECT_THROW(make(so), std::invalid_argument);
  so = {};
  so.initiator_limit = -1;
  EXPECT_THROW(make(so), std::invalid_argument);
  so = {};
  EXPECT_NO_THROW(make(so));
  try {
    so.interval = 0;
    make(so);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("interval"), std::string::npos)
        << e.what();
  }
}

TEST(Scheduler, RejectsAnIntervalTooShortToStagger) {
  // The stagger draw's mean is interval / (4 * initiators); at 1 ns it
  // would be zero and trip the exponential's `mean > 0` assert.
  SystemOptions opts;
  opts.num_processes = 4;
  System sys(opts);
  harness::SchedulerOptions so;
  so.interval = 1;
  harness::CheckpointScheduler sched(sys, so);
  EXPECT_THROW(sched.start(sim::seconds(10)), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Experiment runner
// ---------------------------------------------------------------------

TEST(Experiment, ReplicationMergesSamples) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 6;
  cfg.sys.seed = 1;
  cfg.rate = 0.05;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(1200);

  harness::RunResult one = harness::run_experiment(cfg);
  harness::RunResult three = harness::run_replicated(cfg, 3);
  EXPECT_GT(one.committed, 0u);
  EXPECT_GT(three.committed, 2 * one.committed);
  EXPECT_EQ(three.tentative_per_init.count(), three.committed);
  EXPECT_TRUE(three.consistent);
}

TEST(Experiment, DeterministicForSameSeed) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 6;
  cfg.sys.seed = 42;
  cfg.rate = 0.1;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(1200);

  harness::RunResult a = harness::run_experiment(cfg);
  harness::RunResult b = harness::run_experiment(cfg);
  EXPECT_EQ(a.comp_msgs, b.comp_msgs);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_DOUBLE_EQ(a.tentative_per_init.mean(), b.tentative_per_init.mean());
  EXPECT_DOUBLE_EQ(a.commit_delay_s.mean(), b.commit_delay_s.mean());

  cfg.sys.seed = 43;
  harness::RunResult c = harness::run_experiment(cfg);
  EXPECT_NE(a.comp_msgs, c.comp_msgs);
}


TEST(Experiment, TchDecompositionMatchesPaperPremise) {
  // Section 5.3: T_ch = T_msg + T_data (+ T_disk = 0). The paper's
  // premise "the message delay is far less than the time between two
  // checkpoint intervals" shows up as T_msg (sub-millisecond request
  // propagation) being dwarfed by T_data (seconds of checkpoint
  // transfers).
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = 77;
  cfg.rate = 0.05;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(1800);
  harness::RunResult res = harness::run_experiment(cfg);
  ASSERT_GT(res.committed, 0u);
  EXPECT_LT(res.t_msg_s.mean(), 0.01);
  EXPECT_GT(res.t_data_s.mean(), 1.0);
  EXPECT_NEAR(res.commit_delay_s.mean(),
              res.t_msg_s.mean() + res.t_data_s.mean(), 1e-9);
}

TEST(ExperimentConfigValidate, RejectsWhatNoRunCanUse) {
  harness::ExperimentConfig ok;
  EXPECT_NO_THROW(ok.validate());
  auto bad = [](auto mutate) {
    harness::ExperimentConfig c;
    mutate(c);
    return c;
  };
  using C = harness::ExperimentConfig;
  EXPECT_THROW(bad([](C& c) { c.horizon = -sim::seconds(3600); }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.horizon = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.ckpt_interval = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.sys.num_processes = 1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.sys.lan.bandwidth_bps = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.rate = std::nan(""); }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) {
                 c.workload = harness::WorkloadKind::kGroup;
                 c.groups = 3;  // does not divide the default 16
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) {
                 c.workload = harness::WorkloadKind::kGroup;
                 c.group_ratio = 0;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) {
                 c.capture_timeline = true;
                 c.timeline_interval = 0;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(bad([](C& c) { c.initiator_limit = -1; }).validate(),
               std::invalid_argument);
  // run_replicated validates before any repetition starts.
  EXPECT_THROW(harness::run_replicated(
                   bad([](C& c) { c.horizon = -1; }), 2, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace mck
