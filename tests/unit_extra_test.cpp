// Additional unit coverage: trigger/payload helpers, message taxonomy,
// store edge cases, EJZ's csn-forced path under jitter, Koo-Toueg deferred
// send ordering, Chandy-Lamport on a shared medium, and cellular
// reconnect edge cases.
#include <gtest/gtest.h>

#include "core/trigger.hpp"
#include "harness/system.hpp"
#include "util/log.hpp"
#include "workload/traffic.hpp"

namespace mck {
namespace {

using harness::Algorithm;
using harness::System;
using harness::SystemOptions;
using workload::ScriptStep;
using workload::ScriptedWorkload;
using K = ScriptStep::Kind;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

TEST(Trigger, EqualityAndValidity) {
  core::Trigger a{2, 5}, b{2, 5}, c{2, 6}, d{3, 5};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(core::kNullTrigger.valid());
  EXPECT_EQ(core::kNullTrigger.initiation(), 0u);
  EXPECT_EQ(a.to_string(), "(P2,5)");
  EXPECT_EQ(core::kNullTrigger.to_string(), "(null)");
}

TEST(Message, KindTaxonomy) {
  EXPECT_FALSE(rt::is_system(rt::MsgKind::kComputation));
  for (rt::MsgKind k : {rt::MsgKind::kRequest, rt::MsgKind::kReply,
                        rt::MsgKind::kCommit, rt::MsgKind::kAbort,
                        rt::MsgKind::kMarker, rt::MsgKind::kControl}) {
    EXPECT_TRUE(rt::is_system(k));
  }
  EXPECT_STREQ(rt::to_string(rt::MsgKind::kComputation), "computation");
  EXPECT_STREQ(rt::to_string(rt::MsgKind::kAbort), "abort");
}

TEST(Message, PayloadDowncast) {
  rt::Message m;
  auto p = std::make_shared<core::CompPayload>();
  p->csn = 7;
  m.payload = p;
  ASSERT_NE(m.payload_as<core::CompPayload>(), nullptr);
  EXPECT_EQ(m.payload_as<core::CompPayload>()->csn, 7u);
  EXPECT_EQ(m.payload_as<core::RequestPayload>(), nullptr);
}

TEST(BitVec, MergeCountAndToString) {
  util::BitVec a(4), b(4);
  a.set(0);
  b.set(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.to_string(), "1010");
  a.reset();
  EXPECT_FALSE(a.any());
}

// The word-packed storage has its interesting cases at the 64-bit word
// seams: sizes that don't fill the last word, and bits on either side of
// a word boundary.
TEST(BitVec, WordBoundarySizes) {
  for (std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                        std::size_t{129}}) {
    util::BitVec v(n);
    EXPECT_EQ(v.size(), n);
    EXPECT_FALSE(v.any());
    v.set(0);
    v.set(n - 1);
    if (n > 65) v.set(64);  // a third bit just past the first word seam
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(n - 1));
    EXPECT_EQ(v.count(), n > 65 ? 3u : 2u);
    v.set(n - 1, false);
    EXPECT_FALSE(v.test(n - 1));

    // Merge across the seam: OR must reach the tail word.
    util::BitVec w(n);
    w.set(n - 1);
    v.merge(w);
    EXPECT_TRUE(v.test(n - 1));

    // to_string has exactly n characters, one per element.
    EXPECT_EQ(v.to_string().size(), n);
  }
}

TEST(BitVec, EqualityIgnoresTailWordGarbagePath) {
  // set()/reset() never touch bits past n, so clearing the same elements
  // two different ways yields operator== equality.
  util::BitVec a(65), b(65);
  a.set(64);
  a.set(64, false);
  EXPECT_TRUE(a == b);
  a.set(3);
  EXPECT_FALSE(a == b);
  b.set(3);
  EXPECT_TRUE(a == b);
  // Different universe sizes never compare equal, even when both empty.
  EXPECT_FALSE(util::BitVec(64) == util::BitVec(65));
}

TEST(Log, LevelsGateOutput) {
  util::LogLevel saved = util::Log::level();
  util::Log::level() = util::LogLevel::kOff;
  EXPECT_FALSE(util::Log::enabled(util::LogLevel::kInfo));
  util::Log::level() = util::LogLevel::kInfo;
  EXPECT_TRUE(util::Log::enabled(util::LogLevel::kInfo));
  EXPECT_FALSE(util::Log::enabled(util::LogLevel::kTrace));
  util::Log::level() = saved;
}

TEST(Log, DisabledMacrosEvaluateNoArguments) {
  util::LogLevel saved = util::Log::level();
  int calls = 0;
  auto arg = [&calls] { return ++calls; };

  util::Log::level() = util::LogLevel::kOff;
  MCK_INFO("info %d", arg());
  MCK_TRACE("trace %d", arg());
  EXPECT_EQ(calls, 0);

  // Info on: the info argument is evaluated (and printed), trace is not.
  util::Log::level() = util::LogLevel::kInfo;
  testing::internal::CaptureStderr();
  MCK_INFO("info %d", arg());
  MCK_TRACE("trace %d", arg());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "info 1\n");
  EXPECT_EQ(calls, 1);

  util::Log::level() = util::LogLevel::kTrace;
  testing::internal::CaptureStderr();
  MCK_INFO("info %d", arg());
  MCK_TRACE("trace %d", arg());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "info 2\ntrace 3\n");
  EXPECT_EQ(calls, 3);

  // A statement macro: safe as the body of an unbraced if/else.
  util::Log::level() = util::LogLevel::kOff;
  if (calls > 0)
    MCK_TRACE("trace %d", arg());
  else
    MCK_INFO("info %d", arg());
  EXPECT_EQ(calls, 3);
  util::Log::level() = saved;
}

TEST(Store, CheckpointKindNames) {
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kMutable), "mutable");
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kDisconnect), "disconnect");
  EXPECT_STREQ(ckpt::to_string(ckpt::CkptKind::kInitial), "initial");
}

TEST(Store, PerProcessHistoryOrder) {
  // A history is the chain of checkpoints a process took, newest first;
  // the implicit initial checkpoint is not in it.
  ckpt::CheckpointStore store(2);
  ckpt::CkptRef a = store.take(0, ckpt::CkptKind::kTentative, 1, 0, 3, 10);
  ckpt::CkptRef other = store.take(1, ckpt::CkptKind::kMutable, 1, 0, 2, 15);
  ckpt::CkptRef b = store.take(0, ckpt::CkptKind::kMutable, 2, 0, 5, 20);
  std::vector<ckpt::CkptRef> hist;
  for (ckpt::CkptRef ref : store.of_process(0)) hist.push_back(ref);
  EXPECT_EQ(hist, (std::vector<ckpt::CkptRef>{b, a}));
  EXPECT_EQ(store.of_process(0).size(), 2u);
  EXPECT_EQ(store.get(b).prev, a);
  EXPECT_EQ(store.get(a).prev, ckpt::kNoCkpt);
  ASSERT_EQ(store.of_process(1).size(), 1u);
  EXPECT_EQ(*store.of_process(1).begin(), other);
}

TEST(Store, InitialCheckpointsAreImplicit) {
  // Every process starts from an implicit initial checkpoint (csn 0, no
  // events saved). It is counted, but has no record and no history entry.
  constexpr int kN = 3;
  ckpt::CheckpointStore store(kN);
  EXPECT_EQ(store.count(ckpt::CkptKind::kInitial), std::size_t{kN});
  EXPECT_TRUE(store.all().empty());
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_TRUE(store.of_process(p).empty());
    EXPECT_EQ(store.last_stable_taken_at(p), 0);
  }
  EXPECT_EQ(store.latest_permanent_line().cursors,
            std::vector<std::uint64_t>(kN, 0));

  // Refs below n stay reserved for the implicit checkpoints, so the first
  // one taken is ref n, as when the initials had records.
  ckpt::CkptRef a = store.take(1, ckpt::CkptKind::kTentative, 1, 0, 4, 10);
  EXPECT_EQ(a, ckpt::CkptRef{kN});
  store.make_permanent(a, 20);
  EXPECT_EQ(store.count(ckpt::CkptKind::kInitial), std::size_t{kN});
  EXPECT_EQ(store.count(ckpt::CkptKind::kPermanent), 1u);
  EXPECT_EQ(store.latest_permanent_line().cursors,
            (std::vector<std::uint64_t>{0, 4, 0}));

  // Uncoordinated recovery falls back to the implicit initial checkpoint
  // where no recorded one qualifies. Pinned against the store that kept a
  // record per initial checkpoint: the same lines, including a domino to
  // the initial state at t = 2 s.
  SystemOptions opts;
  opts.num_processes = 4;
  opts.algorithm = Algorithm::kUncoordinated;
  opts.seed = 6;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 0.5,
      [&sys](ProcessId x, ProcessId y) { sys.send(x, y); });
  wl.start(sim::seconds(600));
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kInitial), 4u);
  const ckpt::RecoveryOutcome early =
      sys.recovery().recover_uncoordinated(sim::seconds(2));
  EXPECT_EQ(early.line.cursors, (std::vector<std::uint64_t>{1, 0, 1, 0}));
  EXPECT_EQ(early.lost_events, 2324u);
  EXPECT_EQ(early.rollback_steps, 1u);
  EXPECT_TRUE(early.domino_to_start);
  const ckpt::RecoveryOutcome late =
      sys.recovery().recover_uncoordinated(sim::seconds(400));
  EXPECT_EQ(late.line.cursors,
            (std::vector<std::uint64_t>{366, 377, 355, 399}));
  EXPECT_EQ(late.lost_events, 829u);
  EXPECT_EQ(late.rollback_steps, 1u);
  EXPECT_FALSE(late.domino_to_start);
}

// ---------------------------------------------------------------------
// EJZ: the csn-forced checkpoint path (needs jitter to lose the race)
// ---------------------------------------------------------------------

TEST(ElnozahyJitter, ForcedByMessageUnderLoss) {
  // With heavy frame loss the broadcast request can be delayed past a
  // computation message carrying the new csn; the receiver must then
  // checkpoint *before* processing — the defining rule of [13].
  std::uint64_t forced_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemOptions opts;
    opts.num_processes = 8;
    opts.algorithm = Algorithm::kElnozahy;
    // ARQ with slow timeouts: requests routinely lose tens of ms, enough
    // for post-checkpoint computation messages to overtake them.
    opts.lan.loss_probability = 0.7;
    opts.lan.retry_backoff = sim::milliseconds(20);
    opts.seed = seed;
    System sys(opts);
    workload::PointToPointWorkload wl(
        sys.simulator(), sys.rng(), sys.n(), 20.0,
        [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
    wl.start(sim::seconds(120));
    sys.simulator().schedule_at(sim::seconds(60),
                                [&sys] { sys.initiate(0); });
    sys.simulator().run_until(sim::kTimeNever);
    forced_total += sys.stats().forced_by_message;
    EXPECT_TRUE(sys.check_consistency().consistent) << "seed " << seed;
  }
  EXPECT_GT(forced_total, 0u);
}

// ---------------------------------------------------------------------
// Koo-Toueg: deferred sends keep their order
// ---------------------------------------------------------------------

TEST(KooTouegDeferred, FlushPreservesSendOrder) {
  SystemOptions kt_opts;
  kt_opts.num_processes = 4;
  kt_opts.algorithm = Algorithm::kKooToueg;
  System sys(kt_opts);
  std::vector<MessageId> received;
  // P1's two deferred sends to P3 must arrive in submission order.
  sys.set_app_observer([&](const rt::Message& m) {
    if (m.dst == 3) received.push_back(m.id);
  });
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run({
      {sim::milliseconds(10), K::kSend, 1, 2},
      {sim::milliseconds(100), K::kInitiate, 2, -1},  // blocks P1
      {sim::milliseconds(200), K::kSend, 1, 3},       // deferred #1
      {sim::milliseconds(300), K::kSend, 1, 3},       // deferred #2
  });
  sys.simulator().run_until(sim::kTimeNever);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_LT(received[0], received[1]);
  EXPECT_EQ(sys.stats().blocked_sends_deferred, 2u);
}

// ---------------------------------------------------------------------
// Chandy-Lamport under shared-medium contention
// ---------------------------------------------------------------------

TEST(ChandyLamportShared, MarkersStillSeparateChannels) {
  SystemOptions opts;
  opts.num_processes = 5;
  opts.algorithm = Algorithm::kChandyLamport;
  opts.lan.mode = net::MediumMode::kShared;
  opts.seed = 4;
  System sys(opts);
  workload::PointToPointWorkload wl(
      sys.simulator(), sys.rng(), sys.n(), 1.0,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  wl.start(sim::seconds(300));
  sys.simulator().schedule_at(sim::seconds(150),
                              [&sys] { sys.initiate(0); });
  sys.simulator().run_until(sim::kTimeNever);
  auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_TRUE(inits[0]->committed());
  EXPECT_TRUE(sys.check_consistency().consistent);
}

// ---------------------------------------------------------------------
// Cellular edge cases
// ---------------------------------------------------------------------

TEST(CellularEdge, ReconnectIntoDifferentCellReroutesNothingStale) {
  SystemOptions opts;
  opts.num_processes = 3;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 3;
  System sys(opts);
  int delivered = 0;
  sys.set_app_observer([&](const rt::Message& m) {
    if (m.dst == 1) ++delivered;
  });

  sys.simulator().schedule_at(sim::milliseconds(10), [&] {
    sys.cao(1).on_disconnect();
    sys.cellular()->disconnect(1);
  });
  sys.simulator().schedule_at(sim::milliseconds(100),
                              [&sys] { sys.send(0, 1); });
  // Reconnect at a different MSS than the one holding the buffer.
  sys.simulator().schedule_at(sim::seconds(2), [&] {
    sys.cellular()->reconnect(1, 2);
  });
  sys.simulator().schedule_at(sim::seconds(3),
                              [&sys] { sys.send(0, 1); });
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sys.cellular()->mss_of(1), 2);
}

TEST(CellularEdge, BackToBackDisconnectCycles) {
  SystemOptions opts;
  opts.num_processes = 3;
  opts.algorithm = Algorithm::kCaoSinghal;
  opts.transport = harness::TransportKind::kCellular;
  opts.cellular.num_mss = 2;
  System sys(opts);
  int delivered = 0;
  sys.set_app_observer([&](const rt::Message& m) {
    if (m.dst == 1) ++delivered;
  });
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim::SimTime base = sim::seconds(10 * cycle + 1);
    sys.simulator().schedule_at(base, [&] {
      sys.cao(1).on_disconnect();
      sys.cellular()->disconnect(1);
    });
    sys.simulator().schedule_at(base + sim::seconds(1),
                                [&sys] { sys.send(0, 1); });
    sys.simulator().schedule_at(base + sim::seconds(5), [&, cycle] {
      sys.cellular()->reconnect(1, cycle % 2);
    });
  }
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(sys.store().count(ckpt::CkptKind::kDisconnect), 3u);
  EXPECT_EQ(sys.cellular()->messages_buffered(), 3u);
}

// ---------------------------------------------------------------------
// Mutable-overhead accounting
// ---------------------------------------------------------------------

TEST(MutableOverhead, ChargedPerMutableCheckpoint) {
  SystemOptions cs_opts;
  cs_opts.num_processes = 5;
  cs_opts.algorithm = Algorithm::kCaoSinghal;
  System sys(cs_opts);
  ScriptedWorkload wl(
      sys.simulator(),
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); },
      [&sys](ProcessId p) { sys.initiate(p); });
  wl.run({
      {sim::milliseconds(10), K::kSend, 3, 2},
      {sim::milliseconds(20), K::kSend, 4, 1},
      {sim::milliseconds(100), K::kInitiate, 2, -1},
      {sim::milliseconds(110), K::kSend, 3, 4},  // P4 takes a mutable
  });
  sys.simulator().run_until(sim::kTimeNever);
  EXPECT_EQ(sys.stats().mutable_taken, 1u);
  // 2.5 ms memory copy per mutable checkpoint (Section 5.1).
  EXPECT_EQ(sys.stats().mutable_overhead_time, sim::microseconds(2500));
}

}  // namespace
}  // namespace mck
