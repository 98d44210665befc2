// Unit tests for the checkpoint substrate: event log, store, consistency
// checker and rollback recovery — the executable oracle for Theorem 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"

namespace mck::ckpt {
namespace {

TEST(EventLog, CursorsAdvancePerEvent) {
  EventLog log(3);
  EXPECT_EQ(log.cursor(0), 0u);
  MessageId m = log.record_send(0, 1, 0);
  EXPECT_EQ(log.cursor(0), 1u);
  EXPECT_EQ(log.cursor(1), 0u);
  log.record_recv(m, 1, 5);
  EXPECT_EQ(log.cursor(1), 1u);
}

TEST(EventLog, OrphanDetection) {
  EventLog log(2);
  // P0 sends m after its checkpoint; P1 receives it before its checkpoint.
  MessageId m = log.record_send(0, 1, 0);  // send_event 0 at P0
  log.record_recv(m, 1, 1);                // recv_event 0 at P1
  Line line(2);
  line[0] = 0;  // P0's checkpoint excludes the send
  line[1] = 1;  // P1's checkpoint includes the receive
  auto orphans = log.find_orphans(line);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].src, 0);
  EXPECT_EQ(orphans[0].dst, 1);

  // A line that also includes the send is consistent.
  line[0] = 1;
  EXPECT_TRUE(log.find_orphans(line).empty());
  // A line that includes neither is consistent (message in transit).
  line[0] = 0;
  line[1] = 0;
  EXPECT_TRUE(log.find_orphans(line).empty());
}

TEST(EventLog, InTransitCount) {
  EventLog log(2);
  MessageId m1 = log.record_send(0, 1, 0);
  log.record_send(0, 1, 1);  // m2 never received
  log.record_recv(m1, 1, 2);
  Line line(2);
  line[0] = 2;  // both sends recorded
  line[1] = 0;  // no receive recorded
  EXPECT_EQ(log.count_in_transit(line), 2u);
  line[1] = 1;  // m1's receive recorded
  EXPECT_EQ(log.count_in_transit(line), 1u);
}

TEST(EventLog, ZeroAndFullLines) {
  EventLog log(2);
  MessageId m1 = log.record_send(0, 1, 0);
  log.record_recv(m1, 1, 1);
  log.record_send(1, 0, 2);  // still in flight (recv_event == kNoEvent)

  // The zero line covers no events: nothing can be orphaned and neither
  // send is inside it, so nothing is in transit across it either.
  Line zero(2);
  EXPECT_TRUE(log.find_orphans(zero).empty());
  EXPECT_EQ(log.count_in_transit(zero), 0u);

  // The full line covers everything: every receive has its send, and only
  // the never-received message crosses the cut.
  Line full(2);
  full[0] = log.cursor(0);
  full[1] = log.cursor(1);
  EXPECT_TRUE(log.find_orphans(full).empty());
  EXPECT_EQ(log.count_in_transit(full), 1u);
}

TEST(EventLog, IdLookupSurvivesSystemIdAllocation) {
  EventLog log(3);
  // System messages draw MessageIds from the same sequence but create no
  // log record; the id->slot index must keep finding the computation
  // records in between.
  log.next_msg_id();
  log.next_msg_id();
  MessageId a = log.record_send(0, 1, 0);
  log.next_msg_id();
  MessageId b = log.record_send(2, 1, 1);
  EXPECT_LT(a, b);
  log.record_recv(b, 1, 2);
  log.record_recv(a, 1, 3);

  ASSERT_EQ(log.messages().size(), 2u);
  const MsgRecord& ra = log.messages()[0];
  EXPECT_EQ(ra.id, a);
  EXPECT_EQ(ra.src, 0);
  EXPECT_EQ(ra.recv_event, 1u);  // processed second at P1
  const MsgRecord& rb = log.messages()[1];
  EXPECT_EQ(rb.id, b);
  EXPECT_EQ(rb.src, 2);
  EXPECT_EQ(rb.recv_event, 0u);  // processed first at P1
}

TEST(Store, LifecyclePermanent) {
  CheckpointStore store(2);
  CkptRef ref = store.take(0, CkptKind::kTentative, 1, 42, 7, 100);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kTentative);
  store.make_permanent(ref, 200);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kPermanent);
  EXPECT_EQ(store.get(ref).finalized_at, 200);
  Line line = store.latest_permanent_line();
  EXPECT_EQ(line[0], 7u);
  EXPECT_EQ(line[1], 0u);
}

TEST(Store, MutablePromotion) {
  CheckpointStore store(2);
  CkptRef ref = store.take(1, CkptKind::kMutable, 1, 0, 3, 50);
  store.promote_to_tentative(ref, 99, 80);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kTentative);
  EXPECT_EQ(store.get(ref).initiation, 99u);
  // The promoted checkpoint's state is the one captured at take time.
  EXPECT_EQ(store.get(ref).event_cursor, 3u);
  EXPECT_EQ(store.get(ref).taken_at, 50);
}

TEST(Store, DiscardedExcludedFromLine) {
  CheckpointStore store(1);
  CkptRef ref = store.take(0, CkptKind::kTentative, 1, 0, 9, 10);
  store.discard(ref);
  EXPECT_EQ(store.latest_permanent_line()[0], 0u);
  EXPECT_EQ(store.count(CkptKind::kTentative), 0u);
}

TEST(Store, LastStableTakenAt) {
  CheckpointStore store(1);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);
  store.take(0, CkptKind::kMutable, 1, 0, 1, 30);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);  // mutable does not count
  CkptRef t = store.take(0, CkptKind::kTentative, 2, 0, 2, 70);
  EXPECT_EQ(store.last_stable_taken_at(0), 70);
  store.discard(t);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);
}

TEST(InitiationId, PacksAndUnpacks) {
  InitiationId id = make_initiation_id(13, 0xBEEF);
  EXPECT_EQ(initiation_pid(id), 13);
  EXPECT_EQ(initiation_inum(id), 0xBEEFu);
}

TEST(Checker, CommitOrderLinesChecked) {
  EventLog log(2);
  CoordinationTracker tracker;

  // Initiation A: both processes checkpoint at cursor 0 (before traffic).
  InitiationStats& a = tracker.open(make_initiation_id(0, 1), 0, 0);
  a.line_updates = {{0, 0}, {1, 0}};
  a.committed_at = 10;

  // Traffic: P0 -> P1 delivered.
  MessageId m = log.record_send(0, 1, 20);
  log.record_recv(m, 1, 30);

  // Initiation B: only P1 checkpoints, *including* the receive — P0's
  // line entry stays at 0, the send is outside: orphan.
  InitiationStats& b = tracker.open(make_initiation_id(1, 1), 1, 40);
  b.line_updates = {{1, 1}};
  b.committed_at = 50;

  ConsistencyChecker checker(log, tracker);
  CheckResult res = checker.check_all();
  EXPECT_FALSE(res.consistent);
  ASSERT_EQ(res.orphans.size(), 1u);
  EXPECT_EQ(res.lines_checked, 2u);

  // Fixing B to also include P0's send restores consistency.
  b.line_updates.push_back({0, 1});
  CheckResult res2 = ConsistencyChecker(log, tracker).check_all();
  EXPECT_TRUE(res2.consistent);
}

TEST(Checker, OrphanAcrossLinesAndLateReceive) {
  EventLog log(3);
  CoordinationTracker tracker;
  MessageId ma = log.record_send(0, 1, 1);  // P0 ev 0
  log.record_recv(ma, 1, 2);                // P1 ev 0
  MessageId mb = log.record_send(2, 0, 3);  // P2 ev 0
  MessageId mc = log.record_send(2, 1, 4);  // P2 ev 1
  log.record_recv(mc, 1, 5);                // P1 ev 1

  // Lines are opened out of commit order; the checker replays them by
  // committed_at.
  auto line = [&tracker](Csn inum, sim::SimTime committed_at,
                         std::vector<std::pair<ProcessId, std::uint64_t>> u) {
    InitiationStats& s = tracker.open(make_initiation_id(0, inum), 0, 0);
    s.line_updates = std::move(u);
    s.committed_at = committed_at;
  };
  line(1, 10, {{0, 0}, {1, 0}, {2, 0}});  // L0: the empty line
  line(3, 30, {{1, 2}, {2, 0}});          // L2: P2's update does not raise
  line(2, 20, {{1, 1}, {2, 1}});          // L1: ma received, not sent
  line(4, 40, {{2, 2}});                  // L3: mc's send joins the line
  log.record_recv(mb, 0, 6);              // P0 ev 1
  line(5, 50, {{0, 2}});                  // L4: ma's send, mb's receive

  // ma is an orphan on L1, L2 and L3; mc on L2 only. mb is sent in L1 and
  // received in L4: in transit across L1, L2 and L3.
  CheckResult res = ConsistencyChecker(log, tracker).check_all();
  EXPECT_FALSE(res.consistent);
  EXPECT_EQ(res.lines_checked, 5u);
  EXPECT_EQ(res.in_transit_total, 3u);
  ASSERT_EQ(res.orphans.size(), 4u);
  const MessageId want[] = {ma, ma, mc, ma};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(res.orphans[i].msg, want[i]);
  EXPECT_EQ(res.orphans[0].src, 0);
  EXPECT_EQ(res.orphans[0].dst, 1);
  EXPECT_EQ(res.orphans[0].send_event, 0u);
  EXPECT_EQ(res.orphans[0].recv_event, 0u);
  EXPECT_EQ(res.orphans[2].src, 2);
  EXPECT_EQ(res.orphans[2].dst, 1);
  EXPECT_EQ(res.orphans[2].send_event, 1u);
  EXPECT_EQ(res.orphans[2].recv_event, 1u);
}

// The per-line reference: replay the committed lines in commit order and
// scan the whole log for each one with find_orphans / count_in_transit.
CheckResult reference_check(const EventLog& log,
                            const CoordinationTracker& tracker) {
  std::vector<const InitiationStats*> committed;
  for (const InitiationStats* s : tracker.in_order()) {
    if (s->committed()) committed.push_back(s);
  }
  std::stable_sort(committed.begin(), committed.end(),
                   [](const InitiationStats* a, const InitiationStats* b) {
                     return a->committed_at < b->committed_at;
                   });
  CheckResult ref;
  Line line(static_cast<std::size_t>(log.num_processes()));
  for (const InitiationStats* s : committed) {
    for (const auto& [pid, cursor] : s->line_updates) {
      if (cursor > line[pid]) line[pid] = cursor;
    }
    std::vector<Orphan> orphans = log.find_orphans(line);
    ref.orphans.insert(ref.orphans.end(), orphans.begin(), orphans.end());
    ref.in_transit_total += log.count_in_transit(line);
    ++ref.lines_checked;
  }
  ref.consistent = ref.orphans.empty();
  return ref;
}

void expect_same(const CheckResult& got, const CheckResult& want) {
  EXPECT_EQ(got.consistent, want.consistent);
  EXPECT_EQ(got.lines_checked, want.lines_checked);
  EXPECT_EQ(got.in_transit_total, want.in_transit_total);
  ASSERT_EQ(got.orphans.size(), want.orphans.size());
  for (std::size_t i = 0; i < got.orphans.size(); ++i) {
    const Orphan& g = got.orphans[i];
    const Orphan& w = want.orphans[i];
    if (g.msg != w.msg || g.src != w.src || g.dst != w.dst ||
        g.send_event != w.send_event || g.recv_event != w.recv_event) {
      ADD_FAILURE() << "orphan " << i << ": got msg " << g.msg << " P"
                    << g.src << "(ev " << g.send_event << ") -> P" << g.dst
                    << "(ev " << g.recv_event << "), want msg " << w.msg
                    << " P" << w.src << "(ev " << w.send_event << ") -> P"
                    << w.dst << "(ev " << w.recv_event << ")";
      return;  // one report per trial, not one per shifted orphan
    }
  }
}

// Randomized model check of the one-sweep checker against the per-line
// reference. Each trial interleaves sends and receives over n = 1..64
// processes and commits up to 500 lines between them. A line update
// mostly snapshots the process's current cursor (a consistent cut when
// every process does so), but some processes lag behind, some updates do
// not raise the line, some reach past the events logged so far, and some
// processes never appear in an update. Commit times tie often and are
// shuffled against the open order in half the trials; a few initiations
// never commit. Some messages are never received.
TEST(Checker, RandomizedModelCheckAgainstPerLineScans) {
  std::mt19937_64 rng(20261018);
  auto below = [&rng](std::uint64_t bound) {  // uniform in [0, bound)
    return bound == 0 ? 0 : rng() % bound;
  };
  std::size_t inconsistent = 0, consistent_with_lines = 0;
  std::size_t multi_line_orphans = 0;  // one message, several lines
  for (int trial = 0; trial < 160; ++trial) {
    const int n = 1 + static_cast<int>(below(64));
    const std::size_t num_sends = below(1500);
    const std::size_t num_lines = trial % 10 == 0 ? 0 : below(501);
    const bool shuffled = trial % 2 == 1;
    const bool honest = trial % 4 == 0;  // every update a current snapshot
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " sends=" << num_sends
                                      << " lines=" << num_lines);
    EventLog log(n);
    CoordinationTracker tracker;
    std::vector<char> silent(static_cast<std::size_t>(n));
    for (char& s : silent) s = !honest && below(5) == 0;

    // Lines are committed at these send steps (several may share one).
    std::vector<std::size_t> at_step(num_lines);
    for (std::size_t& a : at_step) a = below(num_sends + 1);
    std::sort(at_step.begin(), at_step.end());

    std::size_t next_line = 0;
    auto commit_lines_at = [&](std::size_t step) {
      for (; next_line < num_lines && at_step[next_line] == step;
           ++next_line) {
        const std::size_t k = next_line;
        InitiationStats& s = tracker.open(
            make_initiation_id(static_cast<ProcessId>(k % n),
                               static_cast<Csn>(k + 1)),
            0, 0);
        for (ProcessId p = 0; p < n; ++p) {
          if (silent[static_cast<std::size_t>(p)]) continue;
          std::uint64_t cur = log.cursor(p);
          if (honest) {
            s.line_updates.emplace_back(p, cur);
            continue;
          }
          switch (below(8)) {
            case 0: case 1: case 2:
              s.line_updates.emplace_back(p, cur);
              break;
            case 3:  // at most the cursor: often does not raise the line
              s.line_updates.emplace_back(p, below(cur + 1));
              break;
            case 4:  // beyond the events logged so far
              s.line_updates.emplace_back(p, cur + 1 + below(3));
              break;
            case 5:  // two updates of p in one line, the second lower
              s.line_updates.emplace_back(p, cur);
              s.line_updates.emplace_back(p, below(cur + 1));
              break;
            default:  // p lags: no update in this line
              break;
          }
        }
        std::shuffle(s.line_updates.begin(), s.line_updates.end(), rng);
        if (below(20) == 0) continue;  // never committed
        const std::uint64_t at = shuffled ? below(num_lines / 2 + 1) : k / 3;
        s.committed_at = static_cast<sim::SimTime>(at);
      }
    };

    std::vector<std::pair<MessageId, ProcessId>> in_flight;
    auto receive_one = [&] {
      std::size_t j = below(in_flight.size());
      log.record_recv(in_flight[j].first, in_flight[j].second, 0);
      in_flight[j] = in_flight.back();
      in_flight.pop_back();
    };
    for (std::size_t step = 0; step < num_sends; ++step) {
      commit_lines_at(step);
      for (std::size_t r = below(3); r > 0 && !in_flight.empty(); --r) {
        receive_one();
      }
      auto src = static_cast<ProcessId>(below(static_cast<std::uint64_t>(n)));
      auto dst = static_cast<ProcessId>(below(static_cast<std::uint64_t>(n)));
      in_flight.emplace_back(log.record_send(src, dst, 0), dst);
    }
    // Most of what is still in flight arrives; the rest never does.
    for (std::size_t r = in_flight.size() * 9 / 10; r > 0; --r) receive_one();
    commit_lines_at(num_sends);
    ASSERT_EQ(next_line, num_lines);

    CheckResult want = reference_check(log, tracker);
    CheckResult got = ConsistencyChecker(log, tracker).check_all();
    expect_same(got, want);
    if (!want.consistent) ++inconsistent;
    std::vector<MessageId> ids;
    for (const Orphan& o : want.orphans) ids.push_back(o.msg);
    std::sort(ids.begin(), ids.end());
    multi_line_orphans += static_cast<std::size_t>(
        ids.end() - std::unique(ids.begin(), ids.end()) > 0);
    if (want.consistent && want.lines_checked > 0) ++consistent_with_lines;
    if (honest) {
      EXPECT_TRUE(got.consistent);
    }
  }
  // Both verdicts, and orphans spanning several lines, must be exercised.
  EXPECT_GT(inconsistent, 20u);
  EXPECT_GT(consistent_with_lines, 20u);
  EXPECT_GT(multi_line_orphans, 20u);
}

TEST(Recovery, CoordinatedUsesLatestCommittedLine) {
  EventLog log(2);
  CheckpointStore store(2);
  CoordinationTracker tracker;

  MessageId m = log.record_send(0, 1, 5);
  log.record_recv(m, 1, 6);

  InitiationStats& a = tracker.open(make_initiation_id(0, 1), 0, 8);
  a.line_updates = {{0, 1}, {1, 1}};
  a.committed_at = 10;

  log.record_send(0, 1, 20);  // lost work after the line

  RecoveryManager rm(log, store, tracker);
  RecoveryOutcome at5 = rm.recover_coordinated(5);
  EXPECT_EQ(at5.line[0], 0u);  // nothing committed yet
  EXPECT_EQ(at5.lost_events, 3u);

  RecoveryOutcome at15 = rm.recover_coordinated(15);
  EXPECT_EQ(at15.line[0], 1u);
  EXPECT_EQ(at15.line[1], 1u);
  EXPECT_EQ(at15.lost_events, 1u);  // only the post-line send
}

TEST(Recovery, UncoordinatedRollbackPropagation) {
  EventLog log(2);
  CheckpointStore store(2);
  CoordinationTracker tracker;

  // P1 checkpoints after receiving m; P0 never checkpoints after sending.
  MessageId m = log.record_send(0, 1, 5);   // P0 event 0
  log.record_recv(m, 1, 6);                 // P1 event 0
  store.take(1, CkptKind::kTentative, 1, 0, 1, 7);  // includes receive

  RecoveryManager rm(log, store, tracker);
  RecoveryOutcome out = rm.recover_uncoordinated(100);
  // P1 must roll past its checkpoint to the initial state.
  EXPECT_EQ(out.line[1], 0u);
  EXPECT_TRUE(out.domino_to_start);
  EXPECT_GE(out.rollback_steps, 1u);
}

TEST(Recovery, UncoordinatedKeepsConsistentCheckpoints) {
  EventLog log(2);
  CheckpointStore store(2);
  CoordinationTracker tracker;

  MessageId m = log.record_send(0, 1, 5);
  store.take(0, CkptKind::kTentative, 1, 0, 1, 6);  // send included
  log.record_recv(m, 1, 7);
  store.take(1, CkptKind::kTentative, 1, 0, 1, 8);  // receive included

  RecoveryOutcome out =
      RecoveryManager(log, store, tracker).recover_uncoordinated(100);
  EXPECT_EQ(out.line[0], 1u);
  EXPECT_EQ(out.line[1], 1u);
  EXPECT_EQ(out.lost_events, 0u);
  EXPECT_FALSE(out.domino_to_start);
}

}  // namespace
}  // namespace mck::ckpt
