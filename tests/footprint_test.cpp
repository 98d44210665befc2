// Per-host memory footprint tripwire for the scale path. At n = 1M every
// byte a System holds per process costs a megabyte, so this test pins two
// numbers with an instrumented operator new that tracks live heap bytes:
//
//  * construction: heap bytes per host of a fig_scale-style System (Cao-
//    Singhal on the cellular transport) stay under a stated budget;
//  * commit broadcasts: every host learns of every termination, yet the
//    per-host state must not grow with the number of commits.
//
// The counter is tests/live_heap.hpp; the tests skip themselves when
// sanitizer builds route allocations around it.
#include <cstdint>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "harness/system.hpp"
#include "live_heap.hpp"

namespace mck {
namespace {

using test::live_bytes;

constexpr int kHosts = 100000;

/// fig_scale's n = 100k System: Cao-Singhal on 32 MSSs.
harness::SystemOptions scale_options() {
  harness::SystemOptions o;
  o.num_processes = kHosts;
  o.algorithm = harness::Algorithm::kCaoSinghal;
  o.transport = harness::TransportKind::kCellular;
  o.cellular.num_mss = 32;
  o.cellular.cells_per_mss = kHosts / 64 / 32;
  o.timing.record_wire_bytes = true;
  return o;
}

// Measured 294 B/host (gcc 12, x86-64): 216 B protocol object, 56 B
// energy ledger, 9 B cellular placement, 8 B event log, 4 B checkpoint
// history head. A record and a 32-B history per host for the implicit
// initial checkpoint measured 405 B; a context, options and sink copied
// into every process on top of that, 782 B.
constexpr double kConstructBudgetPerHost = 330.0;

TEST(Footprint, ConstructionHeapBytesPerHostStayUnderBudget) {
  if (!test::live_heap_counted()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  const std::int64_t before = live_bytes();
  auto sys = std::make_unique<harness::System>(scale_options());
  const double per_host =
      static_cast<double>(live_bytes() - before) / kHosts;
  std::printf("footprint: construction %.1f heap B/host at n = %d\n",
              per_host, kHosts);
  EXPECT_LE(per_host, kConstructBudgetPerHost)
      << "System construction holds " << per_host << " heap bytes per host";
}

TEST(Footprint, CheckpointStoreCostsAtMostEightBytesPerHost) {
  // Initial checkpoints are implicit and a history is a 4-byte head, so
  // an idle host costs the store no record and no history chunk.
  if (!test::live_heap_counted()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  const std::int64_t before = live_bytes();
  auto store = std::make_unique<ckpt::CheckpointStore>(kHosts);
  const double per_host =
      static_cast<double>(live_bytes() - before) / kHosts;
  std::printf("footprint: checkpoint store %.1f heap B/host at n = %d\n",
              per_host, kHosts);
  EXPECT_LE(per_host, 8.0)
      << "CheckpointStore holds " << per_host << " heap bytes per host";
}

TEST(Footprint, CommitBroadcastsAddNoPerHostState) {
  if (!test::live_heap_counted()) GTEST_SKIP() << "allocator interposed (sanitizer)";
  harness::System sys(scale_options());
  // Every round has one initiator and no dependencies: it takes a
  // tentative checkpoint, commits, and broadcasts the commit to all n
  // hosts, each of which records that the initiation terminated. The
  // same initiator every time: each new broadcast *source* legitimately
  // adds one 8-byte FIFO channel per host (see HotPathAllocs).
  auto round = [&sys] {
    sys.initiate(0);
    sys.simulator().run_until(sim::kTimeNever);
  };
  round();  // warm: fan-out row, pools, event slots
  const std::int64_t warm = live_bytes();
  constexpr int kRounds = 8;
  for (int i = 0; i < kRounds; ++i) round();
  const std::int64_t growth = live_bytes() - warm;
  std::printf("footprint: %d commit broadcasts grew live heap by %lld B\n",
              kRounds, static_cast<long long>(growth));

  const auto inits = sys.tracker().in_order();
  ASSERT_EQ(inits.size(), 1u + kRounds);
  for (const ckpt::InitiationStats* st : inits) {
    ASSERT_TRUE(st->committed());
    EXPECT_EQ(st->commits, static_cast<std::uint64_t>(kHosts - 1));
  }
  // Run-constant bookkeeping (tracker records, one checkpoint record per
  // round) is a few KB; anything per host would be >= kHosts bytes.
  EXPECT_LT(growth, kHosts / 4)
      << kRounds << " commit broadcasts grew live heap by " << growth
      << " bytes (" << static_cast<double>(growth) / kHosts << " B/host)";
}

}  // namespace
}  // namespace mck
