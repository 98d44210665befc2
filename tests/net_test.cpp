// Unit tests for the network substrate: FIFO sequencing, LAN transport
// (dedicated and shared medium), and cellular transport mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobile/cellular.hpp"
#include "net/fifo.hpp"
#include "net/lan.hpp"

namespace mck {
namespace {

rt::Message make_msg(ProcessId src, ProcessId dst, std::uint64_t bytes,
                     rt::MsgKind kind = rt::MsgKind::kComputation) {
  rt::Message m;
  m.src = src;
  m.dst = dst;
  m.size_bytes = bytes;
  m.kind = kind;
  return m;
}

// ---------------------------------------------------------------------
// FifoSequencer
// ---------------------------------------------------------------------

/// Runs `msg` through the sequencer and collects what it releases.
std::vector<rt::Message> arrive_collect(net::FifoSequencer& fifo,
                                        rt::Message msg) {
  std::vector<rt::Message> out;
  fifo.arrive(std::move(msg),
              [&out](rt::Message m) { out.push_back(std::move(m)); });
  return out;
}

TEST(FifoSequencer, InOrderArrivalsPassThrough) {
  net::FifoSequencer fifo(2);
  rt::Message a = make_msg(0, 1, 10), b = make_msg(0, 1, 10);
  fifo.stamp(a);
  fifo.stamp(b);
  EXPECT_EQ(arrive_collect(fifo, a).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, b).size(), 1u);
}

TEST(FifoSequencer, OvertakerHeldUntilPredecessor) {
  net::FifoSequencer fifo(2);
  rt::Message a = make_msg(0, 1, 10), b = make_msg(0, 1, 10);
  fifo.stamp(a);  // seq 0
  fifo.stamp(b);  // seq 1
  // b arrives first: held back.
  EXPECT_TRUE(arrive_collect(fifo, b).empty());
  // a arrives: both released, in order.
  auto out = arrive_collect(fifo, a);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].channel_seq, 0u);
  EXPECT_EQ(out[1].channel_seq, 1u);
}

TEST(FifoSequencer, ChannelsAreIndependent) {
  net::FifoSequencer fifo(3);
  rt::Message a = make_msg(0, 1, 10);
  rt::Message b = make_msg(0, 2, 10);
  rt::Message c = make_msg(1, 2, 10);
  fifo.stamp(a);
  fifo.stamp(b);
  fifo.stamp(c);
  EXPECT_EQ(a.channel_seq, 0u);
  EXPECT_EQ(b.channel_seq, 0u);  // different channel, own numbering
  EXPECT_EQ(c.channel_seq, 0u);
  EXPECT_EQ(arrive_collect(fifo, c).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, b).size(), 1u);
  EXPECT_EQ(arrive_collect(fifo, a).size(), 1u);
}

TEST(FifoSequencer, LongReorderDrainsCompletely) {
  net::FifoSequencer fifo(2);
  std::vector<rt::Message> msgs;
  for (int i = 0; i < 10; ++i) {
    rt::Message m = make_msg(0, 1, 10);
    fifo.stamp(m);
    msgs.push_back(m);
  }
  // Arrive in reverse: everything is held until seq 0 shows up.
  for (int i = 9; i >= 1; --i) {
    EXPECT_TRUE(arrive_collect(fifo, msgs[static_cast<std::size_t>(i)]).empty());
  }
  auto out = arrive_collect(fifo, msgs[0]);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].channel_seq, i);
  }
}

TEST(FifoSequencer, SparseStorageAboveDenseLimitBehavesIdentically) {
  // Past 256 processes the sequencer switches from the dense n*n channel
  // table to lazily-created hash-map channels; ordering semantics must
  // not change. Exercise channels spread across the (src, dst) space.
  const int n = 1000;
  net::FifoSequencer fifo(n);
  for (ProcessId src : {0, 257, 999}) {
    const ProcessId dst = (src + 511) % n;
    rt::Message a = make_msg(src, dst, 10), b = make_msg(src, dst, 10);
    fifo.stamp(a);
    fifo.stamp(b);
    EXPECT_TRUE(arrive_collect(fifo, b).empty());
    auto out = arrive_collect(fifo, a);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].channel_seq, 0u);
    EXPECT_EQ(out[1].channel_seq, 1u);
  }
  // Reverse-direction channel is independent of the forward one.
  rt::Message r = make_msg(511, 0, 10);
  fifo.stamp(r);
  EXPECT_EQ(r.channel_seq, 0u);
  EXPECT_EQ(arrive_collect(fifo, r).size(), 1u);
}

/// Reference FIFO channels for the model check: a std::map keyed
/// (src, dst), with each channel's parked overtakers in an ordered set.
class RefFifo {
 public:
  std::uint32_t stamp(ProcessId src, ProcessId dst) {
    return chans_[{src, dst}].next_send++;
  }
  bool try_fast_deliver(ProcessId src, ProcessId dst, std::uint32_t seq) {
    Chan& c = chans_[{src, dst}];
    if (parked_ != 0 || seq != c.next_deliver) return false;
    ++c.next_deliver;
    return true;
  }
  /// Sequence numbers released by the arrival of `seq`, in order.
  std::vector<std::uint32_t> arrive(ProcessId src, ProcessId dst,
                                    std::uint32_t seq) {
    Chan& c = chans_[{src, dst}];
    std::vector<std::uint32_t> out;
    if (seq != c.next_deliver) {
      c.parked.insert(seq);
      ++parked_;
      return out;
    }
    out.push_back(c.next_deliver++);
    while (c.parked.erase(c.next_deliver) != 0) {
      --parked_;
      out.push_back(c.next_deliver++);
    }
    return out;
  }
  std::size_t parked() const { return parked_; }
  template <typename F>
  void for_each_channel(F&& f) const {
    for (const auto& [k, c] : chans_) f(k.first, k.second, c.next_send);
  }

 private:
  struct Chan {
    std::uint32_t next_send = 0;
    std::uint32_t next_deliver = 0;
    std::set<std::uint32_t> parked;
  };
  std::map<std::pair<ProcessId, ProcessId>, Chan> chans_;
  std::size_t parked_ = 0;
};

/// Randomized model check of FifoSequencer against RefFifo: point-to-point
/// stamps from a few hot sources, fan-out stamps walked in pid order like
/// a broadcast batch (fast path first, a few entries deferred so they
/// arrive out of order), and arrivals picked near the front of the
/// in-flight queue so overtaking is common. Each fan-out source gets its
/// row mid-stream, while it still has live sparse channels and a parked
/// overtaker. Every stamp and every released sequence must match.
void fifo_model_check(int n, std::uint64_t seed, int steps,
                      int fanout_every) {
  SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
  net::FifoSequencer fifo(n);
  RefFifo ref;
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int bound) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(bound));
  };
  std::vector<ProcessId> hot(8), dsts(24);
  for (ProcessId& p : hot) p = pick(n);
  for (ProcessId& p : dsts) p = pick(n);

  struct InFlight {
    ProcessId src;
    ProcessId dst;
    std::uint32_t seq;
  };
  std::deque<InFlight> flight;
  std::uint64_t stamped = 0, released = 0;

  auto send_p2p = [&](ProcessId src, ProcessId dst) {
    rt::Message m = make_msg(src, dst, 10);
    fifo.stamp(m);
    ASSERT_EQ(m.channel_seq, ref.stamp(src, dst)) << src << "->" << dst;
    flight.push_back({src, dst, static_cast<std::uint32_t>(m.channel_seq)});
    ++stamped;
  };
  auto deliver = [&](const InFlight& f) {
    rt::Message m = make_msg(f.src, f.dst, 10);
    m.channel_seq = f.seq;
    std::vector<std::uint32_t> got;
    for (const rt::Message& r : arrive_collect(fifo, m)) {
      ASSERT_EQ(r.src, f.src);
      ASSERT_EQ(r.dst, f.dst);
      got.push_back(r.channel_seq);
    }
    ASSERT_EQ(got, ref.arrive(f.src, f.dst, f.seq))
        << f.src << "->" << f.dst << " seq " << f.seq;
    released += got.size();
  };
  auto arrive_one = [&] {
    const std::size_t window = std::min<std::size_t>(flight.size(), 64);
    const std::size_t i =
        pick(10) < 7 ? 0
                     : static_cast<std::size_t>(pick(static_cast<int>(window)));
    const InFlight f = flight[i];
    flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
    deliver(f);
  };
  auto fan_out = [&](ProcessId src) {
    net::FifoSequencer::Row row = fifo.fanout_row(src);
    std::vector<InFlight> batch;
    batch.reserve(static_cast<std::size_t>(n));
    for (ProcessId d = 0; d < n; ++d) {
      if (d == src) continue;
      const std::uint32_t seq = row.stamp(d);
      ASSERT_EQ(seq, ref.stamp(src, d)) << "fan-out " << src << "->" << d;
      batch.push_back({src, d, seq});
      ++stamped;
    }
    for (const InFlight& f : batch) {
      if (pick(50) == 0) {
        flight.push_back(f);  // rerouted: arrives later, out of order
        continue;
      }
      const bool fast = row.try_fast_deliver(f.dst, f.seq);
      ASSERT_EQ(fast, ref.try_fast_deliver(f.src, f.dst, f.seq))
          << f.src << "->" << f.dst << " seq " << f.seq;
      if (fast) {
        ++released;
      } else {
        deliver(f);
      }
    }
  };

  std::set<ProcessId> has_row;
  for (int step = 0; step < steps; ++step) {
    if (step % fanout_every == fanout_every - 1) {
      const ProcessId src = hot[static_cast<std::size_t>(pick(4))];
      if (has_row.insert(src).second) {
        // Mid-stream row creation: src has live sparse channels, one of
        // them with a parked overtaker, when its first fan-out arrives.
        const ProcessId d = dsts[static_cast<std::size_t>(pick(24))];
        if (d != src) {
          send_p2p(src, d);
          send_p2p(src, d);
          const InFlight second = flight.back();
          flight.pop_back();
          deliver(second);
          ASSERT_GT(ref.parked(), 0u);
        }
      }
      fan_out(src);
      if (::testing::Test::HasFatalFailure()) return;
      if (n > 256) {
        EXPECT_EQ(fifo.fanout_rows(), has_row.size());
      } else {
        EXPECT_EQ(fifo.fanout_rows(), 0u) << "no rows in the dense regime";
      }
      continue;
    }
    if (flight.empty() || pick(2) == 0) {
      const ProcessId src = hot[static_cast<std::size_t>(pick(8))];
      const ProcessId dst = dsts[static_cast<std::size_t>(pick(24))];
      if (src != dst) send_p2p(src, dst);
    } else {
      arrive_one();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!flight.empty()) {
    arrive_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(ref.parked(), 0u);
  EXPECT_EQ(released, stamped);
  // Both sides agree on every channel's next sequence number.
  ref.for_each_channel([&](ProcessId src, ProcessId dst, std::uint32_t next) {
    EXPECT_EQ(fifo.stamp_channel(src, dst), next) << src << "->" << dst;
  });
}

TEST(FifoSequencer, ModelCheckDenseRegime) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    fifo_model_check(200, seed, 20000, 997);
  }
}

TEST(FifoSequencer, ModelCheckFanoutRowsAtN300) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    fifo_model_check(300, seed, 20000, 997);
  }
}

TEST(FifoSequencer, ModelCheckFanoutRowsAtN100k) {
  fifo_model_check(100000, 7, 12000, 3001);
}

TEST(FifoSequencer, RowCreationMovesLiveChannelsFromALargeTable) {
  // Row creation has two ways to find the source's sparse channels:
  // scan the table when it is smaller than a row, probe every
  // destination otherwise. Grow the table past n so the probe path runs.
  const int n = 300;
  net::FifoSequencer fifo(n);
  for (ProcessId src = 1; src < n; ++src) {
    for (ProcessId dst : {0, 5, 9}) (void)fifo.stamp_channel(src, dst);
  }
  for (ProcessId dst = 1; dst < n; dst += 7) {
    (void)fifo.stamp_channel(0, dst);
  }
  const std::size_t before = fifo.channel_bytes();
  net::FifoSequencer::Row row = fifo.fanout_row(0);
  EXPECT_EQ(fifo.channel_bytes(), before + 8u * n);
  for (ProcessId dst = 1; dst < n; ++dst) {
    EXPECT_EQ(row.stamp(dst), dst % 7 == 1 ? 1u : 0u) << dst;
  }
  // Channels of other sources survived the deletions around them.
  for (ProcessId src = 1; src < n; ++src) {
    for (ProcessId dst : {0, 5, 9}) {
      if (src != dst) {
        EXPECT_EQ(fifo.stamp_channel(src, dst), 1u);
      }
    }
  }
}

// ---------------------------------------------------------------------
// LanTransport
// ---------------------------------------------------------------------

struct LanFixture {
  sim::Simulator sim;
  net::LanTransport lan;
  std::vector<std::pair<ProcessId, sim::SimTime>> delivered;

  explicit LanFixture(int n, net::LanParams params = {})
      : lan(sim, n, params) {
    lan.set_sink([this](const rt::Message& m) {
      delivered.emplace_back(m.dst, sim.now());
    });
  }
};

TEST(LanTransport, ValidateRejectsOutOfRangeParams) {
  net::LanParams ok;
  EXPECT_NO_THROW(ok.validate());
  auto bad = [](auto mutate) {
    net::LanParams p;
    mutate(p);
    return p;
  };
  EXPECT_THROW(bad([](net::LanParams& p) { p.bandwidth_bps = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      bad([](net::LanParams& p) { p.bandwidth_bps = std::nan(""); }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      bad([](net::LanParams& p) { p.propagation_delay = -1; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      bad([](net::LanParams& p) { p.loss_probability = 1.0; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      bad([](net::LanParams& p) { p.loss_probability = -0.1; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(bad([](net::LanParams& p) { p.retry_backoff = -1; }).validate(),
               std::invalid_argument);
  sim::Simulator simu;
  EXPECT_THROW(
      net::LanTransport(simu, 2,
                        bad([](net::LanParams& p) { p.bandwidth_bps = -2; })),
      std::invalid_argument);
}

TEST(LanTransport, PaperDelaysExactly) {
  // 1 KB computation message at 2 Mbps -> 4 ms; 50 B system msg -> 0.2 ms.
  LanFixture f(2);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));

  LanFixture g(2);
  g.lan.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));
  g.sim.run_until();
  EXPECT_EQ(g.delivered[0].second, sim::microseconds(200));
}

TEST(LanTransport, SystemMessageDoesNotOvertakeComputation) {
  LanFixture f(2);
  f.lan.send(make_msg(0, 1, 1000));                          // arrives 4 ms
  f.lan.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));     // raw 0.2 ms
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  // FIFO: the system message waits for the computation message.
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));
  EXPECT_EQ(f.delivered[1].second, sim::milliseconds(4));
}

TEST(LanTransport, DifferentChannelsDoNotBlockEachOther) {
  LanFixture f(3);
  f.lan.send(make_msg(0, 1, 1000));
  f.lan.send(make_msg(0, 2, 50, rt::MsgKind::kRequest));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].first, 2);  // other channel flies past
  EXPECT_EQ(f.delivered[0].second, sim::microseconds(200));
}

TEST(LanTransport, SharedMediumSerializesTransmissions) {
  net::LanParams params;
  params.mode = net::MediumMode::kShared;
  LanFixture f(3, params);
  f.lan.send(make_msg(0, 1, 1000));  // occupies [0, 4ms]
  f.lan.send(make_msg(2, 1, 1000));  // occupies [4, 8ms]
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(4));
  EXPECT_EQ(f.delivered[1].second, sim::milliseconds(8));
}

TEST(LanTransport, BulkTransferSerializesOnTheMedium) {
  LanFixture f(2);
  // Two 500 KB checkpoints: 2 s each, back to back = the paper's
  // "checkpointing time (at most 2 * 16 = 32s)" behaviour.
  sim::SimTime t1 = f.lan.transfer_bulk(0, 500000);
  sim::SimTime t2 = f.lan.transfer_bulk(1, 500000);
  EXPECT_EQ(t1, sim::seconds(2));
  EXPECT_EQ(t2, sim::seconds(4));
}

TEST(LanTransport, BroadcastReachesAllButSender) {
  LanFixture f(4);
  f.lan.broadcast(make_msg(1, -1, 50, rt::MsgKind::kCommit));
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 3u);
  for (auto& [p, at] : f.delivered) {
    EXPECT_NE(p, 1);
    EXPECT_EQ(at, sim::microseconds(200));
  }
}

TEST(LanTransport, FailedProcessIsUnreachableAndSilenced) {
  LanFixture f(3);
  f.lan.set_failed(1, true);
  EXPECT_FALSE(f.lan.reachable(1));
  EXPECT_TRUE(f.lan.reachable(0));
  f.lan.send(make_msg(0, 1, 1000));  // to the dead: dropped
  f.lan.send(make_msg(1, 2, 1000));  // from the dead: dropped
  f.lan.send(make_msg(0, 2, 1000));  // alive pair: delivered
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, 2);
}

TEST(LanTransport, RepairRestoresDelivery) {
  LanFixture f(2);
  f.lan.set_failed(1, true);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  EXPECT_TRUE(f.delivered.empty());
  f.lan.set_failed(1, false);
  f.lan.send(make_msg(0, 1, 1000));
  f.sim.run_until();
  EXPECT_EQ(f.delivered.size(), 1u);
}

// ---------------------------------------------------------------------
// CellularTransport
// ---------------------------------------------------------------------

struct CellFixture {
  sim::Simulator sim;
  mobile::CellularTransport cell;
  std::vector<std::pair<ProcessId, sim::SimTime>> delivered;

  explicit CellFixture(int n, mobile::CellularParams params = {})
      : cell(sim, n, params) {
    cell.set_sink([this](const rt::Message& m) {
      delivered.emplace_back(m.dst, sim.now());
    });
  }
};

TEST(CellularTransport, IntraCellSkipsTheBackbone) {
  mobile::CellularParams params;
  params.num_mss = 2;
  params.wired_latency = sim::milliseconds(10);
  CellFixture f(4, params);  // P0,P2 in cell 0; P1,P3 in cell 1
  f.cell.send(make_msg(0, 2, 1000));  // same cell: 2 wireless hops = 8 ms
  f.cell.send(make_msg(0, 1, 1000));  // cross cell: + wired
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].first, 2);
  EXPECT_EQ(f.delivered[0].second, sim::milliseconds(8));
  EXPECT_GT(f.delivered[1].second, sim::milliseconds(18));
}

TEST(CellularTransport, BulkIsPerCellAndFreeWhileDisconnected) {
  mobile::CellularParams params;
  params.num_mss = 2;
  CellFixture f(4, params);
  sim::SimTime a = f.cell.transfer_bulk(0, 500000);  // cell 0
  sim::SimTime b = f.cell.transfer_bulk(1, 500000);  // cell 1: parallel
  sim::SimTime c = f.cell.transfer_bulk(2, 500000);  // cell 0: queued
  EXPECT_EQ(a, sim::seconds(2));
  EXPECT_EQ(b, sim::seconds(2));
  EXPECT_EQ(c, sim::seconds(4));

  f.cell.disconnect(3);
  EXPECT_EQ(f.cell.transfer_bulk(3, 500000), f.sim.now());  // free
}

TEST(CellularTransport, SystemMessagesReachDisconnectedProcess) {
  CellFixture f(3);
  f.cell.disconnect(1);
  f.cell.send(make_msg(0, 1, 50, rt::MsgKind::kRequest));
  f.cell.send(make_msg(0, 1, 1000));  // computation: buffered
  f.sim.run_until();
  ASSERT_EQ(f.delivered.size(), 1u);  // only the request (MSS proxy)
  EXPECT_EQ(f.cell.messages_buffered(), 1u);
}

TEST(CellularTransport, HandoffToSameCellIsNoop) {
  CellFixture f(3);
  MssId cur = f.cell.mss_of(0);
  f.cell.handoff(0, cur);
  EXPECT_EQ(f.cell.handoffs(), 0u);
  f.cell.handoff(0, (cur + 1) % f.cell.num_mss());
  EXPECT_EQ(f.cell.handoffs(), 1u);
}

TEST(CellularTransport, TopologyParamsValidatedAtConstruction) {
  sim::Simulator sim;
  mobile::CellularParams bad_mss;
  bad_mss.num_mss = 0;
  EXPECT_THROW(mobile::CellularTransport(sim, 4, bad_mss),
               std::invalid_argument);
  mobile::CellularParams bad_cells;
  bad_cells.cells_per_mss = -1;
  EXPECT_THROW(mobile::CellularTransport(sim, 4, bad_cells),
               std::invalid_argument);
  EXPECT_THROW(mobile::CellularTransport(sim, 0, {}), std::invalid_argument);

  // The thrown message names the offending parameter.
  try {
    mobile::CellularTransport t(sim, 4, bad_mss);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_mss"), std::string::npos);
  }
}

TEST(CellularTransport, HierarchicalPlacementInvariants) {
  mobile::CellularParams params;
  params.num_mss = 3;
  params.cells_per_mss = 4;
  const int n = 40;
  CellFixture f(n, params);
  EXPECT_EQ(f.cell.num_cells(), 12);
  for (ProcessId p = 0; p < n; ++p) {
    // Static round-robin placement over the cells...
    EXPECT_EQ(f.cell.cell_of(p), p % f.cell.num_cells());
    // ...and cell c hangs off MSS c % num_mss, so the flat topology's MSS
    // assignment is preserved for every cells_per_mss.
    EXPECT_EQ(f.cell.mss_of(p), f.cell.cell_of(p) % params.num_mss);
    EXPECT_EQ(f.cell.mss_of(p), p % params.num_mss);
  }
}

TEST(CellularTransport, BulkSerializesPerCellNotPerMss) {
  mobile::CellularParams params;
  params.num_mss = 1;
  params.cells_per_mss = 2;
  CellFixture f(4, params);  // cells: P0,P2 in 0; P1,P3 in 1 — one MSS
  sim::SimTime a = f.cell.transfer_bulk(0, 500000);  // cell 0
  sim::SimTime b = f.cell.transfer_bulk(1, 500000);  // cell 1: parallel
  sim::SimTime c = f.cell.transfer_bulk(2, 500000);  // cell 0: queued
  EXPECT_EQ(a, sim::seconds(2));
  EXPECT_EQ(b, sim::seconds(2));
  EXPECT_EQ(c, sim::seconds(4));
}


TEST(LanTransport, LossyLinkJittersButPreservesFifo) {
  sim::Simulator simu;
  sim::Rng rng(9);
  net::LanParams params;
  params.loss_probability = 0.4;
  net::LanTransport lan(simu, 2, params, &rng);
  std::vector<std::uint64_t> order;
  lan.set_sink([&](const rt::Message& m) {
    if (m.dst == 1) order.push_back(m.channel_seq);
  });
  for (int i = 0; i < 50; ++i) {
    rt::Message m = make_msg(0, 1, 1000);
    lan.send(std::move(m));
  }
  simu.run_until();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "FIFO violated under retransmission jitter";
  }
  EXPECT_GT(lan.retransmissions(), 0u);
}

}  // namespace
}  // namespace mck
