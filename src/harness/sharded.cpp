#include "harness/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "workload/traffic.hpp"

namespace mck::harness {
namespace {

/// A cross-region message parked at the window barrier: fully stamped by
/// the sending region's transport, waiting to be scheduled in the
/// destination region. Outboxes are drained in (region index, emission
/// order), which is fixed by the region structure — never by the shard
/// count or thread scheduling.
struct Envelope {
  sim::SimTime at = 0;
  rt::Message msg;
  MssId routed_to = kInvalidMss;  // cellular: destination MSS
  int dst_region = -1;
};

/// One region's complete private simulation stack. Nothing in here is
/// touched by another region between barriers.
struct Region {
  sim::Simulator sim;
  std::unique_ptr<sim::Rng> rng;
  obs::Tracer tracer;
  obs::TimelineSampler sampler;
  std::unique_ptr<ckpt::EventLog> log;
  std::unique_ptr<ckpt::CheckpointStore> store;
  ckpt::CoordinationTracker tracker;
  rt::RunStats stats;
  /// Region-lifetime bump arena for the owned protocols' sparse-state
  /// spill storage (rt::RunContext::arena). Declared before protos so
  /// it outlives them during destruction.
  util::Arena arena;
  std::unique_ptr<net::LanTransport> lan;
  std::unique_ptr<mobile::CellularTransport> cell;
  /// What the region's protocol instances share (declared before them).
  core::CaoSinghalShared cs_shared;
  rt::RunContext ctx;
  ProtocolSet protos;                           // in `owned` order
  std::vector<rt::CheckpointProtocol*> by_pid;  // null: not owned here
  std::vector<ProcessId> owned;
  std::vector<Envelope> outbox;
  /// Earliest arrival time among this region's cross-region emissions in
  /// the current window (kTimeNever = none yet). Written by the emit
  /// callback on the region's own lane, read by the same lane inside the
  /// adaptive-bound run loop — no synchronization needed.
  sim::SimTime emit_min = sim::kTimeNever;
  std::unique_ptr<workload::PointToPointWorkload> p2p;
  std::unique_ptr<workload::GroupWorkload> grp;
};

/// t + d without overflowing past kTimeNever (the "no bound" sentinel).
sim::SimTime sat_add(sim::SimTime t, sim::SimTime d) {
  return t >= sim::kTimeNever - d ? sim::kTimeNever : t + d;
}

}  // namespace

RunResult run_sharded_experiment(const ExperimentConfig& config, int shards) {
  MCK_ASSERT(shards >= 1);
  const SystemOptions& sys = config.sys;
  MCK_ASSERT_MSG(sys.tracer == nullptr,
                 "the sharded engine manages its own per-region tracers");
  MCK_ASSERT_MSG(sys.timeline == nullptr,
                 "the sharded engine manages its own per-region samplers");
  const int n = sys.num_processes;
  MCK_ASSERT(n >= 2);
  const bool lan_mode = sys.transport == TransportKind::kLan;
  if (lan_mode) {
    MCK_ASSERT_MSG(sys.lan.mode == net::MediumMode::kDedicated,
                   "--shards requires a dedicated medium");
  }

  // Region granularity: per process on a LAN (each host is its own
  // locality), per MSS cell on a cellular system (round-robin placement,
  // matching CellularTransport's initial mss_of).
  const int num_regions = lan_mode ? n : sys.cellular.num_mss;
  auto region_of = [&](ProcessId p) {
    return lan_mode ? static_cast<int>(p) : static_cast<int>(p % num_regions);
  };

  // Seed derivation: one stream for the engine-level initiation stagger,
  // one per region — all fixed by (seed, region structure), independent
  // of the shard count.
  const std::uint64_t base = splitmix64(sys.seed);

  const bool tracing = config.capture_trace;

  std::vector<std::unique_ptr<Region>> regions;
  regions.reserve(static_cast<std::size_t>(num_regions));
  for (int r = 0; r < num_regions; ++r) {
    regions.push_back(std::make_unique<Region>());
    Region& reg = *regions.back();
    reg.rng = std::make_unique<sim::Rng>(
        splitmix64(base + static_cast<std::uint64_t>(r) + 1));
    for (ProcessId p = 0; p < n; ++p) {
      if (region_of(p) == r) reg.owned.push_back(p);
    }
    reg.log = std::make_unique<ckpt::EventLog>(n);
    reg.log->set_region_namespace(r, num_regions);
    reg.store = std::make_unique<ckpt::CheckpointStore>(
        n, reg.owned, static_cast<ckpt::CkptRef>(r),
        static_cast<ckpt::CkptRef>(num_regions));
    reg.store->set_auto_gc(has_committed_lines(sys.algorithm));

    obs::Tracer* tracer = nullptr;
    if (tracing) {
      reg.tracer.enable(config.trace_mask);
      if (config.trace_record_cap > 0) {
        // The cap applies per region tracer (regions are fixed by the
        // topology, so the truncation point is shard-count independent).
        reg.tracer.set_record_cap(config.trace_record_cap);
      }
      tracer = &reg.tracer;
    }
    reg.sim.set_tracer(tracer);
    reg.store->set_tracer(tracer);
    reg.tracker.set_tracer(tracer);

    // Per-region timeline: each region samples its own partition on its
    // own lane; the barrier-free merge below recombines rows columnwise
    // in region-index order. A cellular region serves exactly one MSS
    // (region r <-> MSS r), so its depth block is one slot based at r.
    obs::TimelineCounters* tl_counters = nullptr;
    if (config.capture_timeline) {
      reg.sampler.configure(config.timeline_interval, lan_mode ? 0 : 1, r);
      if (config.timeline_interval > 0) {
        reg.sampler.reserve_rows(
            static_cast<std::size_t>(config.horizon /
                                     config.timeline_interval) +
            16);
      }
      tl_counters = reg.sampler.counters();
      reg.sim.set_timeline(&reg.sampler);
      reg.store->set_timeline(tl_counters);
      reg.tracker.set_timeline(tl_counters);
    }

    std::vector<std::uint8_t> owned_map(static_cast<std::size_t>(n), 0);
    for (ProcessId p : reg.owned) owned_map[static_cast<std::size_t>(p)] = 1;

    Region* rp = &reg;
    if (lan_mode) {
      reg.lan = std::make_unique<net::LanTransport>(reg.sim, n, sys.lan,
                                                    reg.rng.get());
      reg.lan->set_tracer(tracer);
      reg.lan->set_shard_region(
          std::move(owned_map), [rp](sim::SimTime at, rt::Message msg) {
            Envelope e;
            e.at = at;
            e.dst_region = static_cast<int>(msg.dst);
            e.msg = std::move(msg);
            rp->emit_min = std::min(rp->emit_min, at);
            rp->outbox.push_back(std::move(e));
          });
    } else {
      reg.cell = std::make_unique<mobile::CellularTransport>(reg.sim, n,
                                                             sys.cellular);
      reg.cell->set_tracer(tracer);
      for (ProcessId p : reg.owned) MCK_ASSERT(reg.cell->mss_of(p) == r);
      reg.cell->set_shard_region(
          std::move(owned_map),
          [rp](sim::SimTime at, rt::Message msg, MssId routed_to) {
            Envelope e;
            e.at = at;
            e.routed_to = routed_to;
            e.dst_region = static_cast<int>(routed_to);
            e.msg = std::move(msg);
            rp->emit_min = std::min(rp->emit_min, at);
            rp->outbox.push_back(std::move(e));
          });
    }
    rt::Transport& transport = lan_mode
                                   ? static_cast<rt::Transport&>(*reg.lan)
                                   : static_cast<rt::Transport&>(*reg.cell);
    if (sys.wire_fidelity) {
      transport.set_wire_fidelity(core::universal_codec());
    }
    if (tl_counters != nullptr) {
      if (reg.lan) {
        reg.lan->set_timeline(tl_counters);
      } else {
        reg.cell->set_timeline(tl_counters);
      }
      register_timeline_pulls(reg.sampler, &reg.stats, &reg.arena,
                              reg.cell.get());
    }

    reg.cs_shared = core::CaoSinghalShared{
        sys.cs, core::TerminationRecord(static_cast<std::size_t>(n))};
    rt::RunContext& ctx = reg.ctx;
    ctx.num_processes = n;
    ctx.sim = &reg.sim;
    ctx.net = &transport;
    ctx.log = reg.log.get();
    ctx.store = reg.store.get();
    ctx.tracker = &reg.tracker;
    ctx.stats = &reg.stats;
    ctx.timing = &sys.timing;
    ctx.codec = core::universal_codec();
    ctx.tracer = tracer;
    ctx.arena = &reg.arena;
    ctx.timeline = tl_counters;
    if (sys.algorithm == Algorithm::kCaoSinghal) ctx.algorithm = &reg.cs_shared;
    if (!reg.owned.empty()) {
      reg.stats.energy.ensure(static_cast<std::size_t>(n));
    }
    reg.protos = ProtocolSet(sys.algorithm, reg.owned.size());
    reg.by_pid.assign(static_cast<std::size_t>(n), nullptr);
    for (std::size_t i = 0; i < reg.owned.size(); ++i) {
      reg.protos[i].bind(ctx, reg.owned[i]);
      reg.by_pid[static_cast<std::size_t>(reg.owned[i])] = &reg.protos[i];
    }
    for (std::size_t i = 0; i < reg.owned.size(); ++i) {
      start_protocol(sys.algorithm, reg.protos[i]);
    }
    auto sink = [rp](const rt::Message& m) {
      rp->by_pid[static_cast<std::size_t>(m.dst)]->on_deliver(m);
    };
    if (reg.lan) {
      reg.lan->set_sink(sink);
    } else {
      reg.cell->set_sink(sink);
    }

    // Workload, driving only the region's own processes from the region's
    // RNG stream. Destinations still range over all n processes.
    workload::SendFn send = [rp](ProcessId src, ProcessId dst) {
      rp->by_pid[static_cast<std::size_t>(src)]->send_computation(dst);
    };
    if (config.workload == WorkloadKind::kPointToPoint) {
      reg.p2p = std::make_unique<workload::PointToPointWorkload>(
          reg.sim, *reg.rng, n, config.rate, send);
      reg.p2p->start(config.horizon, reg.owned);
    } else {
      reg.grp = std::make_unique<workload::GroupWorkload>(
          reg.sim, *reg.rng, n, config.groups, config.rate, config.group_ratio,
          send);
      reg.grp->start(config.horizon, reg.owned);
    }
  }

  // Conservative lookahead: the minimum latency of any cross-region
  // message. Strictly positive by construction — this is what makes the
  // safe window non-empty.
  const sim::SimTime lookahead = lan_mode ? regions[0]->lan->min_cross_delay()
                                          : regions[0]->cell->min_cross_delay();
  MCK_ASSERT_MSG(lookahead > 0, "sharded engine needs positive lookahead");

  // Engine-side initiation scheduling (the sharded counterpart of
  // CheckpointScheduler): per-process due-times, processed exhaustively
  // at every window barrier against barrier-frozen region state.
  const sim::SimTime interval = config.ckpt_interval;
  const sim::SimTime retry_delay = sim::seconds(5);
  MCK_ASSERT(interval > lookahead && retry_delay > lookahead);
  sim::Rng sched_rng(splitmix64(base));
  const ProcessId n_init =
      config.initiator_limit > 0
          ? std::min<ProcessId>(config.initiator_limit, n)
          : n;
  std::vector<sim::SimTime> due(static_cast<std::size_t>(n), sim::kTimeNever);
  for (ProcessId p = 0; p < n_init; ++p) {
    sim::SimTime first = interval / n_init * (p + 1) +
                         sched_rng.exponential(interval / (4 * n_init));
    if (first <= config.horizon) due[static_cast<std::size_t>(p)] = first;
  }

  // Incrementally tracked minimum of due[]: only process_dues changes the
  // array, and it already walks every entry it touches, so the window
  // loop never pays an O(n) due scan — at n = 1M that scan used to cost
  // more than the events in a quiet window.
  sim::SimTime min_due = sim::kTimeNever;
  for (sim::SimTime d : due) min_due = std::min(min_due, d);

  auto any_coordination_active = [&]() {
    for (auto& reg : regions) {
      for (ProcessId p : reg->owned) {
        if (reg->by_pid[static_cast<std::size_t>(p)]->coordination_active()) {
          return true;
        }
      }
    }
    return false;
  };

  // Processes every initiation due before `window_end`. The interval rule
  // strictly advances a due-time and is idempotent after one application;
  // the serialize rule pushes it past the window (retry_delay > L); a
  // grant schedules the initiate event inside the window and advances the
  // due-time by one interval — so this terminates, and every due-time
  // leaves the window or retires.
  auto process_dues = [&](sim::SimTime window_end) {
    if (min_due >= window_end) return;  // nothing due: skip the scan
    bool granted = false;
    bool active = config.serialize_initiations && any_coordination_active();
    sim::SimTime new_min = sim::kTimeNever;
    for (ProcessId p = 0; p < n; ++p) {
      std::size_t i = static_cast<std::size_t>(p);
      while (due[i] < window_end) {
        Region& reg = *regions[static_cast<std::size_t>(region_of(p))];
        sim::SimTime last = reg.store->last_stable_taken_at(p);
        if (last > 0 && due[i] - last < interval) {
          due[i] = last + interval;  // interval rule (Section 5.1)
        } else if (config.serialize_initiations && (granted || active)) {
          due[i] += retry_delay;  // "at most one checkpointing in progress"
        } else {
          granted = true;
          rt::CheckpointProtocol* proto = reg.by_pid[i];
          reg.sim.schedule_at(due[i], [proto]() { proto->initiate(); });
          due[i] += interval;
        }
        if (due[i] > config.horizon) {
          due[i] = sim::kTimeNever;
          break;
        }
      }
      new_min = std::min(new_min, due[i]);
    }
    min_due = new_min;
  };

  // Worker lanes. Each window the engine publishes an explicit active
  // list (only regions with an event inside the window); lane l runs
  // entries l, l+lanes, ... of that list. Every per-window input below is
  // written by the engine thread strictly before the epoch bump and read
  // by lanes strictly after they observe it, so plain variables +
  // release/acquire on `epoch` are enough.
  const int lanes = std::min(shards, num_regions);
  std::vector<int> active;
  active.reserve(static_cast<std::size_t>(num_regions));
  sim::SimTime run_to = 0;
  int adaptive_region = -1;
  sim::SimTime adaptive_bound = sim::kTimeNever;

  auto run_region = [&](int r) {
    Region& reg = *regions[static_cast<std::size_t>(r)];
    if (r != adaptive_region) {
      reg.sim.run_until(run_to);
      return;
    }
    // The window's minimum region runs under a dynamic bound instead of
    // the fixed lookahead: nothing can reach it before
    //   min(second-earliest region event + L, earliest initiation due,
    //       its own earliest cross-region emission's arrival + L),
    // so when the rest of the system is quiet it runs straight through
    // the lull — the drain tail of a broadcast collapses from thousands
    // of windows into one. The bound is re-read every step because the
    // region's own emissions shrink it live (a reply routed back through
    // another region can land no earlier than emission arrival + L).
    for (;;) {
      sim::SimTime cap = adaptive_bound;
      if (reg.emit_min != sim::kTimeNever) {
        cap = std::min(cap, sat_add(reg.emit_min, lookahead));
      }
      if (!reg.sim.step(cap - 1)) break;
    }
  };

  // Lanes spin briefly on the epoch before parking on the condvar: a
  // window is typically far shorter than a futex round-trip, and the
  // engine-side barrier work between windows is tiny.
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> done{0};
  std::atomic<bool> quit{false};
  constexpr int kSpinIters = 1024;
  std::vector<std::thread> pool;
  if (lanes > 1) {
    pool.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      pool.emplace_back([&, lane]() {
        std::uint64_t seen = 0;
        for (;;) {
          std::uint64_t e = seen;
          for (int s = 0; s < kSpinIters && e == seen; ++s) {
            if (quit.load(std::memory_order_acquire)) return;
            e = epoch.load(std::memory_order_acquire);
          }
          if (e == seen) {  // park
            std::unique_lock<std::mutex> lk(mu);
            cv_work.wait(lk, [&]() {
              return quit.load(std::memory_order_relaxed) ||
                     epoch.load(std::memory_order_relaxed) != seen;
            });
            if (quit.load(std::memory_order_relaxed)) return;
            e = epoch.load(std::memory_order_relaxed);
          }
          seen = e;
          for (std::size_t i = static_cast<std::size_t>(lane);
               i < active.size(); i += static_cast<std::size_t>(lanes)) {
            run_region(active[i]);
          }
          if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == lanes) {
            std::lock_guard<std::mutex> lk(mu);
            cv_done.notify_one();
          }
        }
      });
    }
  }
  auto run_window = [&]() {
    if (lanes <= 1) {
      for (int r : active) run_region(r);
      return;
    }
    done.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu);
      epoch.fetch_add(1, std::memory_order_release);
    }
    cv_work.notify_all();
    for (int s = 0; s < kSpinIters; ++s) {
      if (done.load(std::memory_order_acquire) == lanes) return;
    }
    std::unique_lock<std::mutex> lk(mu);
    cv_done.wait(lk,
                 [&]() { return done.load(std::memory_order_relaxed) == lanes; });
  };

  // The window loop. All cross-region sends from [T, T+L) arrive at or
  // after T+L, so running every active region to T+L-1 (further for the
  // minimum region, see run_region) and draining outboxes at the barrier
  // never delivers a message into its own past. Windows with no active
  // region (pure due-processing) skip the dispatch and the barrier
  // entirely.
  for (;;) {
    sim::SimTime t = min_due;
    for (auto& reg : regions) t = std::min(t, reg->sim.next_live_time());
    if (t == sim::kTimeNever) break;
    MCK_ASSERT(t < sim::kTimeNever - lookahead);
    const sim::SimTime window_end = t + lookahead;
    process_dues(window_end);
    // Build the active set after due processing — a granted initiation
    // schedules its initiate event inside this window. t1/t2 are the
    // smallest and second-smallest next-event times across all regions
    // (inactive regions bound the adaptive run too: their first event of
    // a later window can emit).
    active.clear();
    int r1 = -1;
    sim::SimTime t1 = sim::kTimeNever;
    sim::SimTime t2 = sim::kTimeNever;
    for (int r = 0; r < num_regions; ++r) {
      sim::SimTime nt =
          regions[static_cast<std::size_t>(r)]->sim.next_live_time();
      if (nt < t1) {
        t2 = t1;
        t1 = nt;
        r1 = r;
      } else {
        t2 = std::min(t2, nt);
      }
      if (nt < window_end) active.push_back(r);
    }
    if (active.empty()) continue;
    run_to = window_end - 1;
    adaptive_region = r1;
    adaptive_bound = std::min(sat_add(t2, lookahead), min_due);
    regions[static_cast<std::size_t>(r1)]->emit_min = sim::kTimeNever;
    run_window();
    for (auto& reg : regions) {
      if (reg->outbox.empty()) continue;
      for (Envelope& e : reg->outbox) {
        MCK_ASSERT(e.at >= window_end);
        Region& dst = *regions[static_cast<std::size_t>(e.dst_region)];
        if (lan_mode) {
          dst.lan->inject(e.at, std::move(e.msg));
        } else {
          dst.cell->inject(e.at, std::move(e.msg), e.routed_to);
        }
      }
      reg->outbox.clear();
    }
  }
  if (lanes > 1) {
    {
      std::lock_guard<std::mutex> lk(mu);
      quit.store(true, std::memory_order_release);
    }
    cv_work.notify_all();
    for (std::thread& th : pool) th.join();
  }

  for (auto& reg : regions) {
    MCK_ASSERT_MSG(reg->sim.live_pending() == 0,
                   "sharded experiment did not drain its event queues");
  }

  // ---- deterministic merge --------------------------------------------

  RunResult result;
  for (auto& reg : regions) {
    RunResult part;
    part.stats = reg->stats;
    result.merge(part);
  }
  result.comp_msgs =
      result.stats.msgs_sent[static_cast<int>(rt::MsgKind::kComputation)];
  result.forced_checkpoints = result.stats.forced_by_message;

  // Initiation stats: the opener's region carries the timestamps;
  // participant regions carry partial counters (registered lazily with
  // started_at 0). Counters sum, times max, line updates concatenate —
  // then everything is canonicalized by (started_at, id).
  std::map<ckpt::InitiationId, ckpt::InitiationStats> merged;
  for (auto& reg : regions) {
    for (const ckpt::InitiationStats* st : reg->tracker.in_order()) {
      ckpt::InitiationStats& m = merged[st->id];
      if (m.id == 0) {
        m.id = st->id;
        m.initiator = st->initiator;
      }
      m.started_at = std::max(m.started_at, st->started_at);
      m.committed_at = std::max(m.committed_at, st->committed_at);
      m.aborted_at = std::max(m.aborted_at, st->aborted_at);
      m.last_request_at = std::max(m.last_request_at, st->last_request_at);
      m.partial_commit = m.partial_commit || st->partial_commit;
      m.participants_aborted += st->participants_aborted;
      m.tentative += st->tentative;
      m.mutables_taken += st->mutables_taken;
      m.mutables_promoted += st->mutables_promoted;
      m.mutables_discarded += st->mutables_discarded;
      m.requests += st->requests;
      m.replies += st->replies;
      m.commits += st->commits;
      m.aborts += st->aborts;
      m.duplicate_requests += st->duplicate_requests;
      m.blocked_time += st->blocked_time;
      for (const auto& lu : st->line_updates) m.line_updates.push_back(lu);
    }
  }
  std::vector<ckpt::InitiationStats*> ordered;
  ordered.reserve(merged.size());
  for (auto& [id, st] : merged) {
    std::sort(st.line_updates.begin(), st.line_updates.end());
    ordered.push_back(&st);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ckpt::InitiationStats* a, const ckpt::InitiationStats* b) {
              if (a->started_at != b->started_at) {
                return a->started_at < b->started_at;
              }
              return a->id < b->id;
            });
  ckpt::CoordinationTracker merged_tracker;
  for (ckpt::InitiationStats* st : ordered) {
    ckpt::InitiationStats& s =
        merged_tracker.open(st->id, st->initiator, st->started_at);
    s = *st;
  }
  aggregate_initiations(result, merged_tracker.in_order());

  std::vector<const ckpt::EventLog*> parts;
  parts.reserve(regions.size());
  for (auto& reg : regions) parts.push_back(reg->log.get());
  ckpt::EventLog merged_log = ckpt::EventLog::merged(parts);
  if (has_committed_lines(sys.algorithm)) {
    ckpt::ConsistencyChecker checker(merged_log, merged_tracker);
    ckpt::CheckResult check = checker.check_all();
    result.consistent = check.consistent;
    result.orphans = check.orphans.size();
    result.lines_checked = check.lines_checked;
    MCK_ASSERT_MSG(check.consistent,
                   "committed global checkpoint line has orphan messages");
  }

  if (tracing) {
    obs::TraceRun run;
    run.rep = 0;  // re-stamped by run_replicated
    run.seed = sys.seed;
    // Stable k-way merge by time: per-region streams are already
    // time-nondecreasing, and stability breaks ties by region index —
    // both independent of the shard count.
    for (auto& reg : regions) {
      std::vector<obs::TraceRecord> recs = reg->tracer.take_records();
      run.records.insert(run.records.end(), recs.begin(), recs.end());
    }
    std::stable_sort(run.records.begin(), run.records.end(),
                     [](const obs::TraceRecord& a, const obs::TraceRecord& b) {
                       return a.at < b.at;
                     });
    // Digest the merged stream (post-sort, so the digests are the same
    // pure function of the records the single-shard path computes —
    // byte-identity across --shards extends to the digest footer).
    run.digests =
        obs::compute_run_digests(run.records.data(), run.records.size());
    result.traces.push_back(std::move(run));
  }

  if (config.capture_timeline) {
    // Per-region row streams end at different ticks (a region goes quiet
    // when its partition drains); merge_regions pads the short ones with
    // their post-quiescence final_row, so the merged run's length and
    // bytes depend only on the region structure — never on --shards.
    std::vector<obs::TimelineRun> parts;
    parts.reserve(regions.size());
    for (auto& reg : regions) {
      reg->sampler.finalize(reg->sim.live_pending(), reg->sim.slot_count(),
                            reg->sim.events_executed());
      parts.push_back(reg->sampler.take_run(sys.seed));
    }
    obs::TimelineRun merged_tl = obs::merge_regions(parts);
    merged_tl.rep = 0;  // re-stamped by run_replicated
    merged_tl.seed = sys.seed;
    result.timelines.push_back(std::move(merged_tl));
  }
  return result;
}

}  // namespace mck::harness
