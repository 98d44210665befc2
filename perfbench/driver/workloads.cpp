#include "workloads.hpp"

#include <cstdio>
#include <functional>

#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "workload/traffic.hpp"

namespace mckbench {

namespace mh = mck::harness;

namespace {

// Benchmark seed s shifts every reference seed by s * kSeedStride, so
// seed 0 is the published drivers' own configuration.
constexpr std::uint64_t kSeedStride = 10007;

mh::ExperimentConfig paper_base(std::uint64_t base_seed) {
  mh::ExperimentConfig c;
  c.sys.num_processes = 16;
  c.sys.seed = base_seed;
  c.sys.timing.record_wire_bytes = true;
  c.ckpt_interval = mck::sim::seconds(900);
  c.horizon = mck::sim::seconds(4 * 3600);
  return c;
}

// Section 5.1 at the figure drivers' full settings: the Fig 5 rate sweep,
// both Fig 6 group panels and Table 1 (three algorithms, two rates). The
// Fig 5 driver's second panel (shared medium with 10% frame loss) is not
// part of the paper's set-up and is left out: it commits lines with
// orphan messages on some seeds (README.md, "Known defects").
void paper_lan16(std::uint64_t seed, Workload& w) {
  const double rates[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};
  const std::uint64_t shift = seed * kSeedStride;
  for (double rate : rates) {
    Cell c;
    c.label = "fig5 rate=" + std::to_string(rate);
    c.cfg = paper_base(1000 + shift);
    c.cfg.sys.algorithm = mh::Algorithm::kCaoSinghal;
    c.cfg.rate = rate;
    c.reps = 5;
    w.cells.push_back(c);
  }
  for (double ratio : {1000.0, 10000.0}) {
    for (double rate : rates) {
      Cell c;
      c.label = "fig6 ratio=" + std::to_string(ratio) +
                " rate=" + std::to_string(rate);
      c.cfg = paper_base(2000 + static_cast<std::uint64_t>(ratio) + shift);
      c.cfg.sys.algorithm = mh::Algorithm::kCaoSinghal;
      c.cfg.workload = mh::WorkloadKind::kGroup;
      c.cfg.groups = 4;
      c.cfg.group_ratio = ratio;
      c.cfg.rate = rate;
      c.reps = 5;
      w.cells.push_back(c);
    }
  }
  for (double rate : {0.005, 0.02}) {
    for (mh::Algorithm a : {mh::Algorithm::kKooToueg, mh::Algorithm::kElnozahy,
                            mh::Algorithm::kCaoSinghal}) {
      Cell c;
      c.label = std::string("table1 ") + mh::to_string(a) +
                " rate=" + std::to_string(rate);
      c.cfg = paper_base(3000 + shift);
      c.cfg.sys.algorithm = a;
      c.cfg.rate = rate;
      c.reps = 4;
      w.cells.push_back(c);
    }
  }
}

// fig_scale's cellular configuration at population n (4 MSS below 1k+1
// hosts, 32 above, ~64 MHs per cell).
mh::ExperimentConfig scale_config(int n, std::uint64_t base_seed) {
  mh::ExperimentConfig c;
  c.sys.algorithm = mh::Algorithm::kCaoSinghal;
  c.sys.num_processes = n;
  c.sys.seed = base_seed;
  c.sys.transport = mh::TransportKind::kCellular;
  c.sys.cellular.num_mss = n <= 1000 ? 4 : 32;
  c.sys.cellular.cells_per_mss =
      std::max(1, n / 64 / c.sys.cellular.num_mss);
  c.sys.timing.record_wire_bytes = true;
  c.workload = mh::WorkloadKind::kPointToPoint;
  c.rate = 60.0 / n;
  c.ckpt_interval = mck::sim::seconds(300);
  c.horizon = mck::sim::seconds(600);
  c.initiator_limit = n <= 1000 ? 0 : 4;
  return c;
}

// Coordination plus mobility at n = 1000: roaming MHs, voluntary
// disconnections, heavy point-to-point load, serialized initiations.
// Request waves reach hundreds of MHs and their checkpoint transfers queue
// on the cells, so the cost of one run varies with its seed by ~8%;
// sixteen replications keep a pass's totals within ~2% across seeds. The
// 900 s horizon (two rounds per run) keeps a run near a quarter second,
// so a 30 s call repeats each run often enough for its fastest
// repetition to miss the host's slow episodes.
void mobile_cell1k(std::uint64_t seed, Workload& w) {
  Cell c;
  c.label = "mobile n=1000";
  c.cfg = scale_config(1000, 4242 + seed * kSeedStride);
  c.cfg.rate = 0.06;
  c.cfg.horizon = mck::sim::seconds(900);
  c.reps = 16;
  w.cells.push_back(c);
}

// fig_scale's n = 1M point.
void sparse_cell1m(std::uint64_t seed, Workload& w) {
  Cell c;
  c.label = "fig_scale n=1000000";
  c.cfg = scale_config(1000000, 4242 + seed * kSeedStride);
  c.reps = 1;
  w.cells.push_back(c);
}

void add_units(Workload& w, bool mobility) {
  for (std::size_t ci = 0; ci < w.cells.size(); ++ci) {
    const Cell& c = w.cells[ci];
    for (int r = 0; r < c.reps; ++r) {
      Unit u;
      u.cfg = c.cfg;
      u.cfg.sys.seed = mh::replication_seed(c.cfg.sys.seed, r);
      u.cell = static_cast<int>(ci);
      u.mobility = mobility;
      w.units.push_back(u);
    }
  }
}

void fingerprint_counters(const mck::rt::RunStats& s, Fnv& f) {
  for (int k = 0; k < mck::rt::kMsgKindCount; ++k) {
    f.add(s.msgs_sent[k]);
    f.add(s.bytes_sent[k]);
    f.add(s.wire_bytes_sent[k]);
  }
  f.add(s.deliveries);
  f.add(s.tentative_taken);
  f.add(s.mutable_taken);
  f.add(s.mutable_promoted);
  f.add(s.mutable_discarded);
  f.add(s.permanent_made);
  f.add(s.forced_by_message);
  f.add(s.checkpoint_cascades);
  f.add(s.pending_reaped);
  f.add_signed(s.blocked_time_total);
  f.add(s.blocked_sends_deferred);
  f.add_signed(s.mutable_overhead_time);
}

void fingerprint_energy(const mck::stats::EnergyLedger& ledger, Fnv& f) {
  for (const mck::stats::ProcessEnergy& e : ledger.per_process) {
    f.add(e.tx_comp_msgs);
    f.add(e.tx_sys_msgs);
    f.add(e.rx_comp_msgs);
    f.add(e.rx_sys_msgs);
    f.add(e.tx_bytes);
    f.add(e.rx_bytes);
    f.add(e.bulk_bytes);
  }
}

void fingerprint_initiation(const mck::ckpt::InitiationStats& st, Fnv& f) {
  f.add(st.id);
  f.add_signed(st.initiator);
  f.add_signed(st.started_at);
  f.add_signed(st.committed_at);
  f.add_signed(st.aborted_at);
  f.add(st.partial_commit ? 1 : 0);
  f.add(st.participants_aborted);
  f.add(st.tentative);
  f.add(st.mutables_taken);
  f.add(st.mutables_promoted);
  f.add(st.mutables_discarded);
  f.add(st.requests);
  f.add(st.replies);
  f.add(st.commits);
  f.add(st.aborts);
  f.add(st.duplicate_requests);
  f.add_signed(st.blocked_time);
  f.add_signed(st.last_request_at);
  for (const auto& [pid, cursor] : st.line_updates) {
    f.add_signed(pid);
    f.add(cursor);
  }
}

/// The program as the benchmark composes it for one unit. Members are
/// declared in dependency order so they are destroyed in reverse.
struct Composition {
  mck::obs::Tracer tracer;
  mck::obs::TimelineSampler sampler;
  std::unique_ptr<mh::System> sys;
  std::unique_ptr<mck::workload::PointToPointWorkload> p2p;
  std::unique_ptr<mck::workload::GroupWorkload> grp;
  std::unique_ptr<mck::mobile::MobilityModel> mobility;
  std::unique_ptr<mh::CheckpointScheduler> scheduler;
};

/// System constructor plus the workload, mobility and scheduler starts,
/// timed as two spans.
std::unique_ptr<Composition> compose(const Unit& u, const UnitOptions& o,
                                     SpanLog& spans, int run, double* ctor_s,
                                     double* start_s) {
  const mh::ExperimentConfig& cfg = u.cfg;
  auto c = std::make_unique<Composition>();
  mh::SystemOptions so = cfg.sys;
  so.wire_fidelity = so.wire_fidelity || o.wire_fidelity;
  if (o.trace) {
    c->tracer.enable(mck::obs::Tracer::kAllKinds);
    so.tracer = &c->tracer;
  }
  if (o.timeline) {
    const int mss = cfg.sys.transport == mh::TransportKind::kCellular
                        ? cfg.sys.cellular.num_mss
                        : 0;
    c->sampler.configure(mck::sim::seconds(1), mss, 0);
    c->sampler.reserve_rows(
        static_cast<std::size_t>(cfg.horizon / mck::sim::seconds(1)) + 16);
    so.timeline = &c->sampler;
  }

  ScopedSpan ctor_span(spans, "harness.system_ctor", run);
  c->sys = std::make_unique<mh::System>(so);
  *ctor_s = ctor_span.close();

  ScopedSpan start_span(spans, "harness.start", run);
  mh::System* sys = c->sys.get();
  mck::workload::SendFn send = [sys](mck::ProcessId a, mck::ProcessId b) {
    sys->send(a, b);
  };
  if (cfg.workload == mh::WorkloadKind::kPointToPoint) {
    c->p2p = std::make_unique<mck::workload::PointToPointWorkload>(
        sys->simulator(), sys->rng(), sys->n(), cfg.rate, send);
    c->p2p->start(cfg.horizon);
  } else {
    c->grp = std::make_unique<mck::workload::GroupWorkload>(
        sys->simulator(), sys->rng(), sys->n(), cfg.groups, cfg.rate,
        cfg.group_ratio, send);
    c->grp->start(cfg.horizon);
  }
  if (u.mobility) {
    c->mobility = std::make_unique<mck::mobile::MobilityModel>(
        sys->simulator(), sys->rng(), *sys->cellular(),
        mck::mobile::MobilityParams{});
    c->mobility->on_disconnect = [sys](mck::ProcessId p) {
      sys->cao(p).on_disconnect();
    };
    c->mobility->start(cfg.horizon);
  }
  mh::SchedulerOptions sched_opts;
  sched_opts.interval = cfg.ckpt_interval;
  sched_opts.serialize = cfg.serialize_initiations;
  sched_opts.initiator_limit = cfg.initiator_limit;
  c->scheduler = std::make_unique<mh::CheckpointScheduler>(*sys, sched_opts);
  c->scheduler->start(cfg.horizon);
  *start_s = start_span.close();
  return c;
}

void teardown(std::unique_ptr<Composition> c, SpanLog& spans, int run) {
  ScopedSpan span(spans, "harness.teardown", run);
  c.reset();
}

}  // namespace

bool make_workload(const std::string& name, std::uint64_t seed, int nproc,
                   Workload* out) {
  Workload w;
  w.name = name;
  if (name == "paper-lan16") {
    paper_lan16(seed, w);
    w.pooled = true;
    w.jobs = std::max(1, std::min(4, nproc));
    add_units(w, false);
  } else if (name == "mobile-cell1k") {
    mobile_cell1k(seed, w);
    add_units(w, true);
  } else if (name == "sparse-cell1M") {
    sparse_cell1m(seed, w);
    add_units(w, false);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::uint64_t stats_fingerprint(const mh::RunResult& r) {
  Fnv f;
  fingerprint_counters(r.stats, f);
  f.add(r.initiations);
  f.add(r.committed);
  f.add(r.aborted);
  f.add(r.comp_msgs);
  f.add(r.forced_checkpoints);
  return f.value();
}

double setup_only(const Unit& u, SpanLog& spans, int run) {
  ScopedSpan unit_span(spans, "harness.setup_only", run);
  double ctor_s = 0, start_s = 0;
  std::unique_ptr<Composition> c =
      compose(u, UnitOptions{}, spans, run, &ctor_s, &start_s);
  teardown(std::move(c), spans, run);
  return ctor_s + start_s;
}

void gate_same_runs(const std::vector<UnitResult>& ref,
                    const std::vector<UnitResult>& got,
                    const std::string& what, Gate& gate) {
  if (ref.size() != got.size()) {
    gate.check(false, what + ": different number of runs");
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].fingerprint != got[i].fingerprint) {
      gate.check(false, what + ": simulated statistics of run " +
                            std::to_string(i) + " differ");
      return;
    }
  }
}

UnitResult run_unit(const Unit& u, const UnitOptions& o, SpanLog& spans,
                    int run) {
  UnitResult r;
  const mh::ExperimentConfig& cfg = u.cfg;
  ScopedSpan unit_span(spans, "harness.unit", run);
  std::unique_ptr<Composition> c =
      compose(u, o, spans, run, &r.ctor_s, &r.start_s);
  mh::System* sys = c->sys.get();

  {
    ScopedSpan loop_span(spans, "sim.run_until", run);
    mck::sim::Simulator& sim = sys->simulator();
    // Fixed simulated-time slices, so a host stall shows as one slow
    // slice (sim.slice_ms_max).
    const int slices = 20;
    r.slice_ms.reserve(slices + 1);
    for (int i = 1; i <= slices + 1; ++i) {
      const mck::sim::SimTime until =
          i <= slices ? cfg.horizon / slices * i : mck::sim::kTimeNever;
      ScopedSpan slice(spans, i <= slices ? "sim.slice" : "sim.drain", run);
      sim.run_until(until);
      r.slice_ms.push_back(1e3 * slice.close());
      r.peak_pending = std::max<std::uint64_t>(r.peak_pending,
                                               sim.live_pending());
    }
    r.loop_s = loop_span.close();
    r.drained = sim.live_pending() == 0;
    r.events = sim.events_executed();
    r.tombstones = sim.tombstones_reaped();
    r.slots = sim.slot_count();
  }

  r.has_lines = mh::has_committed_lines(cfg.sys.algorithm);
  if (r.has_lines) {
    ScopedSpan check_span(spans, "ckpt.check", run);
    mck::ckpt::CheckResult check = sys->check_consistency();
    r.check_s = check_span.close();
    r.consistent = check.consistent;
    r.orphans = check.orphans.size();
    r.res.lines_checked = check.lines_checked;
  }

  {
    ScopedSpan agg_span(spans, "harness.aggregate", run);
    // The per-process energy ledger is fingerprinted in place and not
    // kept: at n = 1M a copy would add ~56 MB per retained result to the
    // process's peak RSS.
    mck::rt::RunStats& live = sys->stats();
    Fnv f;
    fingerprint_counters(live, f);
    fingerprint_energy(live.energy, f);
    mck::stats::EnergyLedger energy = std::move(live.energy);
    r.res.stats = live;
    live.energy = std::move(energy);
    r.res.comp_msgs =
        live.msgs_sent[static_cast<int>(mck::rt::MsgKind::kComputation)];
    r.res.forced_checkpoints = live.forced_by_message;
    r.res.consistent = r.consistent;
    r.res.orphans = r.orphans;
    const std::vector<const mck::ckpt::InitiationStats*> inits =
        sys->tracker().in_order();
    mh::aggregate_initiations(r.res, inits);
    for (const mck::ckpt::InitiationStats* st : inits) {
      fingerprint_initiation(*st, f);
      if (st->committed() && !st->aborted()) {
        r.commit_latency_s.push_back(
            mck::sim::to_seconds(st->committed_at - st->started_at));
      }
    }
    r.fingerprint = f.value();
    r.stats_fingerprint = stats_fingerprint(r.res);
    r.aggregate_s = agg_span.close();
  }

  if (mck::mobile::CellularTransport* cell = sys->cellular()) {
    r.handoffs = cell->handoffs();
    r.buffered = cell->messages_buffered();
    r.forwarded = cell->messages_forwarded();
  }
  r.log_messages = sys->log().messages().size();
  for (mck::ckpt::CkptKind k :
       {mck::ckpt::CkptKind::kInitial, mck::ckpt::CkptKind::kPermanent,
        mck::ckpt::CkptKind::kTentative, mck::ckpt::CkptKind::kMutable,
        mck::ckpt::CkptKind::kDisconnect}) {
    r.store_records += sys->store().count(k);
  }
  r.peak_stable = sys->store().peak_stable_occupancy();

  if (o.trace) {
    ScopedSpan take(spans, "obs.take_records", run);
    r.trace.seed = cfg.sys.seed;
    r.trace.records = c->tracer.take_records();
    r.trace_records = r.trace.records.size();
    r.trace.digests = mck::obs::compute_run_digests(r.trace.records.data(),
                                                    r.trace.records.size());
  }
  if (o.timeline) {
    mck::sim::Simulator& sim = sys->simulator();
    c->sampler.finalize(sim.live_pending(), sim.slot_count(),
                        sim.events_executed());
    const mck::obs::TimelineRun tl = c->sampler.take_run(cfg.sys.seed);
    for (std::size_t k = 0; k < tl.rows(); ++k) {
      r.arena_peak_bytes = std::max<std::uint64_t>(
          r.arena_peak_bytes, tl.row(k)[mck::obs::kColArenaBytes]);
    }
  }

  teardown(std::move(c), spans, run);
  return r;
}

void gate_audit(const mck::obs::AuditReport& report, bool insim_consistent,
                const std::string& where, Gate& gate) {
  gate.check(report.ok(), where + ": audit reported " +
                              std::to_string(report.violations.size()) +
                              " violations");
  gate.check(report.consistent() == insim_consistent,
             where + ": audit Theorem-1 verdict disagrees with the in-sim "
                     "checker");
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace mckbench
