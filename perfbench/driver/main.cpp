// mckbench: runs one benchmark workload in this process and prints its
// metrics as one JSON object on the last line of stdout.
//
//   mckbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// --trace 0 measures the end-to-end metrics: untraced serial passes over
// every run of the workload, repeated for S seconds; host times are built
// from each run's fastest repetition (see fastest() below).
// --trace 1 measures the per-layer metrics: one untraced pass, one traced
// pass (flight recorder on; each run's trace is written as MCKTRC02, read
// back and audited), one timeline pass and one wire-fidelity pass. Spans
// of the traced pass go to DIR/spans-<workload>.tsv.
//
// Every check of the correctness gate must pass before anything is
// printed on stdout; a failure exits with status 1.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "workloads.hpp"

using namespace mckbench;
namespace mh = mck::harness;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (std::strcmp(k, "--scratch") == 0) {
      a.scratch = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.trace >= 0;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A serial pass over every run of the workload.
struct Pass {
  std::vector<UnitResult> units;
  SpanLog spans;
  double wall_s = 0;
  double merge_s = 0;
  mh::RunResult merged;
  std::vector<double> commit_latency_s;

  template <typename T>
  T sum(T UnitResult::*field) const {
    T t{};
    for (const UnitResult& u : units) t += u.*field;
    return t;
  }
  std::uint64_t max(std::uint64_t UnitResult::*field) const {
    std::uint64_t t = 0;
    for (const UnitResult& u : units) t = std::max(t, u.*field);
    return t;
  }
  double setup_s() const {
    return sum(&UnitResult::ctor_s) + sum(&UnitResult::start_s);
  }
  double loop_s() const { return sum(&UnitResult::loop_s); }
  double total_s() const {
    double t = merge_s;
    for (const UnitResult& u : units) t += u.total_s();
    return t;
  }
};

/// Host time of one run's trace-file round trip and audit.
struct Certified {
  double io_s = 0;
  double audit_s = 0;
};

/// Writes run `run`'s trace as MCKTRC02, reads it back and audits it; the
/// records are released afterwards.
Certified certify_run(const Workload& w, int run, UnitResult& u,
                      const std::string& path, SpanLog& spans, Gate& gate) {
  Certified c;
  const std::string where = w.name + " traced run " + std::to_string(run);
  const mh::ExperimentConfig& cfg = w.units[static_cast<std::size_t>(run)].cfg;
  mck::obs::TraceFileMeta meta;
  meta.num_processes = cfg.sys.num_processes;
  meta.algo = mh::to_string(cfg.sys.algorithm);
  std::vector<mck::obs::TraceRun> runs(1);
  runs[0] = std::move(u.trace);
  runs[0].rep = run;
  const std::uint64_t records = runs[0].records.size();

  std::optional<mck::obs::TraceFile> file;
  {
    ScopedSpan io(spans, "obs.trace_io", run);
    std::string err;
    const bool wrote = mck::obs::write_trace_file(path, meta, runs, &err);
    runs.clear();
    gate.check(wrote, where + ": cannot write " + path + ": " + err);
    if (wrote) file = mck::obs::read_trace_file(path, &err);
    std::remove(path.c_str());
    gate.check(file.has_value(), where + ": cannot read trace back: " + err);
    c.io_s = io.close();
  }
  if (!file) return c;
  gate.check(file->total_records() == records,
             where + ": trace file lost records in the round trip");
  ScopedSpan audit(spans, "obs.audit", run);
  const mck::obs::AuditReport report =
      mck::obs::audit_runs(file->runs, file->meta.num_processes);
  c.audit_s = audit.close();
  gate_audit(report, u.consistent, where, gate);
  return c;
}

/// Runs every unit with options `o`. With `certify_path` set, each run's
/// trace is certified right after the run, so only one run's records are
/// held at a time.
Pass run_pass(const Workload& w, const UnitOptions& o, const char* label,
              Gate& gate, const std::string& certify_path = "",
              Certified* certified = nullptr) {
  Pass p;
  const double t0 = wall_now();
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    const int run = static_cast<int>(i);
    p.units.push_back(run_unit(w.units[i], o, p.spans, run));
    UnitResult& u = p.units.back();
    const std::string where = std::string(label) + " run " + std::to_string(i);
    gate.check(u.drained, where + ": event queue did not drain");
    gate.check(!u.has_lines || u.consistent,
               where + ": committed lines have " + std::to_string(u.orphans) +
                   " orphan messages");
    if (!certify_path.empty()) {
      const Certified c = certify_run(w, run, u, certify_path, p.spans, gate);
      certified->io_s += c.io_s;
      certified->audit_s += c.audit_s;
    }
  }
  const double t1 = wall_now();
  p.wall_s = t1 - t0;
  for (const UnitResult& u : p.units) {
    p.merged.merge(u.res);
    p.commit_latency_s.insert(p.commit_latency_s.end(),
                              u.commit_latency_s.begin(),
                              u.commit_latency_s.end());
  }
  p.merge_s = wall_now() - t1;
  return p;
}

/// The pass's results merged per grid cell, in run order (the order
/// run_replicated merges its replications in).
std::vector<mh::RunResult> merge_by_cell(const Workload& w, const Pass& p) {
  std::vector<mh::RunResult> cells(w.cells.size());
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    cells[static_cast<std::size_t>(w.units[i].cell)].merge(p.units[i].res);
  }
  return cells;
}

/// Runs the grid the way the figure drivers do (run_replicated per cell on
/// the replication pool) and checks every cell's RunStats against the
/// benchmark's own composition of the same replications. Returns the
/// grid's wall time.
double run_pooled_grid(const Workload& w, const Pass& reference, Gate& gate) {
  const double t0 = wall_now();
  std::vector<mh::RunResult> cells;
  cells.reserve(w.cells.size());
  for (const Cell& c : w.cells) {
    cells.push_back(mh::run_replicated(c.cfg, c.reps, w.jobs));
  }
  const double wall = wall_now() - t0;
  const std::vector<mh::RunResult> own = merge_by_cell(w, reference);
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    gate.check(stats_fingerprint(cells[c]) == stats_fingerprint(own[c]),
               "run_replicated disagrees with the benchmark's composition "
               "on cell '" + w.cells[c].label + "'");
  }
  return wall;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// The fastest of repeated host-time samples of the same work. On a shared
/// host, load from other tenants only ever adds time, in episodes that last
/// seconds: a median over one call lands inside or outside such an episode
/// (on paper-lan16 the median pass spread 17% across calls), while the
/// fastest pass of the same calls spread 3%. The end-to-end times go one
/// step further and sum each run's fastest repetition, which needs a quiet
/// moment only as long as one run. Medians and the p90 are printed on
/// stderr with their sample counts.
double fastest(const char* name, const std::vector<double>& v) {
  const Quantile p90 = quantile(v, 0.90);
  std::fprintf(stderr,
               "mckbench: %s: fastest %.6g, median %.6g, p90 %.6g (%zu "
               "samples, %s)\n",
               name, quantile(v, 0.0).value, median(v), p90.value, v.size(),
               p90.supported ? "p90 supported" : "p90 unsupported");
  return quantile(v, 0.0).value;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Metrics end_to_end(const Workload& w, const Args& a, Gate& gate,
                   std::uint64_t* attempted) {
  constexpr std::size_t kSetupMinSamples = 11;
  constexpr std::size_t kSetupMaxSamples = 1001;
  constexpr double kSetupBudgetS = 2.0;
  std::vector<double> total, loop;
  // Each run's fastest repetition, and the fastest aggregation.
  std::vector<double> best_total, best_loop;
  double best_merge = 0;
  std::unique_ptr<Pass> first;
  // Read after the first pass, so the heap's growth over repeated passes
  // (which depends on how many fit in the time) does not enter it.
  double rss = 0;
  const double deadline = wall_now() + a.seconds;
  int passes = 0;
  do {
    auto p = std::make_unique<Pass>(run_pass(w, UnitOptions{}, "timed pass",
                                             gate));
    *attempted += p->units.size();
    ++passes;
    total.push_back(p->total_s());
    loop.push_back(p->loop_s());
    std::fprintf(stderr,
                 "mckbench: pass %d: set-up %.4f s, total %.4f s, event loop "
                 "%.4f s\n",
                 passes, p->setup_s(), total.back(), p->loop_s());
    if (first == nullptr) {
      for (const UnitResult& u : p->units) {
        best_total.push_back(u.total_s());
        best_loop.push_back(u.loop_s);
      }
      best_merge = p->merge_s;
      first = std::move(p);
      rss = peak_rss_mib();
    } else {
      gate_same_runs(first->units, p->units, "repeated timed pass", gate);
      for (std::size_t i = 0; i < p->units.size(); ++i) {
        best_total[i] = std::min(best_total[i], p->units[i].total_s());
        best_loop[i] = std::min(best_loop[i], p->units[i].loop_s);
      }
      best_merge = std::min(best_merge, p->merge_s);
    }
  } while (gate.ok() && wall_now() < deadline);
  if (w.pooled && gate.ok()) run_pooled_grid(w, *first, gate);

  // Set-up alone, apart from the passes: mixing in the passes' own
  // set-ups would make the sample depend on how many passes fit in the
  // time. A workload whose set-up takes a millisecond gets more samples,
  // so its fastest is not one of two speeds the host happened to run at.
  std::vector<double> setup;
  const double setup_until = wall_now() + kSetupBudgetS;
  while (setup.size() < kSetupMinSamples ||
         (setup.size() < kSetupMaxSamples && wall_now() < setup_until)) {
    SpanLog setup_spans;
    double s = 0;
    for (std::size_t i = 0; i < w.units.size(); ++i) {
      s += setup_only(w.units[i], setup_spans, static_cast<int>(i));
    }
    setup.push_back(s);
  }
  std::fprintf(stderr,
               "mckbench: %d timed passes of %zu runs, %zu set-up samples\n",
               passes, w.units.size(), setup.size());

  fastest("pass total s", total);
  fastest("pass event loop s", loop);
  double total_s = best_merge, loop_s = 0;
  for (std::size_t i = 0; i < best_total.size(); ++i) {
    total_s += best_total[i];
    loop_s += best_loop[i];
  }
  std::fprintf(stderr,
               "mckbench: sum of each run's fastest: total %.6g s, event "
               "loop %.6g s\n",
               total_s, loop_s);
  const mh::RunResult& r = first->merged;
  return {
      {"setup_s", fastest("setup_s", setup)},
      {"total_s", total_s},
      {"deliveries_per_s", static_cast<double>(r.stats.deliveries) / loop_s},
      {"peak_rss_mib", rss},
      {"sys_msgs_per_commit", r.sys_msgs_per_init.mean()},
  };
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "mckbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\trun\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\t%d\n", i, s.name.c_str(),
                 s.start, s.end, s.parent, s.run);
  }
  std::fclose(f);
}

void print_self_times(const char* title, const Pass& p) {
  std::fprintf(stderr, "mckbench: self time by span, %s (wall %.4f s)\n",
               title, p.wall_s);
  for (const auto& [name, self] : self_time_by_name(p.spans.spans())) {
    std::fprintf(stderr, "  %-24s %10.4f s\n", name.c_str(), self);
  }
}

/// Per-cell figures in the figure drivers' units and format, for
/// comparison with their tables (seed 0 runs their seeds).
void print_cells(const Workload& w, const Pass& p) {
  const std::vector<mh::RunResult> cells = merge_by_cell(w, p);
  std::fprintf(stderr,
               "mckbench: cell | committed | tentative/init | redundant "
               "mutable/init | commit delay s | blocked s/init | sys "
               "msgs/init\n");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const mh::RunResult& r = cells[c];
    std::fprintf(stderr, "  %s | %llu | %.3f | %.3f | %.3f | %.3f | %.3f\n",
                 w.cells[c].label.c_str(),
                 static_cast<unsigned long long>(r.committed),
                 r.tentative_per_init.mean(),
                 r.redundant_mutable_per_init.mean(), r.commit_delay_s.mean(),
                 r.blocked_s_per_init.mean(), r.sys_msgs_per_init.mean());
  }
}

void print_quantile(const char* name, const Quantile& q) {
  std::fprintf(stderr,
               "mckbench: %s = %.6g from %zu rounds, %zu beyond (%s)\n", name,
               q.value, q.samples, q.beyond,
               q.supported ? "supported" : "fewer than 10 beyond");
}

// The flight recorder stores peer pids in 16 bits, so traces of larger
// populations cannot be audited yet.
constexpr int kMaxAuditedProcesses = 65535;

Metrics per_layer(const Workload& w, const Args& a, Gate& gate,
                  std::uint64_t* attempted) {
  const bool certifiable =
      w.units.front().cfg.sys.num_processes <= kMaxAuditedProcesses;

  const Pass base = run_pass(w, UnitOptions{}, "untraced pass", gate);
  double pool_efficiency = 0.0;
  if (!gate.ok()) {
    // run_experiment aborts on the inconsistency the gate already found.
  } else if (w.pooled) {
    const double grid_s = run_pooled_grid(w, base, gate);
    pool_efficiency =
        total_of(base.spans.spans(), "harness.unit") / (w.jobs * grid_s);
  } else if (!w.units.front().mobility) {
    // run_experiment composes no mobility; elsewhere it must reproduce
    // the benchmark's RunStats exactly.
    for (std::size_t i = 0; i < w.units.size(); ++i) {
      const mh::RunResult ref = mh::run_replicated(w.units[i].cfg, 1, 1);
      gate.check(stats_fingerprint(ref) == base.units[i].stats_fingerprint,
                 "run_experiment disagrees with the benchmark's composition "
                 "on run " + std::to_string(i));
    }
  }

  Certified cert;
  const Pass traced =
      run_pass(w, UnitOptions{.trace = true}, "traced pass", gate,
               certifiable ? a.scratch + "/certify-" + w.name + ".mcktrc" : "",
               &cert);
  const Pass timeline =
      run_pass(w, UnitOptions{.timeline = true}, "timeline pass", gate);
  const Pass fidelity =
      run_pass(w, UnitOptions{.wire_fidelity = true}, "fidelity pass", gate);
  *attempted += 4 * w.units.size();
  gate_same_runs(base.units, traced.units, "traced pass", gate);
  gate_same_runs(base.units, timeline.units, "timeline pass", gate);
  gate_same_runs(base.units, fidelity.units, "wire-fidelity pass", gate);

  const double covered = top_level_total(traced.spans.spans());
  const double gap = traced.wall_s - covered;
  std::fprintf(stderr,
               "mckbench: traced pass wall %.4f s, top-level spans %.4f s, "
               "gap %.3f%% (tolerance %.0f%%)\n",
               traced.wall_s, covered, 100.0 * gap / traced.wall_s,
               100.0 * kSpanCoverageTolerance);
  gate.check(std::abs(gap) <= kSpanCoverageTolerance * traced.wall_s,
             "traced pass top-level spans do not add up to its wall time");
  std::fprintf(stderr,
               "mckbench: tracing overhead on total_s: %.4f s (traced %.4f, "
               "untraced %.4f)\n",
               traced.total_s() - base.total_s(), traced.total_s(),
               base.total_s());
  if (!certifiable) {
    std::fprintf(stderr,
                 "mckbench: n > %d: traced runs are not audited, certify_s "
                 "reads 0\n",
                 kMaxAuditedProcesses);
  }
  print_cells(w, base);
  print_self_times("untraced pass", base);
  print_self_times("traced pass", traced);
  write_spans(a.scratch + "/spans-" + w.name + ".tsv", traced.spans.spans());

  const mh::RunResult& r = base.merged;
  const mck::rt::RunStats& st = r.stats;
  std::vector<double> slices;
  for (const UnitResult& u : base.units) {
    slices.insert(slices.end(), u.slice_ms.begin(), u.slice_ms.end());
  }
  const Quantile p50 = quantile(base.commit_latency_s, 0.50);
  const Quantile p90 = quantile(base.commit_latency_s, 0.90);
  print_quantile("commit_latency_p50_s", p50);
  print_quantile("commit_latency_p90_s", p90);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"certify_s", certifiable ? traced.wall_s : 0.0},
      {"commit_latency_p50_s", p50.value},
      {"commit_latency_p90_s", p90.value},
      {"blocked_s_per_commit", r.blocked_s_per_init.mean()},
      {"failed_share", ratio(d(r.aborted), d(r.initiations))},
      {"stable_ckpts_per_commit", r.tentative_per_init.mean()},
      {"coord_bytes_per_commit",
       ratio(d(st.system_wire_bytes()), d(r.committed))},
      {"harness.system_ctor_s", base.sum(&UnitResult::ctor_s)},
      {"harness.start_s", base.sum(&UnitResult::start_s)},
      {"harness.pool_efficiency", pool_efficiency},
      {"sim.events", d(base.sum(&UnitResult::events))},
      {"sim.tombstones_reaped", d(base.sum(&UnitResult::tombstones))},
      {"sim.peak_pending", d(base.max(&UnitResult::peak_pending))},
      {"sim.slots", d(base.max(&UnitResult::slots))},
      {"sim.events_per_delivery",
       ratio(d(base.sum(&UnitResult::events)), d(st.deliveries))},
      {"sim.slice_ms_p50", quantile(slices, 0.5).value},
      {"sim.slice_ms_max", quantile(slices, 1.0).value},
      {"net.deliveries", d(st.deliveries)},
      {"net.comp_msgs", d(r.comp_msgs)},
      {"net.sys_msgs", d(st.system_msgs())},
      {"mobile.handoffs", d(base.sum(&UnitResult::handoffs))},
      {"mobile.buffered", d(base.sum(&UnitResult::buffered))},
      {"mobile.forwarded", d(base.sum(&UnitResult::forwarded))},
      {"core.tentative", d(st.tentative_taken)},
      {"core.mutable_taken", d(st.mutable_taken)},
      {"core.mutable_promoted", d(st.mutable_promoted)},
      {"core.mutable_discarded", d(st.mutable_discarded)},
      {"core.redundant_mutable_per_commit",
       r.redundant_mutable_per_init.mean()},
      {"core.duplicate_requests_per_commit",
       r.duplicate_requests_per_init.mean()},
      {"codec.fidelity_s", fidelity.loop_s() - base.loop_s()},
      {"ckpt.check_s", base.sum(&UnitResult::check_s)},
      {"ckpt.log_messages", d(base.sum(&UnitResult::log_messages))},
      {"ckpt.store_records", d(base.sum(&UnitResult::store_records))},
      {"ckpt.peak_stable_occupancy", d(base.max(&UnitResult::peak_stable))},
      {"obs.trace_overhead_s", traced.loop_s() - base.loop_s()},
      {"obs.trace_records", d(traced.sum(&UnitResult::trace_records))},
      {"obs.trace_io_s", cert.io_s},
      {"obs.audit_s", cert.audit_s},
      {"obs.timeline_overhead_s", timeline.loop_s() - base.loop_s()},
      {"util.arena_peak_bytes",
       d(timeline.max(&UnitResult::arena_peak_bytes))},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: mckbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  const int nproc = hc == 0 ? 1 : static_cast<int>(hc);
  Workload w;
  if (!make_workload(a.workload, a.seed, nproc, &w)) {
    std::fprintf(stderr, "mckbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("{\"host\": {\"nproc\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"runs\": %zu, \"jobs\": %d}}\n",
              nproc, MCKBENCH_COMPILER, MCKBENCH_BUILD_TYPE, w.units.size(),
              w.jobs);
  std::fflush(stdout);

  Gate gate;
  std::uint64_t attempted = 0;
  const Metrics m = a.trace == 0 ? end_to_end(w, a, gate, &attempted)
                                 : per_layer(w, a, gate, &attempted);
  if (!gate.ok()) {
    std::fprintf(stderr, "mckbench: %zu gate failures, no result\n",
                 gate.failures().size());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                m[i].second);
  }
  std::printf("}}\n");
  return 0;
}
