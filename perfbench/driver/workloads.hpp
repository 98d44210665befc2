// The benchmark's workloads and its own composition of the simulator:
// System constructor, workload / mobility / scheduler start, sliced
// run_until, check_consistency and aggregation, each timed from outside
// as a span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "harness/experiment.hpp"
#include "mobile/mobility.hpp"
#include "obs/audit.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_io.hpp"

namespace mckbench {

/// One simulated run: a fully seeded experiment configuration, plus the
/// mobility driver (default MobilityParams), which run_experiment does not
/// compose.
struct Unit {
  mck::harness::ExperimentConfig cfg;
  bool mobility = false;
  int cell = 0;  // grid cell this run belongs to
};

/// A grid cell as the figure drivers run it: run_replicated(cfg, reps).
struct Cell {
  std::string label;
  mck::harness::ExperimentConfig cfg;
  int reps = 1;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  std::vector<Unit> units;  // every replication of every cell, in order
  bool pooled = false;  // also run as the figure drivers do, on the pool
  int jobs = 1;         // replication workers when pooled
};

/// Builds workload `name` for benchmark seed `seed`; false if unknown.
/// Seed 0 reproduces the figure drivers' and fig_scale's own seeds.
bool make_workload(const std::string& name, std::uint64_t seed, int nproc,
                   Workload* out);

struct UnitOptions {
  bool trace = false;          // obs::Tracer on (all kinds)
  bool timeline = false;       // TimelineSampler on, 1 s of simulated time
  bool wire_fidelity = false;  // codec round trip on every hop
};

/// Everything measured or counted in one simulated run.
struct UnitResult {
  mck::harness::RunResult res;  // RunStats (no energy ledger) + aggregates
  std::vector<double> commit_latency_s;
  std::uint64_t fingerprint = 0;  // every simulated statistic
  std::uint64_t stats_fingerprint = 0;  // see stats_fingerprint()

  double ctor_s = 0, start_s = 0, loop_s = 0, check_s = 0, aggregate_s = 0;
  std::vector<double> slice_ms;

  std::uint64_t events = 0, tombstones = 0, slots = 0, peak_pending = 0;
  std::uint64_t handoffs = 0, buffered = 0, forwarded = 0;
  std::uint64_t log_messages = 0, store_records = 0, peak_stable = 0;
  std::uint64_t arena_peak_bytes = 0;

  bool drained = false;
  bool has_lines = false;
  bool consistent = true;
  std::size_t orphans = 0;

  mck::obs::TraceRun trace;  // filled when UnitOptions::trace
  std::uint64_t trace_records = 0;

  double total_s() const {
    return ctor_s + start_s + loop_s + check_s + aggregate_s;
  }
};

/// Runs one unit through the benchmark's own composition, recording
/// spans (tagged with `run`) into `spans`.
UnitResult run_unit(const Unit& u, const UnitOptions& o, SpanLog& spans,
                    int run);

/// Set-up alone (constructor and start calls, then teardown); returns the
/// set-up seconds.
double setup_only(const Unit& u, SpanLog& spans, int run);

/// Fingerprint of the RunStats counters (not the energy ledger) plus the
/// initiation counts: what run_experiment's result exposes, for the
/// reproduction check.
std::uint64_t stats_fingerprint(const mck::harness::RunResult& r);

/// Checks that two passes over the same runs produced identical simulated
/// statistics; names the first run that differs.
void gate_same_runs(const std::vector<UnitResult>& ref,
                    const std::vector<UnitResult>& got,
                    const std::string& what, Gate& gate);

/// Audit agreement of one traced pass: 0 violations and the offline
/// Theorem-1 verdict matches the in-sim checker. Appends failures.
void gate_audit(const mck::obs::AuditReport& report, bool insim_consistent,
                const std::string& where, Gate& gate);

/// VmHWM of this process in MiB (0 where procfs is unavailable).
double peak_rss_mib();

}  // namespace mckbench
