// Tests of the benchmark's own machinery: the percentile support rule,
// span self-time arithmetic, fingerprint determinism and seed handling,
// and that the correctness gate fires on tampered inputs.
//
//   mckbench_selftest
//
// Exits 0 when every check passes; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "workloads.hpp"

using namespace mckbench;
namespace mh = mck::harness;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_quantile() {
  Quantile q = quantile(one_to(100), 0.90);
  expect(near(q.value, 90) && q.samples == 100 && q.beyond == 10 &&
             q.supported,
         "p90 of 100 samples is 90 with 10 beyond");
  q = quantile(one_to(99), 0.90);
  expect(q.beyond == 9 && !q.supported, "p90 of 99 samples is unsupported");
  q = quantile(one_to(20), 0.50);
  expect(near(q.value, 10) && q.beyond == 10 && q.supported,
         "median of 20 samples is supported");
  q = quantile(one_to(19), 0.50);
  expect(q.beyond == 9 && !q.supported, "median of 19 samples is not");
  q = quantile(one_to(7), 1.0);
  expect(near(q.value, 7) && q.beyond == 0, "p100 is the maximum");
  q = quantile({5, 3, 9, 4}, 0.0);
  expect(near(q.value, 3) && q.beyond == 3, "p0 is the fastest sample");
  q = quantile({}, 0.5);
  expect(q.samples == 0 && !q.supported, "empty sample");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

Span span(const char* name, double a, double b, int parent) {
  Span s;
  s.name = name;
  s.start = a;
  s.end = b;
  s.parent = parent;
  return s;
}

void test_spans() {
  // Parent [0, 10] with children [1, 3], [2, 5] (overlapping) and [7, 8];
  // a grandchild [1.5, 2] inside the first child; a second top-level span.
  std::vector<Span> s = {span("root", 0, 10, -1), span("a", 1, 3, 0),
                         span("b", 2, 5, 0),      span("c", 7, 8, 0),
                         span("a1", 1.5, 2, 1),   span("next", 10, 12, -1)};
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 10 - 4 - 1), "parent self time subtracts the union "
                                    "of its children");
  expect(near(self[1], 2 - 0.5), "child self time subtracts its child");
  expect(near(self[4], 0.5) && near(self[5], 2), "leaf self time");
  // Without overlapping siblings, self times add up to the wall time.
  const std::vector<Span> tree = {span("root", 0, 10, -1), span("a", 1, 3, 0),
                                  span("b", 3, 5, 0), span("a1", 1.5, 2, 1)};
  double sum = 0;
  for (double v : self_times(tree)) sum += v;
  expect(near(sum, 10), "self times of nested spans add up to the wall");
  expect(near(top_level_total(s), 12), "top-level total");
  expect(near(total_of(s, "b"), 3), "total by name");
  const auto by_name = self_time_by_name(s);
  expect(by_name.size() == 6 && by_name[0].first == "root",
         "self time by name keeps first-seen order");

  SpanLog log;
  {
    ScopedSpan outer(log, "outer", 3);
    ScopedSpan inner(log, "inner", 3);
  }
  expect(log.spans().size() == 2 && log.spans()[0].parent == -1 &&
             log.spans()[1].parent == 0 && log.spans()[1].run == 3 &&
             log.spans()[0].end >= log.spans()[1].end,
         "scoped spans nest and close in order");
}

/// A small unit of `name`: its first run, shortened to `horizon_s`.
Unit small_unit(const char* name, std::uint64_t seed, int horizon_s) {
  Workload w;
  make_workload(name, seed, 1, &w);
  Unit u = w.units.front();
  u.cfg.horizon = mck::sim::seconds(horizon_s);
  return u;
}

void test_seeds_and_fingerprints() {
  Workload a, b, z;
  expect(make_workload("paper-lan16", 1, 4, &a) &&
             make_workload("paper-lan16", 2, 4, &b) &&
             make_workload("paper-lan16", 0, 4, &z),
         "paper-lan16 builds");
  expect(a.units.size() == b.units.size() &&
             a.units[0].cfg.sys.seed != b.units[0].cfg.sys.seed,
         "a different seed gives different inputs");
  expect(z.cells[0].cfg.sys.seed == 1000, "seed 0 is the figure seed");
  Workload m;
  expect(make_workload("sparse-cell1M", 0, 4, &m) &&
             m.units[0].cfg.sys.seed == 4242,
         "seed 0 is fig_scale's seed");
  expect(!make_workload("no-such", 1, 4, &m), "unknown workload refused");

  SpanLog spans;
  for (const char* name : {"paper-lan16", "mobile-cell1k"}) {
    const int horizon = std::string(name) == "paper-lan16" ? 3600 : 300;
    const Unit u1 = small_unit(name, 1, horizon);
    const UnitResult r1 = run_unit(u1, UnitOptions{}, spans, 0);
    const UnitResult r1b = run_unit(u1, UnitOptions{}, spans, 0);
    const UnitResult r2 = run_unit(small_unit(name, 2, horizon),
                                   UnitOptions{}, spans, 0);
    expect(r1.drained && r1.consistent && r1.res.stats.deliveries > 0,
           std::string(name) + ": small run drains and is consistent");
    expect(r1.fingerprint == r1b.fingerprint &&
               r1.stats_fingerprint == r1b.stats_fingerprint,
           std::string(name) + ": same seed, same fingerprint");
    expect(r1.fingerprint != r2.fingerprint,
           std::string(name) + ": different seed, different fingerprint");
    if (u1.mobility) {
      expect(r1.handoffs > 0, "mobile run hands off");
    }
  }
}

void test_gate() {
  std::fprintf(stderr, "mckbench_selftest: the gate must fire below; its "
                       "GATE FAILED lines are expected\n");
  SpanLog spans;
  const Unit u = small_unit("paper-lan16", 3, 3600);
  std::vector<UnitResult> ref = {run_unit(u, UnitOptions{}, spans, 0)};
  std::vector<UnitResult> traced = {
      run_unit(u, UnitOptions{.trace = true}, spans, 0)};

  Gate same;
  gate_same_runs(ref, traced, "traced", same);
  expect(same.ok(), "gate passes identical passes");
  std::vector<UnitResult> tampered = ref;
  tampered[0].fingerprint ^= 1;
  Gate fp;
  gate_same_runs(ref, tampered, "tampered", fp);
  expect(!fp.ok(), "gate fires on a tampered fingerprint");

  std::vector<mck::obs::TraceRun> runs(1);
  runs[0].records = traced[0].trace.records;
  Gate clean;
  gate_audit(mck::obs::audit_runs(runs, u.cfg.sys.num_processes), true,
             "clean", clean);
  expect(clean.ok(), "gate passes a clean audit");

  // Re-address one computation delivery to a message that was never sent.
  bool tampered_trace = false;
  for (mck::obs::TraceRecord& r : runs[0].records) {
    if (r.kind == static_cast<std::uint8_t>(mck::obs::TraceKind::kMsgDeliver) &&
        r.sub == 0) {
      r.arg0 += 1u << 30;
      tampered_trace = true;
      break;
    }
  }
  expect(tampered_trace, "trace has a computation delivery to tamper with");
  Gate audit;
  gate_audit(mck::obs::audit_runs(runs, u.cfg.sys.num_processes), true,
             "tampered", audit);
  expect(!audit.ok(), "gate fires on a violating audit");

  mck::obs::AuditReport disagree;
  disagree.violations.push_back(
      {mck::obs::AuditCheck::kConsistency, 0, 0, 0, "orphan"});
  Gate verdict;
  gate_audit(disagree, true, "disagree", verdict);
  expect(verdict.failures().size() == 2,
         "gate fires on violations and on a Theorem-1 disagreement");
}

}  // namespace

int main() {
  test_quantile();
  test_spans();
  test_seeds_and_fingerprints();
  test_gate();
  if (g_failures > 0) {
    std::fprintf(stderr, "mckbench_selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("mckbench_selftest: all checks passed\n");
  return 0;
}
