// Hot-path performance report. Measures the following, plus the fig_scale
// points (scale_path), and writes them to a JSON file (default
// BENCH_hotpath.json in the working directory):
//
//  1. Event-loop throughput (events/s) on a steady-state scheduling ring —
//     K pending events, each firing reschedules itself with a Message-sized
//     capture, with a protocol-style timer that is repeatedly scheduled and
//     cancelled. The SAME workload runs against two queues compiled into
//     this binary: the current Simulator (inline events + generation slot
//     pool + 4-ary heap) and a faithful replica of the pre-change queue
//     (std::function callables, shared_ptr<bool> cancellation flags,
//     std::push_heap binary heap). The replica IS the pre-change
//     measurement the acceptance bar refers to: both sides are measured by
//     the same code, same compiler, same machine, every run.
//
//  2. Allocations per event / per message, via an instrumented global
//     operator new local to this binary. Steady-state scheduling through
//     the current Simulator must not allocate at all; pooled message
//     payloads must recycle their control-block nodes.
//
//  3. Whole-simulation throughput (sim-seconds per wall-second and
//     events/s) on a fig5-style Cao-Singhal run, so the report tracks the
//     end-to-end number and not just the queue microcosm.
//
//  4. The Theorem-1 checker's cost per committed line: check_all on one
//     synthetic log with 10 and with 1000 consistent lines. The ratio
//     compares two times from one run, so it needs no baseline from
//     another host; a checker that rescans the log per line makes it ~100.
//
//  5. One checkpoint-request wave's cost vs the size of its MR: a k = 64
//     fan-out built as prop_cp builds it, at |MR| = 16 and 1024 slots,
//     with every request sized as record_wire_bytes sizes it. With one
//     shared MR block per wave the ratio stays near 2; a copy and a
//     re-encode of the MR per request (O(k x |MR|)) makes it ~20.
//
//  6. The set-up of a second n = 1M System in the same process (scale_path
//     n1M_setup_warm_s and n1M_setup_minflt): its wall time and the minor
//     page faults it takes. A block that glibc serves by mmap is faulted
//     in afresh by every System, so the fault count shows whether the
//     set-up depends on where glibc's dynamic mmap threshold happens to
//     sit.
//
// Usage: perf_report [--quick] [--out PATH]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/checker.hpp"
#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "sim/simulator.hpp"
#include "core/codec.hpp"
#include "core/payloads.hpp"
#include "util/pool.hpp"
#include "workload/traffic.hpp"

// ---------------------------------------------------------------------------
// Allocation instrumentation (binary-local). Counts every heap block the
// process requests; relaxed atomics keep the probe cheap enough that it
// does not distort the throughput numbers it is qualifying.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mck;
using Clock = std::chrono::steady_clock;

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Legacy queue: a line-for-line functional replica of the pre-change
// Simulator (see git history of src/sim/simulator.{hpp,cpp}). Kept here,
// not in the library, so the shipping code has exactly one event queue.
// ---------------------------------------------------------------------------

namespace legacy {

using EventFn = std::function<void()>;

class Simulator;

class EventHandle {
 public:
  EventHandle() = default;
  void cancel() {
    if (cancelled_ && !*cancelled_) {
      *cancelled_ = true;
      if (pending_cancelled_) ++*pending_cancelled_;
    }
  }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<bool> flag,
              std::shared_ptr<std::uint64_t> pending)
      : cancelled_(std::move(flag)), pending_cancelled_(std::move(pending)) {}
  std::shared_ptr<bool> cancelled_;
  std::shared_ptr<std::uint64_t> pending_cancelled_;
};

class Simulator {
 public:
  sim::SimTime now() const { return now_; }

  EventHandle schedule_at(sim::SimTime at, EventFn fn) {
    if (*pending_cancelled_ > 64 && *pending_cancelled_ * 2 > heap_.size()) {
      purge_cancelled();
    }
    auto flag = std::make_shared<bool>(false);
    heap_.push_back(Event{at, next_seq_++, std::move(fn), flag});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventHandle(std::move(flag), pending_cancelled_);
  }

  EventHandle schedule_after(sim::SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool step(sim::SimTime until = sim::kTimeNever) {
    while (!heap_.empty()) {
      if (heap_.front().at > until) return false;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      if (*ev.cancelled) {
        --*pending_cancelled_;
        continue;
      }
      *ev.cancelled = true;
      now_ = ev.at;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  std::uint64_t events_executed() const { return executed_; }

  void purge_cancelled() {
    if (*pending_cancelled_ == 0) return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const Event& e) { return *e.cancelled; }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    *pending_cancelled_ = 0;
  }

 private:
  struct Event {
    sim::SimTime at;
    std::uint64_t seq;
    EventFn fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  sim::SimTime now_ = sim::kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::shared_ptr<std::uint64_t> pending_cancelled_ =
      std::make_shared<std::uint64_t>(0);
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// The ring workload: the message-delivery hot path in miniature. Both
// queues run this exact pattern:
//  * `pending` in-flight messages; each delivery constructs the next
//    message (tagged payload + header) and schedules its arrival event,
//    which captures the full rt::Message — exactly what a transport
//    arrival closure hauls.
//  * every 4th delivery re-arms a far-future timeout and cancels the
//    previous one, the retry-timer idiom of the protocol layer.
// The payload allocation strategy follows each era's code: the legacy run
// uses std::make_shared (as every send-site did pre-change), the current
// run uses util::make_pooled. Deterministic: delays come from a fixed
// LCG, so both queues pop the exact same schedule.
// ---------------------------------------------------------------------------

struct RingState {
  std::uint64_t fired = 0;
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  sim::SimTime next_delay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<sim::SimTime>((lcg >> 33) % 1000 + 1);
  }
};

template <typename Sim, typename Handle, bool kPooled>
struct RingRunner {
  Sim& sim;
  RingState st;
  Handle timer;

  rt::Message make_msg() {
    rt::Message m;
    m.src = static_cast<ProcessId>(st.fired & 15);
    m.dst = static_cast<ProcessId>((st.fired >> 4) & 15);
    m.kind = rt::MsgKind::kComputation;
    std::shared_ptr<core::CompPayload> p;
    if constexpr (kPooled) {
      p = util::make_pooled<core::CompPayload>();
    } else {
      p = std::make_shared<core::CompPayload>();
    }
    p->csn = static_cast<Csn>(st.fired);
    m.payload = std::move(p);
    return m;
  }

  void fire(rt::Message& msg) {
    ++st.fired;
    // "Deliver": touch the payload like a protocol handler would.
    st.sink += static_cast<std::uint64_t>(
        msg.payload_as<core::CompPayload>()->csn);
    if ((st.fired & 3u) == 0) {
      timer.cancel();
      timer = sim.schedule_after(1u << 20, [] {});
    }
    sim.schedule_after(st.next_delay(),
                       [this, m = make_msg()]() mutable { fire(m); });
  }

  // Returns {events/s, allocs/event} over `events` steady-state firings
  // after `pending` ring slots and `warmup` firings have primed the pools.
  std::pair<double, double> run(int pending, std::uint64_t warmup,
                                std::uint64_t events) {
    for (int i = 0; i < pending; ++i) {
      sim.schedule_after(st.next_delay(), [this, m = make_msg()]() mutable {
        fire(m);
      });
    }
    while (st.fired < warmup) sim.step();
    std::uint64_t a0 = allocs();
    Clock::time_point t0 = Clock::now();
    std::uint64_t target = st.fired + events;
    while (st.fired < target) sim.step();
    double dt = secs_since(t0);
    std::uint64_t a1 = allocs();
    return {static_cast<double>(events) / dt,
            static_cast<double>(a1 - a0) / static_cast<double>(events)};
  }
};

// Pooled vs fresh payload churn: steady-state allocations per message
// payload acquired and dropped, mirroring what a request/reply exchange
// does to the heap.
std::pair<double, double> measure_payload_churn(std::uint64_t iters) {
  // Warm the pool.
  for (int i = 0; i < 64; ++i) {
    auto p = util::make_pooled<core::CompPayload>();
    (void)p;
  }
  std::uint64_t a0 = allocs();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto p = util::make_pooled<core::CompPayload>();
    p->csn = static_cast<Csn>(i & 15);
  }
  double pooled =
      static_cast<double>(allocs() - a0) / static_cast<double>(iters);
  a0 = allocs();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto p = std::make_shared<core::CompPayload>();
    p->csn = static_cast<Csn>(i & 15);
  }
  double fresh =
      static_cast<double>(allocs() - a0) / static_cast<double>(iters);
  return {pooled, fresh};
}

// Fig5-style end-to-end run: sim-seconds per wall-second and events/s.
struct SimThroughput {
  double sim_seconds_per_wall_second;
  double events_per_sec;
  double horizon_s;
};

SimThroughput measure_sim_throughput(bool quick) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = 16;
  cfg.sys.seed = 1000;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 0.1;
  cfg.ckpt_interval = sim::seconds(900);
  cfg.horizon = sim::seconds(quick ? 3600 : 4 * 3600);

  // One throwaway rep to fault in code paths, then the timed rep.
  harness::run_experiment(cfg);
  Clock::time_point t0 = Clock::now();
  harness::RunResult res = harness::run_experiment(cfg);
  double dt = secs_since(t0);

  double horizon_s = sim::to_seconds(cfg.horizon);
  return {horizon_s / dt,
          static_cast<double>(res.stats.deliveries) / dt, horizon_s};
}

// Checker cost vs committed lines: one n = 16 log of kCheckerMessages
// delivered messages, cut by 1000 consistent lines evenly spread over it
// (every process's cursor at that point); the 10-line tracker takes every
// 100th of them. check_all is timed best-of-kCheckerTrials on each.
constexpr int kCheckerProcs = 16;
constexpr std::size_t kCheckerMessages = 200'000;
constexpr int kCheckerTrials = 5;

struct CheckerPerf {
  double lines10_s = 0;
  double lines1000_s = 0;
  double ratio = 0;  // lines1000_s / lines10_s
};

double time_check_all(const ckpt::EventLog& log,
                      const ckpt::CoordinationTracker& tracker,
                      std::size_t lines) {
  double best = 0;
  for (int t = 0; t < kCheckerTrials; ++t) {
    Clock::time_point t0 = Clock::now();
    ckpt::CheckResult res = ckpt::ConsistencyChecker(log, tracker).check_all();
    double dt = secs_since(t0);
    if (!res.consistent || res.lines_checked != lines) {
      std::fprintf(stderr, "perf_report: checker workload is not %zu "
                   "consistent lines\n", lines);
      std::exit(1);
    }
    if (t == 0 || dt < best) best = dt;
  }
  return best;
}

CheckerPerf measure_checker() {
  ckpt::EventLog log(kCheckerProcs);
  ckpt::CoordinationTracker ten, thousand;
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < kCheckerMessages; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    auto src = static_cast<ProcessId>((lcg >> 33) % kCheckerProcs);
    auto dst = static_cast<ProcessId>((lcg >> 45) % kCheckerProcs);
    log.record_recv(log.record_send(src, dst, 0), dst, 0);
    if ((i + 1) % (kCheckerMessages / 1000) != 0) continue;
    const auto k = static_cast<Csn>((i + 1) / (kCheckerMessages / 1000));
    ckpt::InitiationStats& s =
        thousand.open(ckpt::make_initiation_id(0, k), 0, 0);
    for (ProcessId p = 0; p < kCheckerProcs; ++p) {
      s.line_updates.emplace_back(p, log.cursor(p));
    }
    s.committed_at = static_cast<sim::SimTime>(k);
    if (k % 100 == 0) ten.open(s.id, 0, 0) = s;  // same line, 10-line run
  }
  CheckerPerf out;
  out.lines10_s = time_check_all(log, ten, 10);
  out.lines1000_s = time_check_all(log, thousand, 1000);
  out.ratio = out.lines10_s > 0 ? out.lines1000_s / out.lines10_s : 0;
  return out;
}

// ---------------------------------------------------------------------------
// Scale path (the fig_scale workload, in-process). n = 1k is the
// throughput point — small enough that scheduler noise swamps single
// runs, so the best of `kScaleTrials` is reported; n = 1M is the memory
// point — peak RSS comes from VmHWM, which is a process-wide high-water
// mark, valid here because every stage before it stays under ~100 MB.
// The configs mirror bench/fig_scale's run_point() exactly.
// ---------------------------------------------------------------------------

constexpr int kScaleTrials = 5;

struct ScalePathPerf {
  double n1k_deliveries_per_sec = 0;  // best of kScaleTrials
  double n1k_wall_s = 0;              // fastest trial
  double n1M_wall_s = 0;
  std::uint64_t n1M_peak_rss_kib = 0;
  // Heap bytes per host a freshly constructed n=1M System holds.
  double n1M_construct_bytes_per_host = 0;
  // Construct + start of a second n=1M System, after the run: wall time
  // and minor page faults.
  double n1M_setup_warm_s = 0;
  std::uint64_t n1M_setup_minflt = 0;
  // Headline run-health numbers from the n=1M point's timeline (the
  // sampler is on for that run; its cost is part of n1M_wall_s, so the
  // report measures the instrumented configuration CI actually ships).
  std::uint64_t n1M_timeline_rows = 0;
  std::uint64_t n1M_peak_queue_depth = 0;
  std::int64_t n1M_peak_in_flight = 0;
  std::int64_t n1M_peak_blocked = 0;
};

/// Column-wise peak over a timeline run (signed columns compare as i64).
std::int64_t timeline_peak_i64(const obs::TimelineRun& run, int col) {
  std::int64_t peak = 0;
  for (std::size_t k = 0; k < run.rows(); ++k) {
    peak = std::max(peak, obs::timeline_i64(run.row(k)[col]));
  }
  return peak;
}

harness::ExperimentConfig scale_cfg(int n) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = harness::Algorithm::kCaoSinghal;
  cfg.sys.num_processes = n;
  cfg.sys.seed = 4242;
  cfg.sys.transport = harness::TransportKind::kCellular;
  cfg.sys.cellular.num_mss = n <= 1000 ? 4 : 32;
  cfg.sys.cellular.cells_per_mss =
      std::max(1, (n / 64) / cfg.sys.cellular.num_mss);
  cfg.sys.timing.record_wire_bytes = true;
  cfg.workload = harness::WorkloadKind::kPointToPoint;
  cfg.rate = 60.0 / n;
  cfg.ckpt_interval = sim::seconds(300);
  cfg.horizon = sim::seconds(600);
  cfg.initiator_limit = n <= 1000 ? 0 : 4;
  return cfg;
}

std::uint64_t vm_hwm_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

/// Heap bytes per host held by a freshly constructed System (glibc
/// mallinfo2: in-use arena bytes plus mmapped chunks, before and after).
double construct_bytes_per_host(const harness::SystemOptions& opts) {
  auto heap = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t before = heap();
  auto sys = std::make_unique<harness::System>(opts);
  const std::size_t after = heap();
  return static_cast<double>(after - before) / opts.num_processes;
}

std::uint64_t minor_faults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Constructs and starts one System as run_experiment does before its
/// event loop (no tracer, no timeline) and returns the wall time; the
/// minor page faults taken go to *minflt. Teardown is not timed.
double time_setup(const harness::ExperimentConfig& cfg, std::uint64_t* minflt) {
  const std::uint64_t f0 = minor_faults();
  const Clock::time_point t0 = Clock::now();
  harness::System sys(cfg.sys);
  workload::PointToPointWorkload p2p(
      sys.simulator(), sys.rng(), sys.n(), cfg.rate,
      [&sys](ProcessId a, ProcessId b) { sys.send(a, b); });
  p2p.start(cfg.horizon);
  harness::SchedulerOptions so;
  so.interval = cfg.ckpt_interval;
  so.serialize = cfg.serialize_initiations;
  so.initiator_limit = cfg.initiator_limit;
  harness::CheckpointScheduler sched(sys, so);
  sched.start(cfg.horizon);
  const double wall = secs_since(t0);
  *minflt = minor_faults() - f0;
  return wall;
}

ScalePathPerf measure_scale_path() {
  ScalePathPerf out;
  {
    harness::ExperimentConfig cfg = scale_cfg(1000);
    for (int t = 0; t < kScaleTrials; ++t) {
      Clock::time_point t0 = Clock::now();
      harness::RunResult res = harness::run_experiment(cfg);
      double wall = secs_since(t0);
      double dps =
          wall > 0 ? static_cast<double>(res.stats.deliveries) / wall : 0;
      if (dps > out.n1k_deliveries_per_sec) {
        out.n1k_deliveries_per_sec = dps;
        out.n1k_wall_s = wall;
      }
    }
  }
  {
    harness::ExperimentConfig cfg = scale_cfg(1000000);
    // Construction alone first: it peaks well below the run, so VmHWM
    // below still measures the run.
    out.n1M_construct_bytes_per_host = construct_bytes_per_host(cfg.sys);
    cfg.capture_timeline = true;
    cfg.timeline_interval = sim::seconds(1);
    Clock::time_point t0 = Clock::now();
    harness::RunResult res = harness::run_experiment(cfg);
    out.n1M_wall_s = secs_since(t0);
    out.n1M_peak_rss_kib = vm_hwm_kib();
    // After VmHWM is read: a set-up peaks below the run, but it is not
    // part of what the peak measures.
    out.n1M_setup_warm_s = time_setup(cfg, &out.n1M_setup_minflt);
    if (!res.timelines.empty()) {
      const obs::TimelineRun& tl = res.timelines.front();
      out.n1M_timeline_rows = tl.rows();
      out.n1M_peak_queue_depth = static_cast<std::uint64_t>(
          timeline_peak_i64(tl, obs::kColQueueDepth));
      out.n1M_peak_in_flight = timeline_peak_i64(tl, obs::kColInFlight);
      out.n1M_peak_blocked = timeline_peak_i64(tl, obs::kColBlockedProcs);
    }
  }
  return out;
}

// One request wave, as prop_cp sends it: the wave's MR block is built from
// the incoming MR, then kWaveFanout pooled requests point at it, each with
// its own halved weight, and each is sized (wire_size) the way
// record_wire_bytes sizes every send. The whole wave is alive at once, as
// it is in flight. Best-of-kWaveTrials of the mean over kWaves waves.
constexpr int kWaveFanout = 64;
constexpr int kWaves = 500;
constexpr int kWaveTrials = 5;

struct WavePerf {
  double mr16_s = 0;    // per wave
  double mr1024_s = 0;  // per wave
  double ratio = 0;     // mr1024_s / mr16_s
};

double time_wave(std::size_t mr_slots) {
  core::SparseMr mr_in;
  for (std::size_t i = 0; i < mr_slots; ++i) {
    mr_in.put(i * 7 + 1, core::MrEntry{static_cast<Csn>(i % 300 + 1),
                                       static_cast<std::uint8_t>(i % 2)});
  }
  std::vector<std::shared_ptr<core::RequestPayload>> wave(kWaveFanout);
  std::uint64_t bytes = 0;
  double best = 0;
  for (int t = 0; t < kWaveTrials; ++t) {
    Clock::time_point t0 = Clock::now();
    for (int w = 0; w < kWaves; ++w) {
      const std::shared_ptr<const core::MrBlock> block =
          core::make_mr_block(mr_in);
      util::Weight weight = util::Weight::one();
      for (int k = 0; k < kWaveFanout; ++k) {
        weight.halve();
        auto rp = util::make_pooled<core::RequestPayload>();
        rp->mr = block;
        rp->sender_csn = 5;
        rp->trigger = core::Trigger{0, 3};
        rp->req_csn = static_cast<Csn>(k);
        rp->weight = weight;
        bytes += core::wire_size(*rp);
        wave[static_cast<std::size_t>(k)] = std::move(rp);
      }
      for (auto& rp : wave) rp.reset();
    }
    const double dt = secs_since(t0) / kWaves;
    if (t == 0 || dt < best) best = dt;
  }
  if (bytes == 0) std::exit(1);  // keeps the sizing from being elided
  return best;
}

WavePerf measure_request_wave() {
  WavePerf out;
  out.mr16_s = time_wave(16);
  out.mr1024_s = time_wave(1024);
  out.ratio = out.mr16_s > 0 ? out.mr1024_s / out.mr16_s : 0;
  return out;
}

#ifndef MCK_BUILD_TYPE
#define MCK_BUILD_TYPE "unknown"
#endif

/// The host a report was measured on: numbers from different hosts or
/// builds are not comparable, so every snapshot and history row carries
/// this.
struct HostInfo {
  unsigned nproc = 0;
  const char* compiler = "";
  const char* build_type = MCK_BUILD_TYPE;
};

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

void usage() {
  std::fprintf(stderr,
               "usage: perf_report [--quick] [--out PATH]\n"
               "                   [--history PATH] [--sha SHA] [--stamp TS]\n"
               "  --history PATH  append a one-line JSONL summary of this run\n"
               "                  (default BENCH_history.jsonl; \"\" disables)\n"
               "  --sha SHA       git commit the run measures (history key)\n"
               "  --stamp TS      timestamp string for the history line\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::has_flag(argc, argv, "--quick");
  const char* out_path = "BENCH_hotpath.json";
  const char* history_path = "BENCH_history.jsonl";
  const char* sha = "";
  const char* stamp = "";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--history") == 0) history_path = argv[i + 1];
    if (std::strcmp(argv[i], "--sha") == 0) sha = argv[i + 1];
    if (std::strcmp(argv[i], "--stamp") == 0) stamp = argv[i + 1];
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    }
  }

  int pending = 256;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--pending") == 0) pending = std::atoi(argv[i + 1]);
  }
  const std::uint64_t warmup = quick ? 50'000 : 200'000;
  const std::uint64_t events = quick ? 500'000 : 4'000'000;

  std::printf("perf_report: ring pending=%d warmup=%llu events=%llu%s\n",
              pending, static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(events), quick ? " (quick)" : "");

  // Interleave repetitions of both queues and keep the best of each, so
  // one-off scheduler noise cannot gift either side the comparison.
  double cur_eps = 0, cur_ape = 0, leg_eps = 0, leg_ape = 0;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    {
      sim::Simulator s;
      RingRunner<sim::Simulator, sim::EventHandle, true> ring{s, {}, {}};
      auto [eps, ape] = ring.run(pending, warmup, events);
      if (eps > cur_eps) {
        cur_eps = eps;
        cur_ape = ape;
      }
    }
    {
      legacy::Simulator s;
      RingRunner<legacy::Simulator, legacy::EventHandle, false> ring{s, {}, {}};
      auto [eps, ape] = ring.run(pending, warmup, events);
      if (eps > leg_eps) {
        leg_eps = eps;
        leg_ape = ape;
      }
    }
  }
  double speedup = leg_eps > 0 ? cur_eps / leg_eps : 0.0;
  std::printf("event loop: current %.0f ev/s (%.3f allocs/ev), "
              "legacy %.0f ev/s (%.3f allocs/ev), speedup %.2fx\n",
              cur_eps, cur_ape, leg_eps, leg_ape, speedup);

  auto [pooled_apm, fresh_apm] = measure_payload_churn(quick ? 200'000
                                                            : 1'000'000);
  std::printf("payload churn: pooled %.3f allocs/msg, fresh %.3f allocs/msg\n",
              pooled_apm, fresh_apm);

  SimThroughput st = measure_sim_throughput(quick);
  std::printf("fig5-style run: %.0f sim-seconds/wall-second, "
              "%.0f deliveries/s\n",
              st.sim_seconds_per_wall_second, st.events_per_sec);

  CheckerPerf ck = measure_checker();
  std::printf("checker: %zu messages, 10 lines %.4fs, 1000 lines %.4fs "
              "(ratio %.2f)\n",
              kCheckerMessages, ck.lines10_s, ck.lines1000_s, ck.ratio);

  WavePerf rw = measure_request_wave();
  std::printf("request wave: k=%d, |MR|=16 %.2fus, |MR|=1024 %.2fus "
              "(ratio %.2f)\n",
              kWaveFanout, rw.mr16_s * 1e6, rw.mr1024_s * 1e6, rw.ratio);

  ScalePathPerf sc = measure_scale_path();
  std::printf("scale path: n=1k best-of-%d %.0f deliveries/s (%.2fs), "
              "n=1M %.2fs peak rss %llu KiB, %.0f B/host constructed\n",
              kScaleTrials, sc.n1k_deliveries_per_sec, sc.n1k_wall_s,
              sc.n1M_wall_s,
              static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
              sc.n1M_construct_bytes_per_host);
  std::printf("scale set-up: second n=1M construct + start %.3fs, %llu "
              "minor faults\n",
              sc.n1M_setup_warm_s,
              static_cast<unsigned long long>(sc.n1M_setup_minflt));
  std::printf("scale timeline: n=1M rows=%llu peak queue=%llu "
              "in-flight=%lld blocked=%lld\n",
              static_cast<unsigned long long>(sc.n1M_timeline_rows),
              static_cast<unsigned long long>(sc.n1M_peak_queue_depth),
              static_cast<long long>(sc.n1M_peak_in_flight),
              static_cast<long long>(sc.n1M_peak_blocked));

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "perf_report: cannot write %s\n", out_path);
    return 1;
  }
  const HostInfo host = host_info();
  std::fprintf(f,
               "{\n"
               "  \"quick\": %s,\n"
               "  \"host\": {\n"
               "    \"nproc\": %u,\n"
               "    \"compiler\": \"%s\",\n"
               "    \"build_type\": \"%s\"\n"
               "  },\n"
               "  \"event_loop\": {\n"
               "    \"ring_pending\": %d,\n"
               "    \"ring_events\": %llu,\n"
               "    \"current_events_per_sec\": %.1f,\n"
               "    \"prechange_events_per_sec\": %.1f,\n"
               "    \"speedup_over_prechange\": %.3f\n"
               "  },\n"
               "  \"allocs\": {\n"
               "    \"per_event_current\": %.4f,\n"
               "    \"per_event_prechange\": %.4f,\n"
               "    \"per_pooled_message\": %.4f,\n"
               "    \"per_fresh_message\": %.4f\n"
               "  },\n"
               "  \"sim_throughput\": {\n"
               "    \"workload\": \"cao_singhal n=16 rate=0.1 p2p, horizon %.0fs\",\n"
               "    \"sim_seconds_per_wall_second\": %.1f,\n"
               "    \"deliveries_per_sec\": %.1f\n"
               "  },\n"
               "  \"checker\": {\n"
               "    \"workload\": \"check_all, n=%d, %zu delivered messages, "
               "consistent lines, best-of-%d\",\n"
               "    \"lines10_s\": %.5f,\n"
               "    \"lines1000_s\": %.5f,\n"
               "    \"ratio_1000_over_10\": %.3f\n"
               "  },\n"
               "  \"request_wave\": {\n"
               "    \"workload\": \"one k=%d request fan-out sharing one MR "
               "block, every request sized, best-of-%d of %d waves\",\n"
               "    \"mr16_wave_us\": %.3f,\n"
               "    \"mr1024_wave_us\": %.3f,\n"
               "    \"ratio_mr1024_over_mr16\": %.3f\n"
               "  },\n"
               "  \"scale_path\": {\n"
               "    \"workload\": \"fig_scale points, in-process (n=1k "
               "best-of-%d, n=1M once)\",\n"
               "    \"n1k_deliveries_per_sec\": %.1f,\n"
               "    \"n1k_wall_s\": %.3f,\n"
               "    \"n1M_wall_s\": %.3f,\n"
               "    \"n1M_peak_rss_kib\": %llu,\n"
               "    \"n1M_construct_bytes_per_host\": %.1f,\n"
               "    \"n1M_setup_warm_s\": %.3f,\n"
               "    \"n1M_setup_minflt\": %llu,\n"
               "    \"n1M_timeline_rows\": %llu,\n"
               "    \"n1M_peak_queue_depth\": %llu,\n"
               "    \"n1M_peak_in_flight\": %lld,\n"
               "    \"n1M_peak_blocked\": %lld\n"
               "  }\n"
               "}\n",
               quick ? "true" : "false", host.nproc, host.compiler,
               host.build_type, pending,
               static_cast<unsigned long long>(events), cur_eps, leg_eps,
               speedup, cur_ape, leg_ape, pooled_apm, fresh_apm, st.horizon_s,
               st.sim_seconds_per_wall_second, st.events_per_sec,
               kCheckerProcs, kCheckerMessages, kCheckerTrials, ck.lines10_s,
               ck.lines1000_s, ck.ratio, kWaveFanout, kWaveTrials, kWaves,
               rw.mr16_s * 1e6, rw.mr1024_s * 1e6, rw.ratio, kScaleTrials,
               sc.n1k_deliveries_per_sec, sc.n1k_wall_s, sc.n1M_wall_s,
               static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
               sc.n1M_construct_bytes_per_host, sc.n1M_setup_warm_s,
               static_cast<unsigned long long>(sc.n1M_setup_minflt),
               static_cast<unsigned long long>(sc.n1M_timeline_rows),
               static_cast<unsigned long long>(sc.n1M_peak_queue_depth),
               static_cast<long long>(sc.n1M_peak_in_flight),
               static_cast<long long>(sc.n1M_peak_blocked));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // The snapshot above overwrites; the history file accumulates — one
  // compact JSONL line per run, keyed by (git sha, timestamp) so trends
  // across commits survive the snapshot churn.
  if (history_path[0] != '\0') {
    std::FILE* h = std::fopen(history_path, "a");
    if (!h) {
      std::fprintf(stderr, "perf_report: cannot append to %s\n", history_path);
      return 1;
    }
    std::fprintf(h,
                 "{\"sha\":\"%s\",\"stamp\":\"%s\",\"quick\":%s,"
                 "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
                 "\"current_events_per_sec\":%.1f,"
                 "\"prechange_events_per_sec\":%.1f,"
                 "\"speedup_over_prechange\":%.3f,"
                 "\"allocs_per_event_current\":%.4f,"
                 "\"sim_seconds_per_wall_second\":%.1f,"
                 "\"deliveries_per_sec\":%.1f,"
                 "\"checker_ratio_1000_over_10\":%.3f,"
                 "\"request_wave_ratio_mr1024_over_mr16\":%.3f,"
                 "\"n1k_deliveries_per_sec\":%.1f,"
                 "\"n1M_wall_s\":%.3f,"
                 "\"n1M_peak_rss_kib\":%llu,"
                 "\"n1M_construct_bytes_per_host\":%.1f,"
                 "\"n1M_setup_warm_s\":%.3f,"
                 "\"n1M_setup_minflt\":%llu}\n",
                 sha, stamp, quick ? "true" : "false", host.nproc,
                 host.compiler, host.build_type, cur_eps, leg_eps,
                 speedup, cur_ape, st.sim_seconds_per_wall_second,
                 st.events_per_sec, ck.ratio, rw.ratio,
                 sc.n1k_deliveries_per_sec, sc.n1M_wall_s,
                 static_cast<unsigned long long>(sc.n1M_peak_rss_kib),
                 sc.n1M_construct_bytes_per_host, sc.n1M_setup_warm_s,
                 static_cast<unsigned long long>(sc.n1M_setup_minflt));
    std::fclose(h);
    std::printf("appended %s\n", history_path);
  }

  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "WARNING: event-loop speedup %.2fx below the 1.5x bar\n",
                 speedup);
  }
  return 0;
}
