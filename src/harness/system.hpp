// One-stop construction of a simulated mobile computing system: the event
// engine, a transport (wireless LAN or cellular), the checkpoint
// substrate, and one protocol instance per process. Examples, tests and
// benches all build on this.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "baselines/chandy_lamport.hpp"
#include "baselines/csn_schemes.hpp"
#include "baselines/elnozahy.hpp"
#include "baselines/koo_toueg.hpp"
#include "baselines/lai_yang.hpp"
#include "baselines/uncoordinated.hpp"
#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "core/cao_singhal.hpp"
#include "mobile/cellular.hpp"
#include "net/lan.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rt/protocol.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mck::harness {

enum class Algorithm {
  kCaoSinghal,
  kKooToueg,
  kElnozahy,
  kChandyLamport,
  kLaiYang,
  kSimpleScheme,
  kRevisedScheme,
  kUncoordinated,
};

const char* to_string(Algorithm a);

/// Whether committed-line consistency checking applies (the csn schemes
/// and uncoordinated checkpointing have no committed global lines).
bool has_committed_lines(Algorithm a);

/// The protocol instances of one run, unbound, in slabs of 512
/// contiguous objects: the algorithm, hence the object size, is fixed per
/// run, so n processes cost n/512 allocations and no per-process pointer.
/// A slab stays below 128 KiB, glibc's default mmap threshold, so it is
/// an ordinary heap chunk wherever the dynamic threshold sits. A larger
/// block is served by mmap, with fresh pages faulted in on every System,
/// whenever the threshold is at its default (see DESIGN.md, "Allocator
/// discipline"). Destroys the instances (virtually) with the slabs.
class ProtocolSet {
 public:
  ProtocolSet() = default;
  ProtocolSet(Algorithm a, std::size_t count);
  ProtocolSet(ProtocolSet&& other) noexcept { swap(other); }
  ProtocolSet& operator=(ProtocolSet&& other) noexcept {
    ProtocolSet moved(std::move(other));
    swap(moved);
    return *this;
  }
  ProtocolSet(const ProtocolSet&) = delete;
  ProtocolSet& operator=(const ProtocolSet&) = delete;
  ~ProtocolSet();

  /// Unchecked, like std::vector::operator[].
  rt::CheckpointProtocol& operator[](std::size_t i) {
    return *std::launder(reinterpret_cast<rt::CheckpointProtocol*>(
        slabs_[i >> kSlabShift] + (i & (kSlabSize - 1)) * stride_ +
        base_offset_));
  }

 private:
  static constexpr std::size_t kSlabShift = 9;
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;
  /// glibc's default M_MMAP_THRESHOLD; requests at or above it are mmapped
  /// until a free raises the dynamic threshold.
  static constexpr std::size_t kMmapThreshold = 128 * 1024;

  template <typename T, typename... Args>
  void emplace(std::size_t count, const Args&... args);
  void swap(ProtocolSet& other) noexcept {
    slabs_.swap(other.slabs_);
    std::swap(stride_, other.stride_);
    std::swap(base_offset_, other.base_offset_);
    std::swap(count_, other.count_);
  }

  std::vector<std::byte*> slabs_;
  std::size_t stride_ = 0;       // sizeof the concrete protocol type
  std::size_t base_offset_ = 0;  // of the CheckpointProtocol subobject
  std::size_t count_ = 0;
};

enum class TransportKind { kLan, kCellular };

struct SystemOptions {
  int num_processes = 16;
  Algorithm algorithm = Algorithm::kCaoSinghal;
  core::CaoSinghalOptions cs;
  rt::TimingConfig timing;
  TransportKind transport = TransportKind::kLan;
  net::LanParams lan;
  mobile::CellularParams cellular;
  std::uint64_t seed = 1;

  /// Wire-fidelity mode (--wire-fidelity): the transport serializes every
  /// payload on send and protocols only receive what the codec decodes —
  /// codec gaps surface as test failures instead of silent divergence.
  /// Off by default; a lossless codec makes results identical either way.
  bool wire_fidelity = false;

  /// Flight recorder (DESIGN.md "Flight recorder"). When non-null, every
  /// layer — simulator, transport, store, tracker, protocols — records
  /// into it. Null keeps the hot path at a single untaken branch per site.
  obs::Tracer* tracer = nullptr;

  /// Run-health timeline sampler (DESIGN.md 3f). When non-null *and*
  /// configured, the constructor attaches its gauge block to every owner
  /// (transport, store, tracker, protocols), registers the pull sources
  /// (stats / arena / transport cumulatives) and arms the simulator's
  /// sampling hook. Null or unconfigured keeps every hot-path site at a
  /// single untaken branch.
  obs::TimelineSampler* timeline = nullptr;
};

class System {
 public:
  explicit System(SystemOptions opts);

  int n() const { return opts_.num_processes; }
  const SystemOptions& options() const { return opts_; }

  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  ckpt::EventLog& log() { return log_; }
  ckpt::CheckpointStore& store() { return store_; }
  ckpt::CoordinationTracker& tracker() { return tracker_; }
  rt::RunStats& stats() { return stats_; }
  rt::Transport& transport();
  net::LanTransport* lan() { return lan_.get(); }
  mobile::CellularTransport* cellular() { return cell_.get(); }

  rt::CheckpointProtocol& proto(ProcessId p) {
    return protos_[static_cast<std::size_t>(p)];
  }
  /// Typed access; asserts the algorithm matches.
  core::CaoSinghalProtocol& cao(ProcessId p);
  baselines::KooTouegProtocol& koo(ProcessId p);

  /// Application-level send of one computation message. A disconnected MH
  /// performs no send events (Section 2.2), so the send is dropped.
  void send(ProcessId src, ProcessId dst) {
    if (cell_ && cell_->is_disconnected(src)) return;
    proto(src).send_computation(dst);
  }

  /// Starts a checkpointing process at `p`.
  void initiate(ProcessId p) { proto(p).initiate(); }

  /// Run-level application observer: fired after any process handles a
  /// computation message (m.dst is the receiver). Replaces the previous
  /// one; an empty function detaches it.
  void set_app_observer(std::function<void(const rt::Message&)> fn) {
    run_.on_app_message = std::move(fn);
  }

  /// True while any process's coordination_active() is true: O(1), read
  /// from the count the protocols keep (rt::RunContext::coordinating).
  bool any_coordination_active() const { return coordinating_ > 0; }

  /// Number of processes whose coordination_active() is true.
  std::size_t coordinating_count() const { return coordinating_; }

  /// Runs the Theorem 1 oracle over every committed line.
  ckpt::CheckResult check_consistency() const;

  ckpt::RecoveryManager recovery() const {
    return ckpt::RecoveryManager(log_, store_, tracker_);
  }

 private:
  SystemOptions opts_;
  sim::Simulator sim_;
  sim::Rng rng_;
  ckpt::EventLog log_;
  ckpt::CheckpointStore store_;
  ckpt::CoordinationTracker tracker_;
  rt::RunStats stats_;
  std::size_t coordinating_ = 0;  // see coordinating_count()
  /// Run-lifetime bump arena for the protocols' sparse-state spill
  /// storage (rt::RunContext::arena). Declared before protos_ so it
  /// outlives them during destruction.
  util::Arena arena_;
  std::unique_ptr<net::LanTransport> lan_;
  std::unique_ptr<mobile::CellularTransport> cell_;
  /// What every protocol instance shares; declared before protos_, which
  /// point at both.
  core::CaoSinghalShared cs_shared_;
  rt::RunContext run_;
  ProtocolSet protos_;
};

}  // namespace mck::harness
