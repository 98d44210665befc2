#include "harness/system.hpp"

#include <algorithm>
#include <type_traits>

#include "core/codec.hpp"
#include "util/assert.hpp"

namespace mck::harness {

namespace {

// Pull-source accessors for the timeline sampler: cumulative counters the
// owners don't push per-event (the sampler reads them once per tick, so a
// per-event hook would be pure overhead). Plain functions over void*
// match obs::TimelineSampler::PullSource without giving obs a dependency
// on harness/rt types.
std::uint64_t pull_arena_bytes(const void* ctx) {
  return static_cast<const util::Arena*>(ctx)->bytes_used();
}
std::uint64_t pull_arena_reserved(const void* ctx) {
  return static_cast<const util::Arena*>(ctx)->bytes_reserved();
}
std::uint64_t pull_msgs_sent(const void* ctx) {
  const auto* s = static_cast<const rt::RunStats*>(ctx);
  std::uint64_t n = 0;
  for (int k = 0; k < rt::kMsgKindCount; ++k) n += s->msgs_sent[k];
  return n;
}
std::uint64_t pull_deliveries(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->deliveries;
}
std::uint64_t pull_bytes_comp(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->bytes_sent[0];
}
std::uint64_t pull_bytes_sys(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->system_bytes();
}
std::uint64_t pull_wire_bytes_comp(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->wire_bytes_sent[0];
}
std::uint64_t pull_wire_bytes_sys(const void* ctx) {
  return static_cast<const rt::RunStats*>(ctx)->system_wire_bytes();
}
std::uint64_t pull_buffered_total(const void* ctx) {
  return static_cast<const mobile::CellularTransport*>(ctx)
      ->messages_buffered();
}
std::uint64_t pull_forwarded_total(const void* ctx) {
  return static_cast<const mobile::CellularTransport*>(ctx)
      ->messages_forwarded();
}

// Registers the standard cumulative pull sources on a timeline sampler:
// RunStats totals, arena telemetry and (when `cell` is non-null) the
// cellular transport's buffered/forwarded counters.
void register_timeline_pulls(obs::TimelineSampler& tl,
                             const rt::RunStats* stats,
                             const util::Arena* arena,
                             const mobile::CellularTransport* cell) {
  tl.add_pull(obs::kColArenaBytes, &pull_arena_bytes, arena);
  tl.add_pull(obs::kColArenaReserved, &pull_arena_reserved, arena);
  tl.add_pull(obs::kColMsgsSent, &pull_msgs_sent, stats);
  tl.add_pull(obs::kColDeliveries, &pull_deliveries, stats);
  tl.add_pull(obs::kColBytesComp, &pull_bytes_comp, stats);
  tl.add_pull(obs::kColBytesSys, &pull_bytes_sys, stats);
  tl.add_pull(obs::kColWireBytesComp, &pull_wire_bytes_comp, stats);
  tl.add_pull(obs::kColWireBytesSys, &pull_wire_bytes_sys, stats);
  if (cell != nullptr) {
    tl.add_pull(obs::kColBufferedTotal, &pull_buffered_total, cell);
    tl.add_pull(obs::kColForwardedTotal, &pull_forwarded_total, cell);
  }
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kCaoSinghal: return "cao-singhal";
    case Algorithm::kKooToueg: return "koo-toueg";
    case Algorithm::kElnozahy: return "elnozahy";
    case Algorithm::kChandyLamport: return "chandy-lamport";
    case Algorithm::kLaiYang: return "lai-yang";
    case Algorithm::kSimpleScheme: return "simple-scheme";
    case Algorithm::kRevisedScheme: return "revised-scheme";
    case Algorithm::kUncoordinated: return "uncoordinated";
  }
  return "?";
}

bool has_committed_lines(Algorithm a) {
  switch (a) {
    case Algorithm::kCaoSinghal:
    case Algorithm::kKooToueg:
    case Algorithm::kElnozahy:
    case Algorithm::kChandyLamport:
    case Algorithm::kLaiYang:
      return true;
    default:
      return false;
  }
}

template <typename T, typename... Args>
void ProtocolSet::emplace(std::size_t count, const Args&... args) {
  static_assert(std::is_base_of_v<rt::CheckpointProtocol, T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  // Leaves room for malloc's chunk header below the threshold.
  static_assert(kSlabSize * sizeof(T) + 2 * sizeof(void*) < kMmapThreshold,
                "a protocol slab must stay below the mmap threshold");
  stride_ = sizeof(T);
  slabs_.reserve((count + kSlabSize - 1) >> kSlabShift);
  for (; count_ < count; ++count_) {
    const std::size_t slot = count_ & (kSlabSize - 1);
    if (slot == 0) {
      const std::size_t len = std::min(kSlabSize, count - count_);
      slabs_.push_back(
          static_cast<std::byte*>(::operator new(len * sizeof(T))));
    }
    T* obj = ::new (static_cast<void*>(slabs_.back() + slot * sizeof(T)))
        T(args...);
    if (count_ == 0) {
      // The base subobject sits at the same offset in every element.
      auto* base = static_cast<rt::CheckpointProtocol*>(obj);
      base_offset_ = static_cast<std::size_t>(
          reinterpret_cast<std::byte*>(base) -
          reinterpret_cast<std::byte*>(obj));
    }
  }
}

// Delegates to the default constructor so that, should a constructor
// throw part-way, ~ProtocolSet() still destroys the count_ instances
// built so far and frees the slabs.
ProtocolSet::ProtocolSet(Algorithm a, std::size_t count) : ProtocolSet() {
  switch (a) {
    case Algorithm::kCaoSinghal:
      emplace<core::CaoSinghalProtocol>(count);
      return;
    case Algorithm::kKooToueg:
      emplace<baselines::KooTouegProtocol>(count);
      return;
    case Algorithm::kElnozahy:
      emplace<baselines::ElnozahyProtocol>(count);
      return;
    case Algorithm::kChandyLamport:
      emplace<baselines::ChandyLamportProtocol>(count);
      return;
    case Algorithm::kLaiYang:
      emplace<baselines::LaiYangProtocol>(count);
      return;
    case Algorithm::kSimpleScheme:
      emplace<baselines::CsnSchemeProtocol>(
          count, baselines::CsnSchemeKind::kSimple);
      return;
    case Algorithm::kRevisedScheme:
      emplace<baselines::CsnSchemeProtocol>(
          count, baselines::CsnSchemeKind::kRevised);
      return;
    case Algorithm::kUncoordinated:
      emplace<baselines::UncoordinatedProtocol>(count);
      return;
  }
  MCK_ASSERT_MSG(false, "unknown algorithm");
}

ProtocolSet::~ProtocolSet() {
  for (std::size_t i = 0; i < count_; ++i) {
    (*this)[i].~CheckpointProtocol();
  }
  for (std::byte* slab : slabs_) ::operator delete(slab);
}

namespace {

// Post-bind initialization: calls the algorithm-specific start().
void start_protocol(Algorithm a, rt::CheckpointProtocol& proto) {
  switch (a) {
    case Algorithm::kCaoSinghal:
      static_cast<core::CaoSinghalProtocol&>(proto).start();
      break;
    case Algorithm::kKooToueg:
      static_cast<baselines::KooTouegProtocol&>(proto).start();
      break;
    case Algorithm::kElnozahy:
      static_cast<baselines::ElnozahyProtocol&>(proto).start();
      break;
    case Algorithm::kChandyLamport:
      static_cast<baselines::ChandyLamportProtocol&>(proto).start();
      break;
    case Algorithm::kLaiYang:
      static_cast<baselines::LaiYangProtocol&>(proto).start();
      break;
    case Algorithm::kSimpleScheme:
    case Algorithm::kRevisedScheme:
      static_cast<baselines::CsnSchemeProtocol&>(proto).start();
      break;
    case Algorithm::kUncoordinated:
      static_cast<baselines::UncoordinatedProtocol&>(proto).start();
      break;
  }
}

}  // namespace

System::System(SystemOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      log_(opts.num_processes),
      store_(opts.num_processes),
      cs_shared_{opts.cs, core::TerminationRecord(
                              static_cast<std::size_t>(opts.num_processes))},
      protos_(opts.algorithm, static_cast<std::size_t>(opts.num_processes)) {
  MCK_ASSERT(opts_.num_processes >= 2);
  // Size the per-process energy ledger once, instead of re-checking the
  // vector size on every send/deliver in the hot path.
  stats_.energy.ensure(static_cast<std::size_t>(opts_.num_processes));

  // Coordinated protocols reclaim superseded permanent checkpoints;
  // uncoordinated ones must hoard them for the rollback search.
  store_.set_auto_gc(has_committed_lines(opts_.algorithm));

  if (opts_.tracer != nullptr) {
    sim_.set_tracer(opts_.tracer);
    store_.set_tracer(opts_.tracer);
    tracker_.set_tracer(opts_.tracer);
  }

  if (opts_.transport == TransportKind::kLan) {
    lan_ = std::make_unique<net::LanTransport>(sim_, opts_.num_processes,
                                               opts_.lan, &rng_);
    lan_->set_tracer(opts_.tracer);
  } else {
    cell_ = std::make_unique<mobile::CellularTransport>(
        sim_, opts_.num_processes, opts_.cellular);
    cell_->set_tracer(opts_.tracer);
  }
  if (opts_.wire_fidelity) {
    transport().set_wire_fidelity(core::universal_codec());
  }

  // Timeline wiring: every gauge owner gets the sampler's counter block,
  // the cumulative totals become pull sources, and the simulator's event
  // loop is armed. An unconfigured sampler is treated as absent so the
  // hot paths keep their single untaken branch.
  if (opts_.timeline != nullptr && opts_.timeline->enabled()) {
    obs::TimelineSampler* tl = opts_.timeline;
    obs::TimelineCounters* c = tl->counters();
    sim_.set_timeline(tl);
    store_.set_timeline(c);
    tracker_.set_timeline(c);
    if (lan_) {
      lan_->set_timeline(c);
    } else {
      cell_->set_timeline(c);
    }
    register_timeline_pulls(*tl, &stats_, &arena_, cell_.get());
  }

  run_.num_processes = opts_.num_processes;
  run_.sim = &sim_;
  run_.net = &transport();
  run_.log = &log_;
  run_.store = &store_;
  run_.tracker = &tracker_;
  run_.stats = &stats_;
  run_.timing = &opts_.timing;
  run_.codec = core::universal_codec();
  run_.tracer = opts_.tracer;
  run_.arena = &arena_;
  run_.timeline = opts_.timeline != nullptr && opts_.timeline->enabled()
                      ? opts_.timeline->counters()
                      : nullptr;
  run_.coordinating = &coordinating_;
  if (opts_.algorithm == Algorithm::kCaoSinghal) {
    run_.algorithm = &cs_shared_;
  }

  // Bind, then run the per-algorithm post-bind initialization.
  for (ProcessId p = 0; p < opts_.num_processes; ++p) {
    protos_[static_cast<std::size_t>(p)].bind(run_, p);
  }
  for (ProcessId p = 0; p < opts_.num_processes; ++p) {
    start_protocol(opts_.algorithm, protos_[static_cast<std::size_t>(p)]);
  }
  // One sink for the whole run, dispatching on the destination pid.
  auto sink = [this](const rt::Message& m) {
    protos_[static_cast<std::size_t>(m.dst)].on_deliver(m);
  };
  if (lan_) {
    lan_->set_sink(sink);
  } else {
    cell_->set_sink(sink);
  }
}

rt::Transport& System::transport() {
  if (lan_) return *lan_;
  return *cell_;
}

core::CaoSinghalProtocol& System::cao(ProcessId p) {
  MCK_ASSERT(opts_.algorithm == Algorithm::kCaoSinghal);
  return static_cast<core::CaoSinghalProtocol&>(proto(p));
}

baselines::KooTouegProtocol& System::koo(ProcessId p) {
  MCK_ASSERT(opts_.algorithm == Algorithm::kKooToueg);
  return static_cast<baselines::KooTouegProtocol&>(proto(p));
}

ckpt::CheckResult System::check_consistency() const {
  ckpt::ConsistencyChecker checker(log_, tracker_);
  return checker.check_all();
}

}  // namespace mck::harness
