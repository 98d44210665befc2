#include "baselines/uncoordinated.hpp"

#include "util/assert.hpp"

namespace mck::baselines {

void UncoordinatedProtocol::take_local() {
  ++seq_;
  ++taken_;
  ckpt::CkptRef ref =
      ctx_->store->take(self(), ckpt::CkptKind::kTentative, seq_, 0,
                        ctx_->log->cursor(self()), ctx_->sim->now());
  ++ctx_->stats->tentative_taken;
  // Acharya-Badrinath checkpoints go to stable storage at the MSS too —
  // that transfer cost is exactly the overhead the paper criticises.
  sim::SimTime done = start_stable_transfer();
  schedule_timer_at(done, [this, ref]() {
    ctx_->store->make_permanent(ref, ctx_->sim->now());
    ++ctx_->stats->permanent_made;
  });
  sent_ = false;
}

void UncoordinatedProtocol::do_initiate() { take_local(); }

std::shared_ptr<const rt::Payload> UncoordinatedProtocol::computation_payload(
    ProcessId /*dst*/) {
  sent_ = true;
  return nullptr;
}

void UncoordinatedProtocol::handle_computation(const rt::Message& m) {
  if (sent_) {
    // Reception preceded by a send: checkpoint before processing.
    ++ctx_->stats->forced_by_message;
    take_local();
  }
  process_computation(m);
}

void UncoordinatedProtocol::handle_system(const rt::Message& m) {
  (void)m;
  MCK_ASSERT_MSG(false, "uncoordinated protocol sends no system messages");
}

}  // namespace mck::baselines
