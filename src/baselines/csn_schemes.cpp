#include "baselines/csn_schemes.hpp"

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace mck::baselines {

void CsnSchemeProtocol::start() {
  R_ = util::IntervalSet(static_cast<std::size_t>(ctx_->num_processes));
  csn_.assign(static_cast<std::size_t>(ctx_->num_processes));
}

std::shared_ptr<const rt::Payload> CsnSchemeProtocol::computation_payload(
    ProcessId /*dst*/) {
  auto p = util::make_pooled<CsComp>();
  p->csn = csn_.get(static_cast<std::size_t>(self()));
  sent_ = true;
  return p;
}

void CsnSchemeProtocol::take_stable(ckpt::InitiationId init) {
  const Csn my_csn = csn_.bump(static_cast<std::size_t>(self()));
  ckpt::CkptRef ref =
      ctx_->store->take(self(), ckpt::CkptKind::kTentative, my_csn, init,
                        ctx_->log->cursor(self()), ctx_->sim->now());
  ++ctx_->stats->tentative_taken;
  if (init != 0) ++ctx_->tracker->at(init).tentative;

  // No second phase: the checkpoint is durable once the transfer lands.
  sim::SimTime done = start_stable_transfer();
  schedule_timer_at(done, [this, ref]() {
    ctx_->store->make_permanent(ref, ctx_->sim->now());
    ++ctx_->stats->permanent_made;
  });

  // Propagate requests to our dependencies (only for explicit
  // initiations; message-forced checkpoints cascade via csn alone).
  if (init != 0) {
    R_.for_each([&](std::size_t ks) {
      const ProcessId k = static_cast<ProcessId>(ks);
      if (k == self()) return;
      auto rq = util::make_pooled<CsRequest>();
      rq->initiation = init;
      rq->req_csn = csn_.get(ks);
      send_system(rt::MsgKind::kRequest, k, std::move(rq));
      ++ctx_->tracker->at(init).requests;
    });
  }
  sent_ = false;
  R_.reset();
}

void CsnSchemeProtocol::do_initiate() {
  ckpt::InitiationId init = ckpt::make_initiation_id(
      self(), csn_.get(static_cast<std::size_t>(self())) + 1);
  ctx_->tracker->open(init, self(), ctx_->sim->now());
  take_stable(init);
}

void CsnSchemeProtocol::handle_computation(const rt::Message& m) {
  const CsComp* p = m.payload_as<CsComp>();
  MCK_ASSERT(p != nullptr);
  std::size_t j = static_cast<std::size_t>(m.src);
  if (p->csn > csn_.get(j)) {
    csn_.raise(j, p->csn);
    const bool must = kind_ == CsnSchemeKind::kSimple || sent_;
    if (must) {
      // Forced stable checkpoint before processing — avalanche link.
      ++forced_;
      ++ctx_->stats->forced_by_message;
      ++ctx_->stats->checkpoint_cascades;
      take_stable(0);
    }
  }
  R_.set(j);
  process_computation(m);
}

void CsnSchemeProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr &&
             m.payload->tag() == rt::PayloadTag::kCsRequest);
  const auto* p = static_cast<const CsRequest*>(m.payload.get());
  if (csn_.get(static_cast<std::size_t>(self())) > p->req_csn) {
    return;  // checkpointed since the dependency was created
  }
  take_stable(p->initiation);
}

}  // namespace mck::baselines
