// The "simple" and "revised" nonblocking schemes of Section 3.1.1 —
// csn-forced *stable* checkpoints, no mutable checkpoints. These are the
// ablation showing why mutable checkpoints matter: a computation message
// with a fresh csn forces a checkpoint on stable storage, whose csn then
// forces further checkpoints downstream (the avalanche effect).
//
//  * kSimple:  P_j checkpoints whenever m.csn > csn_j[i].
//  * kRevised: ... and P_j has sent at least one message in the current
//              checkpoint interval.
#pragma once

#include <vector>

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"
#include "util/interval_set.hpp"
#include "util/sparse_csn.hpp"

namespace mck::baselines {

enum class CsnSchemeKind { kSimple, kRevised };

class CsnSchemeProtocol final : public rt::CheckpointProtocol {
 public:
  explicit CsnSchemeProtocol(CsnSchemeKind kind) : kind_(kind) {}

  void start();

  bool in_checkpointing() const override { return false; }
  bool coordination_active() const override { return false; }

  std::uint64_t forced_checkpoints() const { return forced_; }

 protected:
  void do_initiate() override;
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  /// Takes a checkpoint on stable storage (immediately permanent: these
  /// schemes have no second phase).
  void take_stable(ckpt::InitiationId init);

  CsnSchemeKind kind_;
  util::IntervalSet R_;
  util::SparseCsnMap csn_;
  bool sent_ = false;
  std::uint64_t forced_ = 0;
};

}  // namespace mck::baselines
