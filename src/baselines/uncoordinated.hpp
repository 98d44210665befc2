// Acharya-Badrinath [1] uncoordinated checkpointing for mobile hosts
// (Section 6): an MH takes a local checkpoint whenever a message reception
// is preceded by a message sent in the current interval — no coordination
// messages at all, but many checkpoints, and recovery needs a rollback
// search that may domino (measured via RecoveryManager).
#pragma once

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"

namespace mck::baselines {

class UncoordinatedProtocol final : public rt::CheckpointProtocol {
 public:
  void start() {}

  bool in_checkpointing() const override { return false; }
  bool coordination_active() const override { return false; }

  std::uint64_t checkpoints_taken() const { return taken_; }

 protected:
  /// Periodic local checkpoint (no coordination).
  void do_initiate() override;
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  void take_local();

  bool sent_ = false;
  Csn seq_ = 0;
  std::uint64_t taken_ = 0;
};

}  // namespace mck::baselines
