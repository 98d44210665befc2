// Lai-Yang [21] distributed snapshots, as discussed in the paper's
// related work: no markers and no FIFO assumption — every message is
// piggybacked with the sender's color (here: its snapshot round), and a
// process that receives a message from a later round snapshots *before*
// processing it. Channel state is recovered from message bookkeeping
// (white messages arriving at a red process belong to the cut) instead of
// marker-delimited recording; the price the paper points out is that all
// processes checkpoint and message history must be tracked.
//
// A broadcast round announcement plays the initiator's role (like [13]);
// a small commit phase makes the cut comparable with the other protocols.
#pragma once

#include <vector>

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"

namespace mck::baselines {

class LaiYangProtocol final : public rt::CheckpointProtocol {
 public:
  void start() {}

  bool in_checkpointing() const override { return pending_init_ != 0; }
  bool coordination_active() const override {
    return pending_init_ != 0 || awaiting_replies_ > 0;
  }

  /// Round this process is in (the paper's "color", generalized).
  Csn round() const { return round_; }
  /// White-into-red messages captured as channel state in the last cut.
  std::uint64_t channel_state_msgs() const { return channel_state_msgs_; }

 protected:
  void do_initiate() override;
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  void take_snapshot(Csn new_round, ckpt::InitiationId init);
  void maybe_commit(ckpt::InitiationId init);

  Csn round_ = 0;
  ckpt::InitiationId pending_init_ = 0;
  ckpt::CkptRef pending_ref_ = ckpt::kNoCkpt;
  bool transfer_done_ = false;
  std::uint64_t channel_state_msgs_ = 0;

  int awaiting_replies_ = 0;  // initiator side
};

}  // namespace mck::baselines
