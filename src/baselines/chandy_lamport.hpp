// Chandy-Lamport [9] distributed snapshot, adapted as a coordinated
// checkpointing baseline (related-work comparison): markers flow on every
// FIFO channel — O(N^2) system messages — and *all* processes checkpoint.
// Channel state (messages that cross the cut) is recorded, which is the
// algorithm's distinguishing capability. A lightweight commit phase is
// layered on top so recovery lines can be compared with the other
// protocols: every process reports to the initiator once markers arrived
// on all of its incoming channels.
#pragma once

#include <vector>

#include "ckpt/store.hpp"
#include "rt/protocol.hpp"

namespace mck::baselines {

class ChandyLamportProtocol final : public rt::CheckpointProtocol {
 public:
  void start();

  bool in_checkpointing() const override { return recording_; }
  bool coordination_active() const override {
    return recording_ || awaiting_done_ > 0;
  }

  /// Number of messages captured as channel state in the last snapshot.
  std::uint64_t channel_state_msgs() const { return channel_state_msgs_; }

 protected:
  void do_initiate() override;
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  void take_snapshot(ckpt::InitiationId init);
  void finish_recording();
  void maybe_commit();

  bool recording_ = false;
  ckpt::InitiationId init_ = 0;
  ckpt::CkptRef pending_ref_ = ckpt::kNoCkpt;
  std::vector<std::uint8_t> marker_seen_;   // per incoming channel
  std::uint64_t channel_state_msgs_ = 0;
  bool transfer_done_ = false;
  bool done_sent_ = false;

  int awaiting_done_ = 0;  // initiator: "recording complete" reports
};

}  // namespace mck::baselines
