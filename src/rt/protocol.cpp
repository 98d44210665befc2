#include "rt/protocol.hpp"

#include "rt/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mck::rt {

std::uint64_t CheckpointProtocol::system_payload_wire_size(
    const Payload& p) const {
  return ctx_->codec != nullptr ? ctx_->codec->wire_size(p) : 0;
}

void CheckpointProtocol::send_computation(ProcessId dst) {
  MCK_ASSERT(ctx_->sim != nullptr);
  MCK_ASSERT(dst != self_);
  if (blocked_) {
    defer_computation(dst);
    return;
  }
  Message m;
  m.kind = MsgKind::kComputation;
  m.src = self_;
  m.dst = dst;
  m.size_bytes = ctx_->timing->comp_msg_bytes;
  m.sent_at = ctx_->sim->now();
  m.payload = computation_payload(dst);
  // Honest accounting: the piggybacked csn/trigger/round rides on top of
  // the 1 KB application data (the budget already covers the framing).
  const bool want_honest =
      (ctx_->timing->use_wire_sizes || ctx_->timing->record_wire_bytes) &&
      ctx_->codec != nullptr;
  std::uint64_t honest = m.size_bytes;
  if (want_honest && m.payload != nullptr) {
    honest += ctx_->codec->payload_bytes(*m.payload);
  }
  if (ctx_->timing->use_wire_sizes) m.size_bytes = honest;
  m.id = ctx_->log->record_send(self_, dst, m.sent_at);
  // cursor() just advanced past this send, so it equals send_event + 1 —
  // exactly the audit stamp convention (0 is reserved for system messages).
  trace(obs::TraceKind::kMsgSend, static_cast<std::uint8_t>(m.kind),
        static_cast<std::uint16_t>(dst), m.id,
        obs::pack_msg_stamp(ctx_->log->cursor(self_), m.size_bytes));
  ++ctx_->stats->msgs_sent[static_cast<int>(m.kind)];
  ctx_->stats->bytes_sent[static_cast<int>(m.kind)] += m.size_bytes;
  if (ctx_->timing->record_wire_bytes || ctx_->timing->use_wire_sizes) {
    ctx_->stats->wire_bytes_sent[static_cast<int>(m.kind)] += honest;
  }
  stats::ProcessEnergy& e =
      ctx_->stats->energy.per_process[static_cast<std::size_t>(self_)];
  ++e.tx_comp_msgs;
  e.tx_bytes += m.size_bytes;
  ctx_->net->send(std::move(m));
  note_coordination();
}

void CheckpointProtocol::on_deliver(const Message& m) {
  // A computation message is processed synchronously below and nothing
  // advances the event cursor in between (forced checkpoints do not log
  // events), so the receive-event index it will be logged under is the
  // current cursor; stamp it (+1) for the offline auditor.
  const std::uint64_t recv_stamp = m.kind == MsgKind::kComputation
                                       ? ctx_->log->cursor(self_) + 1
                                       : 0;
  trace(obs::TraceKind::kMsgDeliver, static_cast<std::uint8_t>(m.kind),
        static_cast<std::uint16_t>(m.src), m.id,
        obs::pack_msg_stamp(recv_stamp, m.size_bytes));
  ++ctx_->stats->deliveries;
  stats::ProcessEnergy& e =
      ctx_->stats->energy.per_process[static_cast<std::size_t>(self_)];
  e.rx_bytes += m.size_bytes;
  if (m.kind == MsgKind::kComputation) {
    ++e.rx_comp_msgs;
    handle_computation(m);
  } else {
    ++e.rx_sys_msgs;  // a dozing MH is woken by this message
    handle_system(m);
  }
  note_coordination();
}

void CheckpointProtocol::send_system(MsgKind kind, ProcessId dst,
                                     std::shared_ptr<const Payload> payload) {
  MCK_ASSERT(is_system(kind));
  Message m;
  m.kind = kind;
  m.src = self_;
  m.dst = dst;
  m.size_bytes = ctx_->timing->sys_msg_bytes;
  const bool want_honest =
      ctx_->timing->use_wire_sizes || ctx_->timing->record_wire_bytes;
  std::uint64_t honest = m.size_bytes;
  if (want_honest && payload != nullptr) {
    std::uint64_t ws = system_payload_wire_size(*payload);
    if (ws > 0) honest = ws;
  }
  if (ctx_->timing->use_wire_sizes) m.size_bytes = honest;
  m.sent_at = ctx_->sim->now();
  m.payload = std::move(payload);
  m.id = ctx_->log->next_msg_id();
  trace(obs::TraceKind::kMsgSend, static_cast<std::uint8_t>(kind),
        static_cast<std::uint16_t>(dst), m.id, m.size_bytes);
  ++ctx_->stats->msgs_sent[static_cast<int>(kind)];
  ctx_->stats->bytes_sent[static_cast<int>(kind)] += m.size_bytes;
  if (want_honest) {
    ctx_->stats->wire_bytes_sent[static_cast<int>(kind)] += honest;
  }
  stats::ProcessEnergy& e =
      ctx_->stats->energy.per_process[static_cast<std::size_t>(self_)];
  ++e.tx_sys_msgs;
  e.tx_bytes += m.size_bytes;
  ctx_->net->send(std::move(m));
}

void CheckpointProtocol::broadcast_system(
    MsgKind kind, std::shared_ptr<const Payload> payload) {
  MCK_ASSERT(is_system(kind));
  Message m;
  m.kind = kind;
  m.src = self_;
  m.size_bytes = ctx_->timing->sys_msg_bytes;
  const bool want_honest =
      ctx_->timing->use_wire_sizes || ctx_->timing->record_wire_bytes;
  std::uint64_t honest = m.size_bytes;
  if (want_honest && payload != nullptr) {
    std::uint64_t ws = system_payload_wire_size(*payload);
    if (ws > 0) honest = ws;
  }
  if (ctx_->timing->use_wire_sizes) m.size_bytes = honest;
  m.sent_at = ctx_->sim->now();
  m.payload = std::move(payload);
  m.id = ctx_->log->next_msg_id();
  // A broadcast is one transmission on the shared medium but is counted
  // once per recipient for byte accounting symmetry with [13].
  trace(obs::TraceKind::kMsgSend, static_cast<std::uint8_t>(kind),
        obs::kBroadcastDst, m.id, m.size_bytes);
  ++ctx_->stats->msgs_sent[static_cast<int>(kind)];
  ctx_->stats->bytes_sent[static_cast<int>(kind)] += m.size_bytes;
  if (want_honest) {
    ctx_->stats->wire_bytes_sent[static_cast<int>(kind)] += honest;
  }
  stats::ProcessEnergy& e =
      ctx_->stats->energy.per_process[static_cast<std::size_t>(self_)];
  ++e.tx_sys_msgs;
  e.tx_bytes += m.size_bytes;
  ctx_->net->broadcast(std::move(m));
}

void CheckpointProtocol::process_computation(const Message& m) {
  ctx_->log->record_recv(m.id, self_, ctx_->sim->now());
  if (ctx_->on_app_message) ctx_->on_app_message(m);
}

void CheckpointProtocol::charge_mutable_save() {
  ctx_->stats->mutable_overhead_time += ctx_->timing->mutable_save_delay;
}

sim::SimTime CheckpointProtocol::start_stable_transfer() {
  sim::SimTime done =
      ctx_->net->transfer_bulk(self_, ctx_->timing->ckpt_bytes);
  if (done > ctx_->sim->now()) {
    // Radio airtime was actually spent (a disconnected MH's checkpoint is
    // converted at the MSS for free, Section 2.2).
    ctx_->stats->energy.per_process[static_cast<std::size_t>(self_)]
        .bulk_bytes += ctx_->timing->ckpt_bytes;
  }
  return done + ctx_->timing->disk_delay;
}

void CheckpointProtocol::defer_computation(ProcessId /*dst*/) {
  MCK_ASSERT_MSG(false, "a blocking protocol must override defer_computation");
}

}  // namespace mck::rt
