// Per-ordered-pair FIFO sequencing. The computation model (Section 2.1)
// promises reliable FIFO channels, but raw transmission delays differ by
// message size (a 50 B system message flies in 0.2 ms, a 1 KB computation
// message needs 4 ms) and rerouted messages take detours after handoffs.
// The sequencer stamps messages at send time and holds back overtakers at
// the receiver until their predecessors arrive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "rt/message.hpp"
#include "util/assert.hpp"

namespace mck::net {

class FifoSequencer {
  struct Chan;

 public:
  /// Channel storage comes in three shapes, all behaving like a
  /// default-constructed Chan until first touched:
  ///  * n <= kDenseLimit: one dense n*n table (no hashing on the
  ///    per-message hot path; 16 hosts: 2 KB).
  ///  * Fan-out rows: a source's first fanout_row() call (a broadcast)
  ///    gives it a dense row of n channels, 8 bytes each, indexed by
  ///    destination. A commit broadcast at n = 1M then stamps and checks
  ///    its million channels in pid order instead of taking a cache miss
  ///    per recipient in the hash table below. Any live sparse channels
  ///    of that source move into the row when it is made.
  ///  * Everything else: an open-addressed flat table keyed by (src, dst),
  ///    16 bytes per touched channel, one multiply-mix hash and a linear
  ///    probe per lookup. Point-to-point traffic touches few channels per
  ///    source, so this stays small and cache-hot.
  /// Overtaken messages are parked in a shared ordered side map:
  /// out-of-order arrival is rare (reroutes after handoffs), so the
  /// per-channel structure stays lean.
  /// (Measured dead ends at n = 1k, do not revisit: raising kDenseLimit
  /// to cover n = 1k loses ~6% — zeroing two 16 MB tables dominates the
  /// ~0.1 s run; giving a row to *every* sender loses ~12% — point-to-point
  /// senders touch a handful of channels each, so their rows are 8 MB of
  /// scattered zeroing where the live hash table is ~1 MB and cache-hot.
  /// Rows pay off only for fan-out senders, which touch all n channels.)
  explicit FifoSequencer(int num_processes) : n_(num_processes) {
    if (num_processes <= kDenseLimit) {
      dense_.resize(static_cast<std::size_t>(num_processes) *
                    static_cast<std::size_t>(num_processes));
    } else {
      table_.resize(kInitialSlots);
    }
  }

  /// One source's channels to every destination, for a fan-out walk that
  /// resolves the source once instead of once per recipient. Borrowed
  /// from the sequencer; stays valid for the sequencer's lifetime.
  class Row {
   public:
    /// Next sequence number on (source, dst); see stamp_channel().
    std::uint32_t stamp(ProcessId dst) {
      return next_seq(chans_[static_cast<std::size_t>(dst)]);
    }

    /// Broadcast-batch fast path: iff no overtaker is parked anywhere
    /// and `seq` is exactly the next expected on (source, dst), consumes
    /// the slot (advances next_deliver, with nothing to release
    /// afterwards) and returns true — the caller may deliver without ever
    /// materializing a per-recipient Message. Returns false untouched
    /// otherwise; the caller falls back to the full arrive() pipeline.
    bool try_fast_deliver(ProcessId dst, std::uint32_t seq) {
      Chan& c = chans_[static_cast<std::size_t>(dst)];
      if (!owner_->pending_.empty() || seq != c.next_deliver) return false;
      ++c.next_deliver;
      return true;
    }

   private:
    friend class FifoSequencer;
    Row(const FifoSequencer* owner, Chan* chans)
        : owner_(owner), chans_(chans) {}
    const FifoSequencer* owner_;
    Chan* chans_;
  };

  /// The channel row of fan-out source `src`. Above kDenseLimit the first
  /// call allocates the row (8 B x n) and moves src's live sparse
  /// channels into it; at or below it the row is a slice of the dense
  /// table and nothing is allocated.
  Row fanout_row(ProcessId src) {
    MCK_ASSERT(src >= 0 && src < n_);
    if (!dense_.empty()) {
      return Row(this, dense_.data() + static_cast<std::size_t>(src) *
                                           static_cast<std::size_t>(n_));
    }
    if (Chan* r = find_row(src)) return Row(this, r);
    return Row(this, make_row(src));
  }

  /// Stamps a message with its channel sequence number. Must be called in
  /// send order.
  void stamp(rt::Message& msg) {
    msg.channel_seq = stamp_channel(msg.src, msg.dst);
  }

  /// Allocates the next sequence number on (src, dst).
  std::uint32_t stamp_channel(ProcessId src, ProcessId dst) {
    return next_seq(chan(src, dst));
  }

  /// Registers the arrival of `msg` and invokes `deliver` for every
  /// message that is now deliverable on its channel, in FIFO order (not
  /// at all if `msg` has to wait for a predecessor still in flight).
  /// Callback-style so the in-order common case hands the message
  /// straight through without ever touching the heap; only overtakers
  /// (out-of-order arrivals) are parked in the shared pending map.
  template <typename Deliver>
  void arrive(rt::Message msg, Deliver&& deliver) {
    const ProcessId src = msg.src;
    const ProcessId dst = msg.dst;
    const std::uint64_t key = chan_key(src, dst);
    Chan& c = chan(src, dst);
    if (msg.channel_seq != c.next_deliver) {
      MCK_ASSERT_MSG(msg.channel_seq > c.next_deliver,
                     "duplicate channel sequence number");
      pending_.emplace(std::make_pair(key, msg.channel_seq), std::move(msg));
      return;
    }
    ++c.next_deliver;
    deliver(std::move(msg));
    // The callback may create channels (sends from a LAN inline delivery
    // path), which can rehash the table or move this channel into a new
    // fan-out row — re-resolve instead of holding the Chan reference
    // across it.
    while (!pending_.empty()) {
      Chan& cur = chan(src, dst);
      auto it = pending_.find(std::make_pair(key, cur.next_deliver));
      if (it == pending_.end()) break;
      rt::Message m = std::move(it->second);
      pending_.erase(it);
      ++cur.next_deliver;
      deliver(std::move(m));
    }
  }

  /// Bytes of channel state held: the dense table, the sparse table's
  /// slots and 8 B x n per fan-out row (the parked-overtaker map is not
  /// channel state and is not counted).
  std::size_t channel_bytes() const {
    return dense_.size() * sizeof(Chan) + table_.size() * sizeof(Slot) +
           rows_.size() * static_cast<std::size_t>(n_) * sizeof(Chan);
  }

  /// Number of fan-out rows made so far (always 0 at n <= kDenseLimit).
  std::size_t fanout_rows() const { return rows_.size(); }

 private:
  static constexpr int kDenseLimit = 256;
  static constexpr std::size_t kInitialSlots = 1024;  // power of two
  static constexpr std::uint32_t kSeqLimit = 0xffffffffu;

  /// 8 bytes per channel; sequence numbers are 32-bit (4G messages per
  /// ordered pair, asserted in next_seq()).
  struct Chan {
    std::uint32_t next_send = 0;
    std::uint32_t next_deliver = 0;
  };

  struct Slot {
    std::uint64_t key_plus1 = 0;  // 0 = empty
    Chan chan;
  };

  /// The vector's buffer never moves (rows are created at full size), so
  /// Row handles stay valid while rows_ itself grows.
  struct FanoutRow {
    ProcessId src;
    std::vector<Chan> chans;
  };

  static std::uint32_t next_seq(Chan& c) {
    MCK_ASSERT_MSG(c.next_send != kSeqLimit, "channel sequence overflow");
    return c.next_send++;
  }

  std::uint64_t chan_key(ProcessId src, ProcessId dst) const {
    return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(dst);
  }

  static std::uint64_t mix(std::uint64_t x) {
    // SplitMix64 finalizer.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Chan& chan(ProcessId src, ProcessId dst) {
    const std::uint64_t key = chan_key(src, dst);
    if (!dense_.empty()) return dense_[static_cast<std::size_t>(key)];
    if (!rows_.empty()) {
      if (Chan* r = find_row(src)) return r[static_cast<std::size_t>(dst)];
    }
    return sparse_chan(key);
  }

  /// Rows are few (one per broadcasting source) and sorted by source.
  std::vector<FanoutRow>::iterator row_position(ProcessId src) {
    return std::lower_bound(
        rows_.begin(), rows_.end(), src,
        [](const FanoutRow& r, ProcessId s) { return r.src < s; });
  }

  Chan* find_row(ProcessId src) {
    auto it = row_position(src);
    return it != rows_.end() && it->src == src ? it->chans.data() : nullptr;
  }

  Chan* make_row(ProcessId src) {
    const std::size_t n = static_cast<std::size_t>(n_);
    std::vector<Chan> chans(n);
    // Move src's live sparse channels over: scan the table when it is
    // smaller than a row, probe every destination otherwise, so the move
    // costs O(min(n, table size)) and the rest of the table stays put.
    std::vector<std::uint64_t> keys;
    const std::uint64_t first = chan_key(src, 0);
    if (table_.size() <= n) {
      for (const Slot& s : table_) {
        if (s.key_plus1 > first && s.key_plus1 <= first + n) {
          keys.push_back(s.key_plus1 - 1);
        }
      }
    } else {
      for (std::size_t d = 0; d < n; ++d) {
        if (find_slot(first + d) != kNoSlot) keys.push_back(first + d);
      }
    }
    for (std::uint64_t key : keys) {
      const std::size_t i = find_slot(key);
      chans[static_cast<std::size_t>(key - first)] = table_[i].chan;
      erase_slot(i);
    }
    Chan* raw = chans.data();
    rows_.insert(row_position(src), FanoutRow{src, std::move(chans)});
    return raw;
  }

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::size_t find_slot(std::uint64_t key) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (table_[i].key_plus1 != 0) {
      if (table_[i].key_plus1 == key + 1) return i;
      i = (i + 1) & mask;
    }
    return kNoSlot;
  }

  /// Linear-probing deletion by backward shift: later members of the
  /// probe run move up into the hole unless their home slot lies
  /// cyclically inside (hole, their slot], so no tombstones are needed.
  void erase_slot(std::size_t hole) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; table_[j].key_plus1 != 0;
         j = (j + 1) & mask) {
      const std::size_t home =
          static_cast<std::size_t>(mix(table_[j].key_plus1 - 1)) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = Slot{};
    --live_;
  }

  Chan& sparse_chan(std::uint64_t key) {
    if ((live_ + 1) * 8 > table_.size() * 5) rehash(table_.size() * 2);
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (true) {
      Slot& s = table_[i];
      if (s.key_plus1 == key + 1) return s.chan;
      if (s.key_plus1 == 0) {
        s.key_plus1 = key + 1;
        ++live_;
        return s.chan;
      }
      i = (i + 1) & mask;
    }
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old;
    old.swap(table_);
    table_.resize(new_slots);
    const std::size_t mask = new_slots - 1;
    for (const Slot& s : old) {
      if (s.key_plus1 == 0) continue;
      std::size_t i = static_cast<std::size_t>(mix(s.key_plus1 - 1)) & mask;
      while (table_[i].key_plus1 != 0) i = (i + 1) & mask;
      table_[i] = s;
    }
  }

  int n_;
  std::vector<Chan> dense_;       // n <= kDenseLimit: direct-indexed
  std::vector<Slot> table_;       // open-addressed, lazily populated
  std::vector<FanoutRow> rows_;   // sorted by src; n > kDenseLimit only
  std::size_t live_ = 0;
  /// Parked overtakers, keyed (channel key, seq). Shared across channels:
  /// almost always empty, so the per-channel Chan stays 8 bytes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, rt::Message> pending_;
};

}  // namespace mck::net
