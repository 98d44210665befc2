#include "ckpt/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

namespace mck::ckpt {

namespace {

/// Committed initiations sorted by commit time (ties by start order).
std::vector<const InitiationStats*> committed_in_commit_order(
    const CoordinationTracker& tracker) {
  std::vector<const InitiationStats*> inits = tracker.in_order();
  std::vector<const InitiationStats*> committed;
  for (const InitiationStats* s : inits) {
    if (s->committed()) committed.push_back(s);
  }
  std::stable_sort(committed.begin(), committed.end(),
                   [](const InitiationStats* a, const InitiationStats* b) {
                     return a->committed_at < b->committed_at;
                   });
  return committed;
}

/// Every process's line history in CSR form: the updates that raised
/// L[p], in line order, so cursors are strictly increasing within a
/// process. Process p's entries are [offsets[p], offsets[p + 1]).
struct LineHistory {
  std::vector<std::uint32_t> offsets;  // n + 1
  std::vector<std::uint64_t> cursors;  // L[p] after the raising update
  std::vector<std::uint32_t> lines;    // index of the line that raised it

  /// First line whose cursor for p is greater than `event` (the first
  /// line containing that event of p), or `none` if no line does.
  std::uint32_t first_line_past(ProcessId p, std::uint64_t event,
                                std::uint32_t none) const {
    auto begin = cursors.begin() + offsets[static_cast<std::size_t>(p)];
    auto end = cursors.begin() + offsets[static_cast<std::size_t>(p) + 1];
    auto it = std::upper_bound(begin, end, event);
    if (it == end) return none;
    return lines[static_cast<std::size_t>(it - cursors.begin())];
  }
};

LineHistory build_history(const std::vector<const InitiationStats*>& committed,
                          std::size_t n) {
  LineHistory h;
  h.offsets.assign(n + 1, 0);
  std::size_t total = 0;
  for (const InitiationStats* s : committed) {
    for (const auto& [pid, cursor] : s->line_updates) {
      MCK_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < n);
      ++h.offsets[static_cast<std::size_t>(pid) + 1];
    }
    total += s->line_updates.size();
  }
  MCK_ASSERT(total <= std::numeric_limits<std::uint32_t>::max());

  // Counting sort by process, stable in line order. First offsets[p + 1]
  // becomes the start of p's range; filling advances it to p's end, which
  // is the start of p + 1.
  std::uint32_t start = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t count = h.offsets[p + 1];
    h.offsets[p + 1] = start;
    start += count;
  }
  h.cursors.resize(total);
  h.lines.resize(total);
  for (std::size_t k = 0; k < committed.size(); ++k) {
    for (const auto& [pid, cursor] : committed[k]->line_updates) {
      std::uint32_t& at = h.offsets[static_cast<std::size_t>(pid) + 1];
      h.cursors[at] = cursor;
      h.lines[at] = static_cast<std::uint32_t>(k);
      ++at;
    }
  }

  // A later checkpoint never moves the line backwards: keep only the
  // updates that raise L[p] (the line starts at 0).
  std::uint32_t kept = 0;
  std::uint32_t begin = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t end = h.offsets[p + 1];
    std::uint64_t line = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (h.cursors[i] > line) {
        line = h.cursors[i];
        h.cursors[kept] = line;
        h.lines[kept] = h.lines[i];
        ++kept;
      }
    }
    begin = end;
    h.offsets[p + 1] = kept;
  }
  h.cursors.resize(kept);
  h.lines.resize(kept);
  return h;
}

}  // namespace

CheckResult ConsistencyChecker::check_all() const {
  std::vector<const InitiationStats*> committed =
      committed_in_commit_order(tracker_);
  MCK_ASSERT(committed.size() < std::numeric_limits<std::uint32_t>::max());
  const auto num_lines = static_cast<std::uint32_t>(committed.size());
  const LineHistory history = build_history(
      committed, static_cast<std::size_t>(log_.num_processes()));

  CheckResult result;
  result.lines_checked = num_lines;
  // (line, log index) of every orphan; empty on a consistent run.
  std::vector<std::pair<std::uint32_t, std::size_t>> hits;
  const std::vector<MsgRecord>& msgs = log_.messages();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const MsgRecord& m = msgs[i];
    std::uint32_t sent =
        history.first_line_past(m.src, m.send_event, num_lines);
    std::uint32_t recvd =
        m.recv_event == kNoEvent
            ? num_lines
            : history.first_line_past(m.dst, m.recv_event, num_lines);
    if (sent <= recvd) {
      // In transit on lines [sent, recvd).
      result.in_transit_total += recvd - sent;
    } else {
      // An orphan on lines [recvd, sent).
      for (std::uint32_t k = recvd; k < sent; ++k) hits.emplace_back(k, i);
    }
  }

  std::sort(hits.begin(), hits.end());
  result.consistent = hits.empty();
  result.orphans.reserve(hits.size());
  for (const auto& [line, i] : hits) {
    const MsgRecord& m = msgs[i];
    result.orphans.push_back(
        Orphan{m.id, m.src, m.dst, m.send_event, m.recv_event});
  }
  return result;
}

Line ConsistencyChecker::line_after(InitiationId id) const {
  Line line(static_cast<std::size_t>(log_.num_processes()));
  for (const InitiationStats* s : committed_in_commit_order(tracker_)) {
    for (const auto& [pid, cursor] : s->line_updates) {
      if (cursor > line[pid]) line[pid] = cursor;
    }
    if (s->id == id) break;
  }
  return line;
}

std::string CheckResult::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %zu lines checked, %zu orphans, %zu in-transit",
                consistent ? "consistent" : "INCONSISTENT", lines_checked,
                orphans.size(), in_transit_total);
  std::string out = buf;
  for (const Orphan& o : orphans) {
    std::snprintf(buf, sizeof buf,
                  "\n  orphan msg %llu: P%d(ev %llu) -> P%d(ev %llu)",
                  static_cast<unsigned long long>(o.msg), o.src,
                  static_cast<unsigned long long>(o.send_event), o.dst,
                  static_cast<unsigned long long>(o.recv_event));
    out += buf;
  }
  return out;
}

}  // namespace mck::ckpt
