// Consistency checker: the executable oracle for Theorem 1.
//
// Replays committed initiations in commit order, maintains the global
// checkpoint line, and verifies that every committed line contains no
// orphan message. Coordinated protocols must always pass; the scripted
// Prakash-Singhal-style scenario (Fig. 2) must fail, which is how the tests
// validate the checker itself.
//
// One sweep, not one log scan per line. Committed lines only move forward:
// L_k[p] never decreases as k grows, because a line update that does not
// raise L[p] is ignored. So for a message m let
//     s(m) = first line k with L_k[src] > send_event   (send inside L_k),
//     r(m) = first line k with L_k[dst] > recv_event   (receive inside L_k),
// each K (the number of committed lines) when no such line exists, and
// r(m) = K when m was never received. Then m is an orphan on exactly the
// lines [r, s) and in transit on exactly the lines [s, r), so
//     in_transit_total = sum over m of max(0, r - s),  lines_checked = K.
// Each process's raising updates are kept once in CSR form (per-process
// offsets, then (cursor, line index) entries in line order); s and r are
// an upper_bound within the process's own range. Cost: O(U + M log u) time
// for U line updates, M logged messages and u updates per process;
// 4 B x n offsets plus O(U) entries of memory. Orphans, if any, are
// reported once per line they cross, in line order and then log order —
// the output of EventLog::find_orphans / count_in_transit applied to each
// line in turn, which stay as the per-line reference.
#pragma once

#include <string>
#include <vector>

#include "ckpt/event_log.hpp"
#include "ckpt/tracker.hpp"

namespace mck::ckpt {

struct CheckResult {
  bool consistent = true;
  std::vector<Orphan> orphans;          // across all committed lines
  std::size_t lines_checked = 0;
  std::size_t in_transit_total = 0;     // informational (lost-message count)
  std::string describe() const;
};

class ConsistencyChecker {
 public:
  ConsistencyChecker(const EventLog& log, const CoordinationTracker& tracker)
      : log_(log), tracker_(tracker) {}

  /// Checks every committed initiation's line in one pass over the log.
  CheckResult check_all() const;

  /// Line in effect after the given committed initiation (commit order).
  Line line_after(InitiationId id) const;

 private:
  const EventLog& log_;
  const CoordinationTracker& tracker_;
};

}  // namespace mck::ckpt
