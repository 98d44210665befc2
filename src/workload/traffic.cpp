#include "workload/traffic.hpp"

#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace mck::workload {

namespace {

/// Rejects a mean inter-send gap (seconds) the exponential sampler cannot
/// use: NaN, non-positive, under one SimTime tick, or past 1e9 s.
void check_gap(double seconds, const std::string& what) {
  if (!(seconds >= 1e-9 && seconds <= 1e9)) {
    throw std::invalid_argument(what + " gives a mean send gap of " +
                                std::to_string(seconds) +
                                " s; it must be in [1e-9, 1e9] s");
  }
}

}  // namespace

void PointToPointWorkload::validate(int num_processes,
                                    double msgs_per_second) {
  if (num_processes < 2) {
    throw std::invalid_argument("workload: needs >= 2 processes, got " +
                                std::to_string(num_processes));
  }
  check_gap(1.0 / msgs_per_second,
            "workload: rate " + std::to_string(msgs_per_second));
}

void GroupWorkload::validate(int num_processes, int num_groups,
                             double intra_msgs_per_second, double ratio) {
  if (num_groups < 2) {
    throw std::invalid_argument("group workload: needs >= 2 groups, got " +
                                std::to_string(num_groups));
  }
  if (num_processes % num_groups != 0 || num_processes / num_groups < 2) {
    throw std::invalid_argument(
        "group workload: " + std::to_string(num_groups) +
        " groups must split " + std::to_string(num_processes) +
        " processes evenly into groups of >= 2");
  }
  check_gap(1.0 / intra_msgs_per_second,
            "group workload: rate " + std::to_string(intra_msgs_per_second));
  check_gap(ratio / intra_msgs_per_second,
            "group workload: ratio " + std::to_string(ratio));
}

// ---------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------

void PointToPointWorkload::start(sim::SimTime horizon) {
  MCK_ASSERT(n_ >= 2);
  horizon_ = horizon;
  for (ProcessId p = 0; p < n_; ++p) schedule(p);
}

void PointToPointWorkload::schedule(ProcessId p) {
  sim::SimTime at = sim_.now() + rng_.exponential(mean_gap_);
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, p]() {
    ProcessId dst =
        static_cast<ProcessId>(rng_.uniform_int(0, n_ - 2));
    if (dst >= p) ++dst;  // uniform over the others
    send_(p, dst);
    schedule(p);
  });
}

// ---------------------------------------------------------------------
// Group communication
// ---------------------------------------------------------------------

GroupWorkload::GroupWorkload(sim::Simulator& sim, sim::Rng& rng,
                             int num_processes, int num_groups,
                             double intra_msgs_per_second, double ratio,
                             SendFn send)
    : sim_(sim),
      rng_(rng),
      n_(num_processes),
      groups_(num_groups),
      send_(std::move(send)) {
  validate(num_processes, num_groups, intra_msgs_per_second, ratio);
  intra_gap_ = sim::from_seconds(1.0 / intra_msgs_per_second);
  inter_gap_ = sim::from_seconds(ratio / intra_msgs_per_second);
}

void GroupWorkload::start(sim::SimTime horizon) {
  horizon_ = horizon;
  for (ProcessId p = 0; p < n_; ++p) {
    schedule_intra(p);
    if (is_leader(p)) schedule_inter(p);
  }
}

ProcessId GroupWorkload::pick_group_member(int group, ProcessId exclude) {
  int size = n_ / groups_;
  ProcessId base = static_cast<ProcessId>(group * size);
  ProcessId dst =
      base + static_cast<ProcessId>(rng_.uniform_int(0, size - 2));
  if (dst >= exclude) ++dst;
  return dst;
}

ProcessId GroupWorkload::pick_leader(ProcessId exclude) {
  int size = n_ / groups_;
  int my_group = exclude / size;
  int g = static_cast<int>(rng_.uniform_int(0, groups_ - 2));
  if (g >= my_group) ++g;
  return static_cast<ProcessId>(g * size);
}

void GroupWorkload::schedule_intra(ProcessId p) {
  sim::SimTime at = sim_.now() + rng_.exponential(intra_gap_);
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, p]() {
    send_(p, pick_group_member(group_of(p), p));
    schedule_intra(p);
  });
}

void GroupWorkload::schedule_inter(ProcessId leader) {
  sim::SimTime at = sim_.now() + rng_.exponential(inter_gap_);
  if (at > horizon_) return;
  sim_.schedule_at(at, [this, leader]() {
    send_(leader, pick_leader(leader));
    schedule_inter(leader);
  });
}

// ---------------------------------------------------------------------
// Scripted
// ---------------------------------------------------------------------

void ScriptedWorkload::run(const std::vector<ScriptStep>& steps) {
  for (const ScriptStep& s : steps) {
    MCK_ASSERT(s.at >= sim_.now());
    if (s.kind == ScriptStep::Kind::kSend) {
      sim_.schedule_at(s.at, [this, s]() { send_(s.a, s.b); });
    } else {
      sim_.schedule_at(s.at, [this, s]() { initiate_(s.a); });
    }
  }
}

}  // namespace mck::workload
