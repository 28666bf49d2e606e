// Time slots: the unit of evidence for workload prediction.
//
// A slot covers one fixed-length window and records, per acceleration
// group, the set of users that offloaded at that level during the window
// (§IV-A: "each acceleration group at a time period t contains a certain
// number of users or an empty set").  Users are kept sorted and unique so
// slot comparison is deterministic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/ids.h"

namespace mca::trace {

/// Per-group user assignments of one time window.
class time_slot {
 public:
  /// Creates a slot with groups [0, group_count).
  explicit time_slot(std::size_t group_count);

  /// Records that `user` offloaded at level `group` during this window.
  /// Duplicate (group, user) pairs are absorbed.  Throws std::out_of_range
  /// for an unknown group.
  void add_user(group_id group, user_id user);

  /// Bulk construction from per-group user lists (any order, duplicates
  /// allowed): one sort+unique per group instead of an O(n) sorted insert
  /// per observation — the slot-boundary path at fleet scale.  The result
  /// equals add_user() over every (group, user) pair.
  static time_slot from_group_users(std::vector<std::vector<user_id>> groups);

  std::size_t group_count() const noexcept { return groups_.size(); }
  /// Sorted, de-duplicated users of a group.
  std::span<const user_id> users_in(group_id group) const;
  std::size_t user_count(group_id group) const;
  /// Users summed over groups (a user may count once per group it used).
  std::size_t total_users() const noexcept;
  /// Per-group cardinalities, index = group id.
  std::vector<std::size_t> group_counts() const;
  bool empty() const noexcept { return total_users() == 0; }

  friend bool operator==(const time_slot& a, const time_slot& b) = default;

 private:
  std::vector<std::vector<user_id>> groups_;
};

/// δ of §IV-B.1: the Levenshtein distance between the group's sorted user
/// sequences in the two slots (0 for identical sets).  Exact sparse chain
/// DP over the k common users, which sorted unique lists put on one chain
/// monotone in both indices: the cheapest sub-chain from (-1, -1) to
/// (n, m), one hop costing max(gap_a, gap_b), with two Fenwick minima
/// keyed by diagonal rank.  O(n + m + k log k).
std::size_t group_distance(const time_slot& a, const time_slot& b,
                           group_id group);

/// Δ of §IV-B.1: the sum of per-group distances.  Throws
/// std::invalid_argument when slot group counts differ.
std::size_t slot_distance(const time_slot& a, const time_slot& b);

}  // namespace mca::trace
