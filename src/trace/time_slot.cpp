#include "trace/time_slot.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mca::trace {

time_slot::time_slot(std::size_t group_count) : groups_(group_count) {}

void time_slot::add_user(group_id group, user_id user) {
  if (group >= groups_.size()) {
    throw std::out_of_range{"time_slot: unknown group"};
  }
  auto& users = groups_[group];
  const auto pos = std::lower_bound(users.begin(), users.end(), user);
  if (pos != users.end() && *pos == user) return;
  users.insert(pos, user);
}

time_slot time_slot::from_group_users(
    std::vector<std::vector<user_id>> groups) {
  time_slot slot{groups.size()};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& users = groups[g];
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    slot.groups_[g] = std::move(users);
  }
  return slot;
}

std::span<const user_id> time_slot::users_in(group_id group) const {
  if (group >= groups_.size()) {
    throw std::out_of_range{"time_slot: unknown group"};
  }
  return groups_[group];
}

std::size_t time_slot::user_count(group_id group) const {
  return users_in(group).size();
}

std::size_t time_slot::total_users() const noexcept {
  std::size_t total = 0;
  for (const auto& users : groups_) total += users.size();
  return total;
}

std::vector<std::size_t> time_slot::group_counts() const {
  std::vector<std::size_t> counts(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) counts[g] = groups_[g].size();
  return counts;
}

std::size_t group_distance(const time_slot& a, const time_slot& b,
                           group_id group) {
  const auto ua = a.users_in(group);
  const auto ub = b.users_in(group);
  const auto n = static_cast<std::ptrdiff_t>(ua.size());
  const auto m = static_cast<std::ptrdiff_t>(ub.size());

  // Both lists are sorted and unique, so the common users form one chain
  // of positions (i, j) increasing in both indices.
  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> chain;
  for (std::ptrdiff_t i = 0, j = 0; i < n && j < m;) {
    if (ua[i] == ub[j]) {
      chain.emplace_back(i++, j++);
    } else if (ua[i] < ub[j]) {
      ++i;
    } else {
      ++j;
    }
  }

  // f(t) = min over earlier points s of f(s) + max(i_t - i_s, j_t - j_s) - 1,
  // from f = 0 at (-1, -1) to the answer at (n, m).  The max is the
  // i-gap when diagonal d = i - j of s lies below t's, else the j-gap, so
  // two Fenwick prefix minima keyed by diagonal rank hold f - i (`below`)
  // and f - j (`above`, on reversed ranks).
  std::vector<std::ptrdiff_t> diagonals{0, n - m};
  diagonals.reserve(chain.size() + 2);
  for (const auto& [i, j] : chain) diagonals.push_back(i - j);
  std::sort(diagonals.begin(), diagonals.end());
  diagonals.erase(std::unique(diagonals.begin(), diagonals.end()),
                  diagonals.end());
  const std::size_t ranks = diagonals.size();
  const auto rank_of = [&](std::ptrdiff_t i, std::ptrdiff_t j) {
    return static_cast<std::size_t>(
        std::lower_bound(diagonals.begin(), diagonals.end(), i - j) -
        diagonals.begin());
  };

  // Half the maximum leaves room to add an index to an empty minimum.
  constexpr std::ptrdiff_t kNone =
      std::numeric_limits<std::ptrdiff_t>::max() / 2;
  std::vector<std::ptrdiff_t> below(ranks + 1, kNone);
  std::vector<std::ptrdiff_t> above(ranks + 1, kNone);
  const auto lower = [](std::vector<std::ptrdiff_t>& tree, std::size_t pos,
                        std::ptrdiff_t value) {
    for (++pos; pos < tree.size(); pos += pos & -pos) {
      tree[pos] = std::min(tree[pos], value);
    }
  };
  const auto min_before = [](const std::vector<std::ptrdiff_t>& tree,
                             std::size_t end) {
    std::ptrdiff_t best = kNone;
    for (; end > 0; end -= end & -end) best = std::min(best, tree[end]);
    return best;
  };
  const auto reach = [&](std::size_t r, std::ptrdiff_t i, std::ptrdiff_t j) {
    const std::ptrdiff_t via_i = min_before(below, r) + i;
    return std::min(via_i, min_before(above, ranks - r) + j) - 1;
  };
  const auto add = [&](std::size_t r, std::ptrdiff_t i, std::ptrdiff_t j,
                       std::ptrdiff_t f) {
    lower(below, r, f - i);
    lower(above, ranks - 1 - r, f - j);
  };
  add(rank_of(-1, -1), -1, -1, 0);
  for (const auto& [i, j] : chain) {
    const std::size_t r = rank_of(i, j);
    add(r, i, j, reach(r, i, j));
  }
  return static_cast<std::size_t>(reach(rank_of(n, m), n, m));
}

std::size_t slot_distance(const time_slot& a, const time_slot& b) {
  if (a.group_count() != b.group_count()) {
    throw std::invalid_argument{"slot_distance: group count mismatch"};
  }
  std::size_t total = 0;
  for (group_id g = 0; g < a.group_count(); ++g) {
    total += group_distance(a, b, g);
  }
  return total;
}

}  // namespace mca::trace
