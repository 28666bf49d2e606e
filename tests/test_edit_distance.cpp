#include "trace/edit_distance.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "trace/time_slot.h"
#include "util/rng.h"

namespace mca::trace {
namespace {

using users = std::vector<user_id>;

TEST(EditDistance, EmptySequences) {
  EXPECT_EQ(edit_distance(users{}, users{}), 0u);
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{}), 3u);
  EXPECT_EQ(edit_distance(users{}, users{7}), 1u);
}

TEST(EditDistance, IdenticalIsZero) {
  const users a{1, 2, 3, 4};
  EXPECT_EQ(edit_distance(a, a), 0u);
}

TEST(EditDistance, KnownSmallCases) {
  EXPECT_EQ(edit_distance(users{1}, users{2}), 1u);                 // sub
  EXPECT_EQ(edit_distance(users{1, 2}, users{2}), 1u);              // del
  EXPECT_EQ(edit_distance(users{2}, users{1, 2}), 1u);              // ins
  EXPECT_EQ(edit_distance(users{1, 2}, users{2, 3}), 2u);
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{1, 9, 3}), 1u);
}

TEST(EditDistance, KittenSittingAnalogue) {
  // The classic kitten/sitting distance of 3 encoded as ids:
  // k=1 i=2 t=3 e=4 n=5 / s=6 g=7.
  const users kitten{1, 2, 3, 3, 4, 5};
  const users sitting{6, 2, 3, 3, 2, 5, 7};
  EXPECT_EQ(edit_distance(kitten, sitting), 3u);
}

TEST(EditDistance, DisjointSetsCostMaxLength) {
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{4, 5, 6}), 3u);
  EXPECT_EQ(edit_distance(users{1, 2}, users{4, 5, 6, 7}), 4u);
}

TEST(PostNormalized, RangeAndSpecialCases) {
  EXPECT_EQ(post_normalized_edit_distance(users{}, users{}), 0.0);
  EXPECT_EQ(post_normalized_edit_distance(users{1}, users{1}), 0.0);
  EXPECT_EQ(post_normalized_edit_distance(users{1}, users{2}), 1.0);
  EXPECT_DOUBLE_EQ(post_normalized_edit_distance(users{1, 2}, users{1, 2, 3, 4}),
                   0.5);
}

TEST(NormalizedMarzalVidal, EmptyAndIdentical) {
  EXPECT_EQ(normalized_edit_distance(users{}, users{}), 0.0);
  EXPECT_EQ(normalized_edit_distance(users{1, 2}, users{1, 2}), 0.0);
}

TEST(NormalizedMarzalVidal, CompletelyDifferentIsOne) {
  EXPECT_DOUBLE_EQ(normalized_edit_distance(users{1}, users{2}), 1.0);
}

TEST(NormalizedMarzalVidal, ClassicPaperExampleBeatsPostNormalization) {
  // Marzal–Vidal's point: path-length normalization can be strictly
  // smaller than d/max(|a|,|b|) because longer paths with cheap steps may
  // win.  At minimum it can never exceed the post-normalized value.
  util::rng rng{3};
  for (int round = 0; round < 200; ++round) {
    users a;
    users b;
    const int na = static_cast<int>(rng.uniform_int(0, 8));
    const int nb = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < na; ++i) {
      a.push_back(static_cast<user_id>(rng.uniform_int(0, 4)));
    }
    for (int i = 0; i < nb; ++i) {
      b.push_back(static_cast<user_id>(rng.uniform_int(0, 4)));
    }
    const double mv = normalized_edit_distance(a, b);
    const double post = post_normalized_edit_distance(a, b);
    EXPECT_LE(mv, post + 1e-9);
    EXPECT_GE(mv, 0.0);
    EXPECT_LE(mv, 1.0);
  }
}

// Property sweeps: Levenshtein must satisfy the metric axioms.
class EditDistanceMetric : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  users random_sequence(util::rng& rng, int max_len, int alphabet) {
    users s;
    const int n = static_cast<int>(rng.uniform_int(0, max_len));
    for (int i = 0; i < n; ++i) {
      s.push_back(static_cast<user_id>(rng.uniform_int(0, alphabet - 1)));
    }
    return s;
  }
};

TEST_P(EditDistanceMetric, SymmetryIdentityTriangle) {
  util::rng rng{GetParam()};
  for (int round = 0; round < 50; ++round) {
    const users a = random_sequence(rng, 12, 6);
    const users b = random_sequence(rng, 12, 6);
    const users c = random_sequence(rng, 12, 6);
    const auto dab = edit_distance(a, b);
    const auto dba = edit_distance(b, a);
    const auto dac = edit_distance(a, c);
    const auto dcb = edit_distance(c, b);
    EXPECT_EQ(dab, dba);                        // symmetry
    EXPECT_EQ(edit_distance(a, a), 0u);         // identity
    EXPECT_LE(dab, dac + dcb);                  // triangle inequality
    // Length-difference lower bound and max-length upper bound.
    const auto len_diff = a.size() > b.size() ? a.size() - b.size()
                                              : b.size() - a.size();
    EXPECT_GE(dab, len_diff);
    EXPECT_LE(dab, std::max(a.size(), b.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceMetric,
                         ::testing::Range<std::uint64_t>(1, 13));

namespace {

/// Naive exponential reference implementation for cross-checking the DP.
std::size_t reference_edit_distance(std::span<const user_id> a,
                                    std::span<const user_id> b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const std::size_t substitution =
      reference_edit_distance(a.subspan(1), b.subspan(1)) +
      (a.front() == b.front() ? 0 : 1);
  const std::size_t deletion = reference_edit_distance(a.subspan(1), b) + 1;
  const std::size_t insertion = reference_edit_distance(a, b.subspan(1)) + 1;
  return std::min({substitution, deletion, insertion});
}

}  // namespace

class EditDistanceVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EditDistanceVsReference, DpMatchesNaiveRecursion) {
  util::rng rng{GetParam()};
  for (int round = 0; round < 30; ++round) {
    users a;
    users b;
    const int na = static_cast<int>(rng.uniform_int(0, 7));
    const int nb = static_cast<int>(rng.uniform_int(0, 7));
    for (int i = 0; i < na; ++i) {
      a.push_back(static_cast<user_id>(rng.uniform_int(0, 3)));
    }
    for (int i = 0; i < nb; ++i) {
      b.push_back(static_cast<user_id>(rng.uniform_int(0, 3)));
    }
    EXPECT_EQ(edit_distance(a, b), reference_edit_distance(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceVsReference,
                         ::testing::Range<std::uint64_t>(20, 26));

namespace {

/// Textbook two-row Levenshtein, the oracle for group_distance's sparse
/// chain DP over sorted unique user lists.
std::size_t dp_edit_distance(std::span<const user_id> a,
                             std::span<const user_id> b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1,
                          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

users random_sorted_unique(util::rng& rng, std::size_t max_len,
                           std::uint32_t universe) {
  users out;
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < len && next < universe; ++i) {
    next += static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(universe / max_len + 2)));
    out.push_back(next);
  }
  return out;
}

/// group_distance between two one-group slots holding `a` and `b`, which
/// must already be sorted and unique.
std::size_t sorted_distance(const users& a, const users& b) {
  return group_distance(time_slot::from_group_users({a}),
                        time_slot::from_group_users({b}), 0);
}

/// Asserts group_distance equals the DP both ways round, so every case
/// also checks symmetry.
void expect_matches_dp(const users& a, const users& b, const char* what) {
  const std::size_t want = dp_edit_distance(a, b);
  EXPECT_EQ(sorted_distance(a, b), want)
      << what << " |a|=" << a.size() << " |b|=" << b.size();
  EXPECT_EQ(sorted_distance(b, a), want)
      << what << " (swapped) |a|=" << a.size() << " |b|=" << b.size();
}

users iota_users(user_id first, std::size_t count, user_id step = 1) {
  users out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = first + static_cast<user_id>(i) * step;
  }
  return out;
}

}  // namespace

TEST(GroupDistance, MatchesDpOnRandomSortedSets) {
  util::rng rng{777};
  // A sparse universe, then a small one where most users are common, so
  // long chains with many diagonals compete.
  const std::pair<std::size_t, std::uint32_t> shapes[] = {{150, 4'000},
                                                          {60, 90}};
  for (const auto& [max_len, universe] : shapes) {
    for (int round = 0; round < 300; ++round) {
      const users a = random_sorted_unique(rng, max_len, universe);
      const users b = random_sorted_unique(rng, max_len, universe);
      expect_matches_dp(a, b, "random");
    }
  }
}

TEST(GroupDistance, EdgeCases) {
  const users empty;
  const users some = iota_users(10, 25, 3);
  expect_matches_dp(empty, empty, "empty/empty");
  EXPECT_EQ(sorted_distance(empty, empty), 0u);
  expect_matches_dp(some, empty, "one side empty");
  EXPECT_EQ(sorted_distance(some, empty), some.size());

  expect_matches_dp(some, some, "identical");
  EXPECT_EQ(sorted_distance(some, some), 0u);

  const users evens = iota_users(0, 40, 2);
  const users odds = iota_users(1, 40, 2);
  expect_matches_dp(evens, odds, "interleaved disjoint");
  EXPECT_EQ(sorted_distance(evens, odds), 40u);

  expect_matches_dp(iota_users(0, 50), iota_users(1, 50), "shifted by one");
  EXPECT_EQ(sorted_distance(iota_users(0, 50), iota_users(1, 50)), 2u);

  users subset;
  for (std::size_t i = 0; i < some.size(); ++i) {
    if (i % 3 != 0) subset.push_back(some[i]);
  }
  expect_matches_dp(some, subset, "strict subset");
  EXPECT_EQ(sorted_distance(some, subset), some.size() - subset.size());

  expect_matches_dp(users{1, 5, 9, 20}, users{2, 9, 30}, "one common user");
  expect_matches_dp(users{7}, users{7}, "single identical user");
  expect_matches_dp(users{3}, users{1, 2, 3, 4, 5}, "single user inside a run");

  // ~2k users a side, each a ~36% draw of a shared universe.
  util::rng rng{780};
  users a;
  users b;
  for (user_id u = 0; u < 5'600; ++u) {
    if (rng.bernoulli(0.36)) a.push_back(u);
    if (rng.bernoulli(0.36)) b.push_back(u);
  }
  expect_matches_dp(a, b, "2k x 2k");
}

}  // namespace
}  // namespace mca::trace
