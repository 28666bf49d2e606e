#include "trace/edit_distance.h"

#include <algorithm>
#include <cmath>

namespace mca::trace {

std::size_t edit_distance(std::span<const user_id> a,
                          std::span<const user_id> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t substitution =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

double post_normalized_edit_distance(std::span<const user_id> a,
                                     std::span<const user_id> b) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(edit_distance(a, b)) /
         static_cast<double>(longest);
}

namespace {

/// Parametric DP for Dinkelbach: minimizes weight(P) - lambda * length(P)
/// over all edit paths, returning (value, weight, length) of the optimum.
struct parametric_result {
  double value = 0.0;
  double weight = 0.0;
  double length = 0.0;
};

parametric_result parametric_edit(std::span<const user_id> a,
                                  std::span<const user_id> b, double lambda) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  struct cell {
    double value;
    double weight;
    double length;
  };
  std::vector<cell> prev(m + 1);
  std::vector<cell> curr(m + 1);
  prev[0] = {0.0, 0.0, 0.0};
  for (std::size_t j = 1; j <= m; ++j) {
    prev[j] = {prev[j - 1].value + 1.0 - lambda, prev[j - 1].weight + 1.0,
               prev[j - 1].length + 1.0};
  }
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = {prev[0].value + 1.0 - lambda, prev[0].weight + 1.0,
               prev[0].length + 1.0};
    for (std::size_t j = 1; j <= m; ++j) {
      const double sub_cost = (a[i - 1] == b[j - 1]) ? 0.0 : 1.0;
      const cell via_sub = {prev[j - 1].value + sub_cost - lambda,
                            prev[j - 1].weight + sub_cost,
                            prev[j - 1].length + 1.0};
      const cell via_del = {prev[j].value + 1.0 - lambda, prev[j].weight + 1.0,
                            prev[j].length + 1.0};
      const cell via_ins = {curr[j - 1].value + 1.0 - lambda,
                            curr[j - 1].weight + 1.0,
                            curr[j - 1].length + 1.0};
      curr[j] = via_sub;
      if (via_del.value < curr[j].value) curr[j] = via_del;
      if (via_ins.value < curr[j].value) curr[j] = via_ins;
    }
    std::swap(prev, curr);
  }
  return {prev[m].value, prev[m].weight, prev[m].length};
}

}  // namespace

double normalized_edit_distance(std::span<const user_id> a,
                                std::span<const user_id> b) {
  if (a.empty() && b.empty()) return 0.0;
  // Dinkelbach: iterate lambda <- weight/length of the path minimizing the
  // parametric objective until the objective reaches ~0.
  double lambda = post_normalized_edit_distance(a, b);  // good initial guess
  for (int iter = 0; iter < 64; ++iter) {
    const auto r = parametric_edit(a, b, lambda);
    if (std::abs(r.value) < 1e-12 || r.length == 0.0) break;
    const double next = r.weight / r.length;
    if (std::abs(next - lambda) < 1e-12) {
      lambda = next;
      break;
    }
    lambda = next;
  }
  return lambda;
}

}  // namespace mca::trace
