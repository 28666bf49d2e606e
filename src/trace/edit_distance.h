// Edit distances over general user-id sequences.
//
// Provided here: classic Levenshtein (unit insert/delete/substitute),
// post-normalized distance, and the exact Marzal–Vidal normalized edit
// distance (the paper's reference [33]) via Dinkelbach's fractional
// programming iteration.  These accept any sequence, repeats and any
// order included.  The predictor's slot distance (§IV-B) compares sorted
// unique user lists and uses trace::group_distance (time_slot.h), which
// exploits that shape; the two-row DP here is its test reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/ids.h"

namespace mca::trace {

/// Unit-cost Levenshtein distance between two sequences: the two-row DP,
/// O(|a|·|b|) time, O(|b|) space.
std::size_t edit_distance(std::span<const user_id> a,
                          std::span<const user_id> b);

/// Levenshtein divided by max(|a|, |b|); 0 for two empty sequences.
/// The cheap normalization commonly substituted for Marzal–Vidal.
double post_normalized_edit_distance(std::span<const user_id> a,
                                     std::span<const user_id> b);

/// Exact Marzal–Vidal normalized edit distance: the minimum over edit
/// paths P of weight(P)/length(P), computed by Dinkelbach iteration over
/// a parametric DP.  Returns 0 for two empty sequences; value is in [0,1]
/// for unit costs.
double normalized_edit_distance(std::span<const user_id> a,
                                std::span<const user_id> b);

}  // namespace mca::trace
