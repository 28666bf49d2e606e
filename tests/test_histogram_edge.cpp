// Randomized edge-case coverage for util::histogram quantile interpolation
// and bin placement, aimed at the boundaries the analytic fig-suite paths
// never visit: empty histograms, single samples, saturated edge bins fed
// by far-out-of-range values, and NaN/infinite inputs.  The out-of-range
// adds in particular exercise histogram::add's double->size_t saturation,
// which the ASan+UBSan CI leg watches for invalid float-to-integer casts.
#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mca::util {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Reconstructs the multiset of sample positions the interpolated quantile
/// is defined over: the c samples of bin b sit at evenly spaced offsets
/// (j + 0.5)/c of the bin width.  Sorted by construction (bins ascend,
/// within-bin offsets ascend), so the reference quantile is a direct
/// linear interpolation over ranks.
std::vector<double> reconstructed_samples(const histogram& h) {
  std::vector<double> samples;
  samples.reserve(h.total());
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    const std::size_t c = h.count_in_bin(b);
    for (std::size_t j = 0; j < c; ++j) {
      samples.push_back(h.bin_lower(b) +
                        h.bin_width() * (static_cast<double>(j) + 0.5) /
                            static_cast<double>(c));
    }
  }
  return samples;
}

double reference_quantile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

TEST(HistogramEdge, EmptyQuantileThrows) {
  histogram h{0.0, 10.0, 4};
  EXPECT_THROW(h.quantile(0.5), std::logic_error);
  EXPECT_THROW(h.quantile_interpolated(0.5), std::logic_error);
}

TEST(HistogramEdge, OutOfRangeQRejectedIncludingNaN) {
  histogram h{0.0, 10.0, 4};
  h.add(5.0);
  EXPECT_THROW(h.quantile(-0.001), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.001), std::invalid_argument);
  EXPECT_THROW(h.quantile(kNaN), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(-1.0), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(2.0), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(kNaN), std::invalid_argument);
}

TEST(HistogramEdge, OneSampleEveryQuantileIsTheSample) {
  histogram h{0.0, 8.0, 8};
  h.add(3.2);  // lands in bin 3, single sample sits at its midpoint 3.5
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(q), 3.5);
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.5);
  }
}

TEST(HistogramEdge, FarOutOfRangeSamplesSaturateEdgeBins) {
  histogram h{0.0, 100.0, 10};
  // Values whose bin offset overflows size_t (or is infinite) must clamp
  // to the top bin, not trip an out-of-range float->int cast.
  h.add(1.0e308);
  h.add(std::numeric_limits<double>::max());
  h.add(kInf);
  h.add(250.0);  // ordinary overshoot, same top bin
  // Below-range (including hugely so) lands in bin 0.
  h.add(-1.0e308);
  h.add(-kInf);
  h.add(-5.0);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.count_in_bin(9), 4u);
  EXPECT_EQ(h.count_in_bin(0), 3u);
  // Quantiles stay inside the layout even with saturated edges.
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = h.quantile_interpolated(q);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(HistogramEdge, NaNSampleCountsWithoutPoisoning) {
  histogram h{0.0, 10.0, 4};
  h.add(kNaN);  // bin offset comparisons all fail -> bin 0, like <= lo
  h.add(7.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_TRUE(std::isfinite(h.quantile_interpolated(0.5)));
}

TEST(HistogramEdge, InterpolationMatchesReconstructedSamples) {
  rng gen{0x9e3779b97f4a7c15ULL};
  for (int trial = 0; trial < 200; ++trial) {
    const double lo = gen.uniform(-50.0, 50.0);
    const double hi = lo + gen.uniform(0.5, 200.0);
    const auto bins = static_cast<std::size_t>(gen.uniform_int(1, 12));
    histogram h{lo, hi, bins};
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 160));
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly in-range, with a deliberate out-of-range tail including
      // magnitudes that overflow the bin-offset arithmetic.
      if (gen.bernoulli(0.1)) {
        h.add(gen.bernoulli(0.5) ? 1.0e307 : -1.0e307);
      } else {
        h.add(gen.uniform(lo - 10.0, hi + 10.0));
      }
    }
    const std::vector<double> samples = reconstructed_samples(h);
    ASSERT_EQ(samples.size(), h.total());
    ASSERT_TRUE(std::is_sorted(samples.begin(), samples.end()));
    for (int k = 0; k < 8; ++k) {
      const double q = gen.uniform();
      const double expected = reference_quantile(samples, q);
      EXPECT_NEAR(h.quantile_interpolated(q), expected,
                  1.0e-9 * std::max(1.0, std::abs(expected)))
          << "trial " << trial << " q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(0.0), samples.front());
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(1.0), samples.back());
  }
}

}  // namespace
}  // namespace mca::util
