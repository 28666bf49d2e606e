#include "util/histogram.h"

#include <gtest/gtest.h>

namespace mca::util {
namespace {

TEST(Histogram, BinsSamplesCorrectly) {
  histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.9);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 2u);
  EXPECT_EQ(h.count_in_bin(9), 1u);
}

TEST(Histogram, OutOfRangeSaturatesEdges) {
  histogram h{0.0, 10.0, 5};
  h.add(-3.0);
  h.add(42.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
}

TEST(Histogram, BinLowerEdges) {
  histogram h{10.0, 20.0, 5};
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(4), 18.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_THROW(h.bin_lower(5), std::out_of_range);
}

TEST(Histogram, MergeCombinesCounts) {
  histogram a{0.0, 10.0, 10};
  histogram b{0.0, 10.0, 10};
  a.add(0.5);
  a.add(4.5);
  b.add(4.7);
  b.add(9.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count_in_bin(0), 1u);
  EXPECT_EQ(a.count_in_bin(4), 2u);
  EXPECT_EQ(a.count_in_bin(9), 1u);
  // b is untouched.
  EXPECT_EQ(b.total(), 2u);
}

TEST(Histogram, MergeRejectsMismatchedLayouts) {
  histogram a{0.0, 10.0, 10};
  histogram bins{0.0, 10.0, 5};
  histogram range{0.0, 20.0, 10};
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

TEST(Histogram, QuantileApproximation) {
  histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
}

TEST(Histogram, QuantileErrors) {
  histogram h{0.0, 1.0, 2};
  EXPECT_THROW(h.quantile(0.5), std::logic_error);
  h.add(0.5);
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.5), std::invalid_argument);
}

TEST(Histogram, InterpolatedQuantileExactWithOneSamplePerBin) {
  // One sample per bin at the bin's (j+0.5)/c position == the sample's
  // actual value: the interpolated quantile must reproduce numpy's
  // "linear" method on the underlying values exactly.
  histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  // numpy.percentile([0.5..99.5], 50, method="linear") = 50.0
  EXPECT_NEAR(h.quantile_interpolated(0.5), 50.0, 1e-9);
  // rank 0.95*(100-1) = 94.05 -> between samples 94 (94.5) and 95 (95.5).
  EXPECT_NEAR(h.quantile_interpolated(0.95), 94.55, 1e-9);
  // rank 0.999*99 = 98.901 -> 98.5 + 0.901 * (99.5 - 98.5).
  EXPECT_NEAR(h.quantile_interpolated(0.999), 99.401, 1e-9);
}

TEST(Histogram, InterpolatedQuantileBounds) {
  histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  // q=0 is the smallest sample, q=1 the largest (no extrapolation past
  // the data).
  EXPECT_NEAR(h.quantile_interpolated(0.0), 0.5, 1e-9);
  EXPECT_NEAR(h.quantile_interpolated(1.0), 9.5, 1e-9);
}

TEST(Histogram, InterpolatedQuantileWithinBinSpacing) {
  // Four samples in one bin sit at 1/8, 3/8, 5/8, 7/8 of the bin width.
  histogram h{0.0, 8.0, 1};
  for (int i = 0; i < 4; ++i) h.add(1.0);
  EXPECT_NEAR(h.quantile_interpolated(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.quantile_interpolated(1.0), 7.0, 1e-9);
  // rank 0.5*3 = 1.5 -> midway between samples 1 (3.0) and 2 (5.0).
  EXPECT_NEAR(h.quantile_interpolated(0.5), 4.0, 1e-9);
}

TEST(Histogram, InterpolatedQuantileMonotonic) {
  histogram h{0.0, 60.0, 240};
  for (int i = 0; i < 1000; ++i) h.add((i * 37) % 60 + 0.25);
  double prev = h.quantile_interpolated(0.0);
  for (int step = 1; step <= 20; ++step) {
    const double q = static_cast<double>(step) / 20.0;
    const double v = h.quantile_interpolated(q);
    EXPECT_GE(v, prev - 1e-12) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, InterpolatedQuantileSingleSample) {
  histogram h{0.0, 10.0, 10};
  h.add(3.0);
  // The lone sample sits at the middle of its bin.
  EXPECT_NEAR(h.quantile_interpolated(0.0), 3.5, 1e-9);
  EXPECT_NEAR(h.quantile_interpolated(0.5), 3.5, 1e-9);
  EXPECT_NEAR(h.quantile_interpolated(1.0), 3.5, 1e-9);
}

TEST(Histogram, InterpolatedQuantileErrors) {
  histogram h{0.0, 1.0, 2};
  EXPECT_THROW(h.quantile_interpolated(0.5), std::logic_error);
  h.add(0.5);
  EXPECT_THROW(h.quantile_interpolated(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(1.5), std::invalid_argument);
}

TEST(Histogram, ConstructorValidation) {
  EXPECT_THROW(histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(histogram(2.0, 1.0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace mca::util
