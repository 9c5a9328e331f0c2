#include <gtest/gtest.h>

#include <cmath>

#include "aida/histogram1d.hpp"
#include "aida/histogram2d.hpp"
#include "common/rng.hpp"

namespace ipa::aida {
namespace {

TEST(Axis, IndexMapping) {
  const Axis axis(10, 0.0, 100.0);
  EXPECT_EQ(axis.index(0.0), 0);
  EXPECT_EQ(axis.index(9.999), 0);
  EXPECT_EQ(axis.index(10.0), 1);
  EXPECT_EQ(axis.index(99.999), 9);
  EXPECT_EQ(axis.index(100.0), kOverflow);
  EXPECT_EQ(axis.index(-0.001), kUnderflow);
  EXPECT_EQ(axis.index(std::nan("")), kUnderflow);
  EXPECT_DOUBLE_EQ(axis.bin_width(), 10.0);
  EXPECT_DOUBLE_EQ(axis.bin_center(0), 5.0);
  EXPECT_DOUBLE_EQ(axis.bin_lower(3), 30.0);
  EXPECT_DOUBLE_EQ(axis.bin_upper(3), 40.0);
}

TEST(Axis, CreateValidation) {
  EXPECT_FALSE(Axis::create(0, 0, 1).is_ok());
  EXPECT_FALSE(Axis::create(-5, 0, 1).is_ok());
  EXPECT_FALSE(Axis::create(10, 1, 1).is_ok());
  EXPECT_FALSE(Axis::create(10, 2, 1).is_ok());
  EXPECT_TRUE(Axis::create(1, 0, 1e-9).is_ok());
}

// A 64-bit wire bin count must not truncate to a plausible int (2^32 + 5
// would read as 5 bins).
TEST(Axis, DecodeRejectsBinCountsBeyondInt) {
  for (const std::int64_t bins : {(std::int64_t{1} << 32) + 5, std::int64_t{-3}}) {
    ser::Writer w;
    w.svarint(bins);
    w.f64(0.0);
    w.f64(1.0);
    ser::Reader r(w.data());
    EXPECT_EQ(Axis::decode(r).status().code(), StatusCode::kDataLoss) << bins;
  }
}

TEST(Histogram1D, FillAndBinContents) {
  auto hist = Histogram1D::create("mass", 10, 0, 100);
  ASSERT_TRUE(hist.is_ok());
  hist->fill(5.0);
  hist->fill(5.0, 2.0);
  hist->fill(95.0);
  hist->fill(-1.0);   // underflow
  hist->fill(150.0);  // overflow

  EXPECT_EQ(hist->entries(), 5u);
  EXPECT_DOUBLE_EQ(hist->bin_height(0), 3.0);
  EXPECT_DOUBLE_EQ(hist->bin_height(9), 1.0);
  EXPECT_DOUBLE_EQ(hist->underflow(), 1.0);
  EXPECT_DOUBLE_EQ(hist->overflow(), 1.0);
  EXPECT_DOUBLE_EQ(hist->sum_height(), 4.0);
  EXPECT_DOUBLE_EQ(hist->sum_all_height(), 6.0);
  EXPECT_DOUBLE_EQ(hist->bin_error(0), std::sqrt(1 + 4 + 0.0));
}

TEST(Histogram1D, MeanAndRmsMatchMoments) {
  auto hist = Histogram1D::create("gauss", 100, -50, 50);
  ASSERT_TRUE(hist.is_ok());
  Rng rng(11);
  const int n = 20000;
  for (int i = 0; i < n; ++i) hist->fill(rng.normal(5.0, 3.0));
  EXPECT_NEAR(hist->mean(), 5.0, 0.1);
  EXPECT_NEAR(hist->rms(), 3.0, 0.1);
}

TEST(Histogram1D, MaxBinFindsPeak) {
  auto hist = Histogram1D::create("peak", 50, 0, 100);
  ASSERT_TRUE(hist.is_ok());
  for (int i = 0; i < 100; ++i) hist->fill(33.0);
  for (int i = 0; i < 10; ++i) hist->fill(80.0);
  EXPECT_EQ(hist->max_bin(), hist->axis().index(33.0));
}

TEST(Histogram1D, MergeEqualsSingleFill) {
  auto all = Histogram1D::create("m", 40, 0, 200);
  auto part1 = Histogram1D::create("m", 40, 0, 200);
  auto part2 = Histogram1D::create("m", 40, 0, 200);
  ASSERT_TRUE(all.is_ok() && part1.is_ok() && part2.is_ok());

  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-20, 220);
    const double w = rng.uniform(0.5, 1.5);
    all->fill(x, w);
    (i % 2 ? *part1 : *part2).fill(x, w);
  }
  ASSERT_TRUE(part1->merge(*part2).is_ok());
  // Merging is exact up to floating-point summation order.
  EXPECT_EQ(part1->entries(), all->entries());
  for (int i = -2; i < 40; ++i) {
    EXPECT_NEAR(part1->bin_height(i), all->bin_height(i), 1e-9) << "bin " << i;
    EXPECT_NEAR(part1->bin_error(i), all->bin_error(i), 1e-9) << "bin " << i;
  }
  EXPECT_NEAR(part1->mean(), all->mean(), 1e-9);
  EXPECT_NEAR(part1->rms(), all->rms(), 1e-9);
}

TEST(Histogram1D, MergeRejectsIncompatibleAxes) {
  auto a = Histogram1D::create("m", 10, 0, 1);
  auto b = Histogram1D::create("m", 20, 0, 1);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(a->merge(*b).code(), StatusCode::kFailedPrecondition);
}

TEST(Histogram1D, ScaleAffectsHeightsAndErrors) {
  auto hist = Histogram1D::create("s", 4, 0, 4);
  ASSERT_TRUE(hist.is_ok());
  hist->fill(0.5);
  hist->fill(0.5);
  hist->scale(3.0);
  EXPECT_DOUBLE_EQ(hist->bin_height(0), 6.0);
  EXPECT_DOUBLE_EQ(hist->bin_error(0), 3.0 * std::sqrt(2.0));
  EXPECT_EQ(hist->entries(), 2u);  // entries stay raw
}

TEST(Histogram1D, ResetClearsEverything) {
  auto hist = Histogram1D::create("r", 4, 0, 4);
  ASSERT_TRUE(hist.is_ok());
  hist->fill(1.0);
  hist->reset();
  EXPECT_EQ(hist->entries(), 0u);
  EXPECT_DOUBLE_EQ(hist->sum_all_height(), 0.0);
  EXPECT_DOUBLE_EQ(hist->mean(), 0.0);
}

TEST(Histogram1D, SerializeRoundTrip) {
  auto hist = Histogram1D::create("round", 25, -5, 5);
  ASSERT_TRUE(hist.is_ok());
  hist->annotation()["xlabel"] = "GeV";
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) hist->fill(rng.normal(), rng.uniform(0.1, 2.0));

  ser::Writer w;
  hist->encode(w);
  ser::Reader r(w.data());
  auto back = Histogram1D::decode(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, *hist);
  EXPECT_EQ(back->annotation().at("xlabel"), "GeV");
}

TEST(Histogram1D, DecodeRejectsTruncated) {
  auto hist = Histogram1D::create("t", 5, 0, 1);
  ASSERT_TRUE(hist.is_ok());
  ser::Writer w;
  hist->encode(w);
  ser::Bytes truncated(w.data().begin(), w.data().begin() + w.size() / 2);
  ser::Reader r(truncated);
  EXPECT_FALSE(Histogram1D::decode(r).is_ok());
}

TEST(Histogram2D, FillAndProjectionsOfMoments) {
  auto hist = Histogram2D::create("xy", 10, 0, 10, 20, -1, 1);
  ASSERT_TRUE(hist.is_ok());
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    hist->fill(rng.uniform(0, 10), rng.normal(0.2, 0.3));
  }
  EXPECT_NEAR(hist->mean_x(), 5.0, 0.2);
  EXPECT_NEAR(hist->mean_y(), 0.2, 0.02);
  EXPECT_NEAR(hist->rms_x(), 10.0 / std::sqrt(12.0), 0.2);
  EXPECT_NEAR(hist->rms_y(), 0.3, 0.02);
}

TEST(Histogram2D, CornerAndOverflowCells) {
  auto hist = Histogram2D::create("c", 2, 0, 2, 2, 0, 2);
  ASSERT_TRUE(hist.is_ok());
  hist->fill(0.5, 0.5);
  hist->fill(1.5, 1.5, 2.0);
  hist->fill(-1, 0.5);   // x underflow
  hist->fill(5, 5);      // both overflow
  EXPECT_DOUBLE_EQ(hist->bin_height(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(hist->bin_height(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(hist->bin_height(kUnderflow, 0), 1.0);
  EXPECT_DOUBLE_EQ(hist->bin_height(kOverflow, kOverflow), 1.0);
  EXPECT_DOUBLE_EQ(hist->sum_all_height(), 5.0);
}

TEST(Histogram2D, MergeMatchesCombinedFill) {
  auto all = Histogram2D::create("m", 8, 0, 1, 8, 0, 1);
  auto a = Histogram2D::create("m", 8, 0, 1, 8, 0, 1);
  auto b = Histogram2D::create("m", 8, 0, 1, 8, 0, 1);
  ASSERT_TRUE(all.is_ok() && a.is_ok() && b.is_ok());
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(), y = rng.uniform();
    all->fill(x, y);
    (i % 3 == 0 ? *a : *b).fill(x, y);
  }
  ASSERT_TRUE(a->merge(*b).is_ok());
  EXPECT_EQ(a->entries(), all->entries());
  for (int ix = 0; ix < 8; ++ix) {
    for (int iy = 0; iy < 8; ++iy) {
      EXPECT_NEAR(a->bin_height(ix, iy), all->bin_height(ix, iy), 1e-9);
    }
  }
  EXPECT_NEAR(a->mean_x(), all->mean_x(), 1e-9);
  EXPECT_NEAR(a->mean_y(), all->mean_y(), 1e-9);
}

TEST(Histogram2D, SerializeRoundTrip) {
  auto hist = Histogram2D::create("r2", 6, 0, 3, 4, -2, 2);
  ASSERT_TRUE(hist.is_ok());
  Rng rng(37);
  for (int i = 0; i < 500; ++i) hist->fill(rng.uniform(0, 3), rng.uniform(-2, 2));
  ser::Writer w;
  hist->encode(w);
  ser::Reader r(w.data());
  auto back = Histogram2D::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, *hist);
}

}  // namespace
}  // namespace ipa::aida
