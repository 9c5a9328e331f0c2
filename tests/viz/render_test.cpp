#include "viz/render.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/rng.hpp"
#include "xml/xml.hpp"

namespace ipa::viz {
namespace {

aida::Histogram1D gauss_hist(int bins = 40) {
  auto hist = aida::Histogram1D::create("test gauss", bins, -5, 5);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) hist->fill(rng.normal());
  return std::move(*hist);
}

TEST(Ascii, HistogramShowsBarsAndStats) {
  const std::string out = ascii_histogram(gauss_hist());
  EXPECT_NE(out.find("test gauss"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("entries=5000"), std::string::npos);
  EXPECT_NE(out.find("mean="), std::string::npos);
  // One row per (possibly rebinned) bin plus title and stats.
  const auto lines = std::count(out.begin(), out.end(), '\n');
  EXPECT_GE(lines, 10);
}

TEST(Ascii, RebinsWideHistograms) {
  auto hist = aida::Histogram1D::create("wide", 500, 0, 1);
  hist->fill(0.5);
  const std::string out = ascii_histogram(*hist, {.width = 40, .max_rows = 20, .show_stats = false});
  const auto lines = std::count(out.begin(), out.end(), '\n');
  EXPECT_LE(lines, 22);
}

TEST(Ascii, EmptyHistogramIsSafe) {
  auto hist = aida::Histogram1D::create("empty", 10, 0, 1);
  const std::string out = ascii_histogram(*hist);
  EXPECT_NE(out.find("entries=0"), std::string::npos);
}

TEST(Ascii, HeatmapRendersGrid) {
  auto hist = aida::Histogram2D::create("map", 20, 0, 1, 20, 0, 1);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) hist->fill(rng.uniform(), rng.uniform());
  const std::string out = ascii_heatmap(*hist);
  EXPECT_NE(out.find("map"), std::string::npos);
  EXPECT_NE(out.find("entries=2000"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(Ascii, ProgressBar) {
  EXPECT_EQ(ascii_progress(0, 100, 10), "[..........]   0.0% 0/100");
  EXPECT_EQ(ascii_progress(50, 100, 10), "[#####.....]  50.0% 50/100");
  EXPECT_EQ(ascii_progress(100, 100, 10), "[##########] 100.0% 100/100");
  // Degenerate totals do not divide by zero.
  EXPECT_NE(ascii_progress(5, 0, 10).find("0.0%"), std::string::npos);
}

TEST(Svg, HistogramIsWellFormedXml) {
  const std::string svg = svg_histogram(gauss_hist());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("test gauss"), std::string::npos);
  // Must parse as XML (proves escaping and nesting are correct).
  const auto doc = xml::parse(svg);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc->name(), "svg");
}

TEST(Svg, TitleIsEscaped) {
  auto hist = aida::Histogram1D::create("mass < 125 & \"tag\"", 5, 0, 1);
  hist->fill(0.5);
  const std::string svg = svg_histogram(*hist);
  EXPECT_TRUE(xml::parse(svg).is_ok());
}

TEST(Svg, ProfileRendersPointsWithErrors) {
  auto profile = aida::Profile1D::create("prof", 10, 0, 10);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    profile->fill(x, x + rng.normal(0, 0.5));
  }
  const std::string svg = svg_profile(*profile);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_TRUE(xml::parse(svg).is_ok());
}

TEST(Svg, ExportTreeWritesFiles) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("ipa-viz-export-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  aida::Tree tree;
  tree.put("/higgs/mass", gauss_hist());
  tree.put("/qc/ntrk", gauss_hist());
  tree.put("/raw/tuple", aida::Tuple("t", {"x"}));  // skipped (not 1-D hist)

  auto written = export_tree_svg(tree, dir.string());
  ASSERT_TRUE(written.is_ok()) << written.status().to_string();
  EXPECT_EQ(*written, 2);
  EXPECT_TRUE(std::filesystem::exists(dir / "higgs_mass.svg"));
  EXPECT_TRUE(std::filesystem::exists(dir / "qc_ntrk.svg"));
  std::filesystem::remove_all(dir);
}

TEST(Svg, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(write_file("/nonexistent-dir/x.svg", "content").is_ok());
}

}  // namespace
}  // namespace ipa::viz
