// Fixed-binning axis shared by the AIDA-style histogram classes.
//
// Bin convention follows AIDA: in-range bins are 0..bins()-1, with
// kUnderflow / kOverflow pseudo-indices for out-of-range coordinates.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.hpp"
#include "serialize/serialize.hpp"

namespace ipa::aida {

inline constexpr int kUnderflow = -2;
inline constexpr int kOverflow = -1;

class Axis {
 public:
  Axis() = default;
  Axis(int bins, double lower, double upper) : bins_(bins), lower_(lower), upper_(upper) {}

  static Result<Axis> create(int bins, double lower, double upper) {
    if (bins <= 0) return invalid_argument("axis: bins must be > 0");
    if (!(lower < upper)) return invalid_argument("axis: lower must be < upper");
    return Axis(bins, lower, upper);
  }

  int bins() const { return bins_; }
  double lower() const { return lower_; }
  double upper() const { return upper_; }
  double bin_width() const { return (upper_ - lower_) / bins_; }

  /// Coordinate -> bin index (kUnderflow/kOverflow outside; NaN counts as
  /// underflow so it is never silently dropped).
  int index(double x) const {
    if (std::isnan(x) || x < lower_) return kUnderflow;
    if (x >= upper_) return kOverflow;
    const int i = static_cast<int>((x - lower_) / bin_width());
    return i >= bins_ ? bins_ - 1 : i;  // guards the x == upper-epsilon edge
  }

  double bin_lower(int i) const { return lower_ + i * bin_width(); }
  double bin_upper(int i) const { return lower_ + (i + 1) * bin_width(); }
  double bin_center(int i) const { return lower_ + (i + 0.5) * bin_width(); }

  /// Axes must be identical for histogram merging.
  friend bool operator==(const Axis& a, const Axis& b) = default;

  void encode(ser::Writer& w) const {
    w.svarint(bins_);
    w.f64(lower_);
    w.f64(upper_);
  }
  static Result<Axis> decode(ser::Reader& r) {
    IPA_ASSIGN_OR_RETURN(const std::int64_t bins, r.svarint());
    IPA_ASSIGN_OR_RETURN(const double lower, r.f64());
    IPA_ASSIGN_OR_RETURN(const double upper, r.f64());
    if (bins <= 0 || bins > std::numeric_limits<int>::max()) {
      return data_loss("axis: bin count " + std::to_string(bins) + " out of range");
    }
    return create(static_cast<int>(bins), lower, upper);
  }

 private:
  int bins_ = 1;
  double lower_ = 0.0;
  double upper_ = 1.0;
};

}  // namespace ipa::aida
