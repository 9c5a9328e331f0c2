#include "aida/histogram2d.hpp"

#include <algorithm>
#include <cmath>

namespace ipa::aida {

Histogram2D::Histogram2D(std::string title, Axis x_axis, Axis y_axis)
    : title_(std::move(title)), x_axis_(x_axis), y_axis_(y_axis) {
  const std::size_t cells =
      (static_cast<std::size_t>(x_axis.bins()) + 2) * (static_cast<std::size_t>(y_axis.bins()) + 2);
  sumw_.assign(cells, 0.0);
  sumw2_.assign(cells, 0.0);
}

Result<Histogram2D> Histogram2D::create(std::string title, int x_bins, double x_lo, double x_hi,
                                        int y_bins, double y_lo, double y_hi) {
  IPA_ASSIGN_OR_RETURN(const Axis xa, Axis::create(x_bins, x_lo, x_hi));
  IPA_ASSIGN_OR_RETURN(const Axis ya, Axis::create(y_bins, y_lo, y_hi));
  return Histogram2D(std::move(title), xa, ya);
}

void Histogram2D::fill(double x, double y, double weight) {
  const int ix = x_axis_.index(x);
  const int iy = y_axis_.index(y);
  const std::size_t s = slot(ix, iy);
  sumw_[s] += weight;
  sumw2_[s] += weight * weight;
  ++entries_;
  if (ix >= 0 && iy >= 0) {
    sumwx_ += weight * x;
    sumwx2_ += weight * x * x;
    sumwy_ += weight * y;
    sumwy2_ += weight * y * y;
    in_range_sumw_ += weight;
  }
}

void Histogram2D::fill_n(std::span<const double> xs, std::span<const double> ys, double weight) {
  const std::size_t n = std::min(xs.size(), ys.size());
  for (std::size_t i = 0; i < n; ++i) fill(xs[i], ys[i], weight);
}

void Histogram2D::reset() {
  std::fill(sumw_.begin(), sumw_.end(), 0.0);
  std::fill(sumw2_.begin(), sumw2_.end(), 0.0);
  entries_ = 0;
  sumwx_ = sumwx2_ = sumwy_ = sumwy2_ = in_range_sumw_ = 0;
}

double Histogram2D::bin_error(int ix, int iy) const { return std::sqrt(sumw2_[slot(ix, iy)]); }

double Histogram2D::sum_all_height() const {
  double total = 0;
  for (const double w : sumw_) total += w;
  return total;
}

double Histogram2D::mean_x() const { return in_range_sumw_ > 0 ? sumwx_ / in_range_sumw_ : 0; }
double Histogram2D::mean_y() const { return in_range_sumw_ > 0 ? sumwy_ / in_range_sumw_ : 0; }

double Histogram2D::rms_x() const {
  if (in_range_sumw_ <= 0) return 0;
  const double m = mean_x();
  const double var = sumwx2_ / in_range_sumw_ - m * m;
  return var > 0 ? std::sqrt(var) : 0;
}

double Histogram2D::rms_y() const {
  if (in_range_sumw_ <= 0) return 0;
  const double m = mean_y();
  const double var = sumwy2_ / in_range_sumw_ - m * m;
  return var > 0 ? std::sqrt(var) : 0;
}

void Histogram2D::scale(double factor) {
  for (double& w : sumw_) w *= factor;
  for (double& w2 : sumw2_) w2 *= factor * factor;
  sumwx_ *= factor;
  sumwx2_ *= factor;
  sumwy_ *= factor;
  sumwy2_ *= factor;
  in_range_sumw_ *= factor;
}

Status Histogram2D::merge(const Histogram2D& other) {
  if (!(x_axis_ == other.x_axis_) || !(y_axis_ == other.y_axis_)) {
    return failed_precondition("histogram2d: incompatible axes for '" + title_ + "'");
  }
  for (std::size_t s = 0; s < sumw_.size(); ++s) {
    sumw_[s] += other.sumw_[s];
    sumw2_[s] += other.sumw2_[s];
  }
  entries_ += other.entries_;
  sumwx_ += other.sumwx_;
  sumwx2_ += other.sumwx2_;
  sumwy_ += other.sumwy_;
  sumwy2_ += other.sumwy2_;
  in_range_sumw_ += other.in_range_sumw_;
  return Status::ok();
}

void Histogram2D::encode(ser::Writer& w) const {
  w.string(title_);
  x_axis_.encode(w);
  y_axis_.encode(w);
  w.string_map(annotation_);
  w.vector(sumw_, [](ser::Writer& ww, double v) { ww.f64(v); });
  w.vector(sumw2_, [](ser::Writer& ww, double v) { ww.f64(v); });
  w.varint(entries_);
  w.f64(sumwx_);
  w.f64(sumwx2_);
  w.f64(sumwy_);
  w.f64(sumwy2_);
  w.f64(in_range_sumw_);
}

Result<Histogram2D> Histogram2D::decode(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(std::string title, r.string());
  IPA_ASSIGN_OR_RETURN(const Axis xa, Axis::decode(r));
  IPA_ASSIGN_OR_RETURN(const Axis ya, Axis::decode(r));
  // sumw_ and sumw2_ each carry (x bins + 2) * (y bins + 2) doubles.
  const std::uint64_t cells = (static_cast<std::uint64_t>(xa.bins()) + 2) *
                              (static_cast<std::uint64_t>(ya.bins()) + 2);
  IPA_RETURN_IF_ERROR(r.check_fits(2 * cells, sizeof(double), "histogram2d"));
  Histogram2D hist(std::move(title), xa, ya);
  IPA_ASSIGN_OR_RETURN(hist.annotation_, r.string_map());
  IPA_RETURN_IF_ERROR(r.f64_vector_into(hist.sumw_, "histogram2d: cell array size mismatch"));
  IPA_RETURN_IF_ERROR(r.f64_vector_into(hist.sumw2_, "histogram2d: cell array size mismatch"));
  IPA_ASSIGN_OR_RETURN(hist.entries_, r.varint());
  IPA_ASSIGN_OR_RETURN(hist.sumwx_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.sumwx2_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.sumwy_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.sumwy2_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.in_range_sumw_, r.f64());
  return hist;
}

}  // namespace ipa::aida
