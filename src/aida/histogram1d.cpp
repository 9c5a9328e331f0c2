#include "aida/histogram1d.hpp"

#include <algorithm>
#include <cmath>

namespace ipa::aida {

Histogram1D::Histogram1D(std::string title, Axis axis)
    : title_(std::move(title)),
      axis_(axis),
      sumw_(static_cast<std::size_t>(axis.bins()) + 2, 0.0),
      sumw2_(static_cast<std::size_t>(axis.bins()) + 2, 0.0) {}

Result<Histogram1D> Histogram1D::create(std::string title, int bins, double lower, double upper) {
  IPA_ASSIGN_OR_RETURN(const Axis axis, Axis::create(bins, lower, upper));
  return Histogram1D(std::move(title), axis);
}

void Histogram1D::fill(double x, double weight) {
  const int i = axis_.index(x);
  const std::size_t s = slot(i);
  sumw_[s] += weight;
  sumw2_[s] += weight * weight;
  ++entries_;
  if (i >= 0) {
    sumwx_ += weight * x;
    sumwx2_ += weight * x * x;
    in_range_sumw_ += weight;
  }
}

void Histogram1D::fill_n(std::span<const double> xs, double weight) {
  for (const double x : xs) fill(x, weight);
}

void Histogram1D::fill_n(std::span<const double> xs, std::span<const double> weights) {
  const std::size_t n = std::min(xs.size(), weights.size());
  for (std::size_t i = 0; i < n; ++i) fill(xs[i], weights[i]);
}

void Histogram1D::reset() {
  std::fill(sumw_.begin(), sumw_.end(), 0.0);
  std::fill(sumw2_.begin(), sumw2_.end(), 0.0);
  entries_ = 0;
  sumwx_ = sumwx2_ = in_range_sumw_ = 0;
}

double Histogram1D::bin_error(int i) const { return std::sqrt(sumw2_[slot(i)]); }

double Histogram1D::sum_height() const {
  double total = 0;
  for (std::size_t s = 1; s + 1 < sumw_.size(); ++s) total += sumw_[s];
  return total;
}

double Histogram1D::sum_all_height() const {
  double total = 0;
  for (const double w : sumw_) total += w;
  return total;
}

double Histogram1D::mean() const {
  return in_range_sumw_ > 0 ? sumwx_ / in_range_sumw_ : 0.0;
}

double Histogram1D::rms() const {
  if (in_range_sumw_ <= 0) return 0.0;
  const double m = mean();
  const double var = sumwx2_ / in_range_sumw_ - m * m;
  return var > 0 ? std::sqrt(var) : 0.0;
}

int Histogram1D::max_bin() const {
  int best = 0;
  for (int i = 1; i < axis_.bins(); ++i) {
    if (bin_height(i) > bin_height(best)) best = i;
  }
  return best;
}

void Histogram1D::scale(double factor) {
  for (double& w : sumw_) w *= factor;
  for (double& w2 : sumw2_) w2 *= factor * factor;
  sumwx_ *= factor;
  sumwx2_ *= factor;
  in_range_sumw_ *= factor;
}

Status Histogram1D::merge(const Histogram1D& other) {
  if (!(axis_ == other.axis_)) {
    return failed_precondition("histogram1d: incompatible axes for '" + title_ + "'");
  }
  for (std::size_t s = 0; s < sumw_.size(); ++s) {
    sumw_[s] += other.sumw_[s];
    sumw2_[s] += other.sumw2_[s];
  }
  entries_ += other.entries_;
  sumwx_ += other.sumwx_;
  sumwx2_ += other.sumwx2_;
  in_range_sumw_ += other.in_range_sumw_;
  return Status::ok();
}

void Histogram1D::encode(ser::Writer& w) const {
  w.string(title_);
  axis_.encode(w);
  w.string_map(annotation_);
  w.vector(sumw_, [](ser::Writer& ww, double v) { ww.f64(v); });
  w.vector(sumw2_, [](ser::Writer& ww, double v) { ww.f64(v); });
  w.varint(entries_);
  w.f64(sumwx_);
  w.f64(sumwx2_);
  w.f64(in_range_sumw_);
}

Result<Histogram1D> Histogram1D::decode(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(std::string title, r.string());
  IPA_ASSIGN_OR_RETURN(const Axis axis, Axis::decode(r));
  // sumw_ and sumw2_ each carry bins + 2 doubles on the wire.
  IPA_RETURN_IF_ERROR(r.check_fits(2 * (static_cast<std::uint64_t>(axis.bins()) + 2),
                                   sizeof(double), "histogram1d"));
  Histogram1D hist(std::move(title), axis);
  IPA_ASSIGN_OR_RETURN(hist.annotation_, r.string_map());
  IPA_RETURN_IF_ERROR(r.f64_vector_into(hist.sumw_, "histogram1d: bin array size mismatch"));
  IPA_RETURN_IF_ERROR(r.f64_vector_into(hist.sumw2_, "histogram1d: bin array size mismatch"));
  IPA_ASSIGN_OR_RETURN(hist.entries_, r.varint());
  IPA_ASSIGN_OR_RETURN(hist.sumwx_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.sumwx2_, r.f64());
  IPA_ASSIGN_OR_RETURN(hist.in_range_sumw_, r.f64());
  return hist;
}

}  // namespace ipa::aida
