#include "aida/profile1d.hpp"

#include <algorithm>
#include <cmath>

namespace ipa::aida {

Profile1D::Profile1D(std::string title, Axis axis) : title_(std::move(title)), axis_(axis) {
  const std::size_t slots = static_cast<std::size_t>(axis.bins()) + 2;
  sumw_.assign(slots, 0.0);
  sumw2_.assign(slots, 0.0);
  sumwy_.assign(slots, 0.0);
  sumwy2_.assign(slots, 0.0);
}

Result<Profile1D> Profile1D::create(std::string title, int bins, double lower, double upper) {
  IPA_ASSIGN_OR_RETURN(const Axis axis, Axis::create(bins, lower, upper));
  return Profile1D(std::move(title), axis);
}

void Profile1D::fill(double x, double y, double weight) {
  const std::size_t s = slot(axis_.index(x));
  sumw_[s] += weight;
  sumw2_[s] += weight * weight;
  sumwy_[s] += weight * y;
  sumwy2_[s] += weight * y * y;
  ++entries_;
}

void Profile1D::fill_n(std::span<const double> xs, std::span<const double> ys, double weight) {
  const std::size_t n = std::min(xs.size(), ys.size());
  for (std::size_t i = 0; i < n; ++i) fill(xs[i], ys[i], weight);
}

void Profile1D::reset() {
  std::fill(sumw_.begin(), sumw_.end(), 0.0);
  std::fill(sumw2_.begin(), sumw2_.end(), 0.0);
  std::fill(sumwy_.begin(), sumwy_.end(), 0.0);
  std::fill(sumwy2_.begin(), sumwy2_.end(), 0.0);
  entries_ = 0;
}

double Profile1D::bin_mean(int i) const {
  const std::size_t s = slot(i);
  return sumw_[s] > 0 ? sumwy_[s] / sumw_[s] : 0.0;
}

double Profile1D::bin_rms(int i) const {
  const std::size_t s = slot(i);
  if (sumw_[s] <= 0) return 0.0;
  const double mean = sumwy_[s] / sumw_[s];
  const double var = sumwy2_[s] / sumw_[s] - mean * mean;
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Profile1D::bin_error(int i) const {
  const std::size_t s = slot(i);
  if (sumw_[s] <= 0 || sumw2_[s] <= 0) return 0.0;
  // Effective entries n_eff = (sum w)^2 / sum w^2.
  const double n_eff = sumw_[s] * sumw_[s] / sumw2_[s];
  return n_eff > 0 ? bin_rms(i) / std::sqrt(n_eff) : 0.0;
}

Status Profile1D::merge(const Profile1D& other) {
  if (!(axis_ == other.axis_)) {
    return failed_precondition("profile1d: incompatible axes for '" + title_ + "'");
  }
  for (std::size_t s = 0; s < sumw_.size(); ++s) {
    sumw_[s] += other.sumw_[s];
    sumw2_[s] += other.sumw2_[s];
    sumwy_[s] += other.sumwy_[s];
    sumwy2_[s] += other.sumwy2_[s];
  }
  entries_ += other.entries_;
  return Status::ok();
}

void Profile1D::encode(ser::Writer& w) const {
  w.string(title_);
  axis_.encode(w);
  w.string_map(annotation_);
  const auto write_vec = [&w](const std::vector<double>& vec) {
    w.vector(vec, [](ser::Writer& ww, double v) { ww.f64(v); });
  };
  write_vec(sumw_);
  write_vec(sumw2_);
  write_vec(sumwy_);
  write_vec(sumwy2_);
  w.varint(entries_);
}

Result<Profile1D> Profile1D::decode(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(std::string title, r.string());
  IPA_ASSIGN_OR_RETURN(const Axis axis, Axis::decode(r));
  // Four per-bin arrays of bins + 2 doubles each follow.
  IPA_RETURN_IF_ERROR(r.check_fits(4 * (static_cast<std::uint64_t>(axis.bins()) + 2),
                                   sizeof(double), "profile1d"));
  Profile1D profile(std::move(title), axis);
  IPA_ASSIGN_OR_RETURN(profile.annotation_, r.string_map());
  for (std::vector<double>* dst :
       {&profile.sumw_, &profile.sumw2_, &profile.sumwy_, &profile.sumwy2_}) {
    IPA_RETURN_IF_ERROR(r.f64_vector_into(*dst, "profile1d: size mismatch"));
  }
  IPA_ASSIGN_OR_RETURN(profile.entries_, r.varint());
  return profile;
}

}  // namespace ipa::aida
