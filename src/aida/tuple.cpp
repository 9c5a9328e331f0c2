#include "aida/tuple.hpp"

namespace ipa::aida {

Tuple::Tuple(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

Status Tuple::fill(std::vector<double> row) {
  if (columns_.empty()) return invalid_argument("tuple: '" + title_ + "' has no columns");
  if (row.size() != columns_.size()) {
    return invalid_argument("tuple: row width " + std::to_string(row.size()) +
                            " != column count " + std::to_string(columns_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::ok();
}

Result<std::size_t> Tuple::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return not_found("tuple: no column '" + std::string(name) + "'");
}

Result<std::vector<double>> Tuple::column(std::string_view name) const {
  IPA_ASSIGN_OR_RETURN(const std::size_t index, column_index(name));
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[index]);
  return out;
}

Status Tuple::merge(const Tuple& other) {
  if (columns_ != other.columns_) {
    return failed_precondition("tuple: column schema mismatch for '" + title_ + "'");
  }
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  return Status::ok();
}

void Tuple::encode(ser::Writer& w) const {
  w.string(title_);
  w.vector(columns_, [](ser::Writer& ww, const std::string& c) { ww.string(c); });
  w.string_map(annotation_);
  w.varint(rows_.size());
  for (const auto& row : rows_) {
    for (const double v : row) w.f64(v);
  }
}

Result<Tuple> Tuple::decode(ser::Reader& r) {
  Tuple tuple;
  IPA_ASSIGN_OR_RETURN(tuple.title_, r.string());
  {
    auto columns = r.vector<std::string>([](ser::Reader& rr) { return rr.string(); });
    IPA_RETURN_IF_ERROR(columns.status());
    tuple.columns_ = std::move(*columns);
  }
  IPA_ASSIGN_OR_RETURN(tuple.annotation_, r.string_map());
  IPA_ASSIGN_OR_RETURN(const std::uint64_t row_count, r.varint());
  const std::size_t width = tuple.columns_.size();
  // Rows are width doubles each; a column-less tuple holds no rows (fill()
  // refuses them), so a nonzero count there has no bytes to bound it.
  if (width == 0 && row_count != 0) return data_loss("tuple: rows without columns");
  if (width != 0) IPA_RETURN_IF_ERROR(r.check_fits(row_count, width * sizeof(double), "tuple"));
  tuple.rows_.reserve(static_cast<std::size_t>(row_count));
  for (std::uint64_t i = 0; i < row_count; ++i) {
    std::vector<double> row(width);
    for (double& v : row) {
      IPA_ASSIGN_OR_RETURN(v, r.f64());
    }
    tuple.rows_.push_back(std::move(row));
  }
  return tuple;
}

}  // namespace ipa::aida
