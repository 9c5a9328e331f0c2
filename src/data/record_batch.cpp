#include "data/record_batch.hpp"

#include <algorithm>

namespace ipa::data {
namespace {

// Wire tags shared with Value::encode.
constexpr std::uint8_t kTagInt = 0;
constexpr std::uint8_t kTagReal = 1;
constexpr std::uint8_t kTagStr = 2;
constexpr std::uint8_t kTagVec = 3;

ColumnKind kind_of(const Value& value) {
  if (value.is_int()) return ColumnKind::kInt;
  if (value.is_real()) return ColumnKind::kReal;
  if (value.is_str()) return ColumnKind::kStr;
  return ColumnKind::kVec;
}

}  // namespace

RecordBatch::RecordBatch(SchemaPtr schema)
    : schema_(schema ? std::move(schema) : std::make_shared<Schema>()) {}

void RecordBatch::clear() {
  rows_ = 0;
  indices_.clear();
  overflow_.clear();
  for (Column& column : columns_) {
    column.mask.clear();
    column.ints.clear();
    column.reals.clear();
    column.strs.clear();
    column.vec_values.clear();
    column.vec_offsets.clear();
    if (column.kind == ColumnKind::kVec) column.vec_offsets.push_back(0);
  }
}

RecordBatch::Column& RecordBatch::column_for_slot(int slot) {
  while (columns_.size() <= static_cast<std::size_t>(slot)) {
    Column column;
    column.kind = schema_->kind(static_cast<int>(columns_.size()));
    // Backfill nulls for rows closed before this field first appeared.
    column.mask.assign(rows_, kAbsent);
    switch (column.kind) {
      case ColumnKind::kInt: column.ints.assign(rows_, 0); break;
      case ColumnKind::kReal: column.reals.assign(rows_, 0.0); break;
      case ColumnKind::kStr: column.strs.assign(rows_, std::string()); break;
      case ColumnKind::kVec: column.vec_offsets.assign(rows_ + 1, 0); break;
    }
    columns_.push_back(std::move(column));
  }
  return columns_[static_cast<std::size_t>(slot)];
}

void RecordBatch::push_null(Column& column) {
  column.mask.push_back(kAbsent);
  switch (column.kind) {
    case ColumnKind::kInt: column.ints.push_back(0); break;
    case ColumnKind::kReal: column.reals.push_back(0.0); break;
    case ColumnKind::kStr: column.strs.emplace_back(); break;
    case ColumnKind::kVec: column.vec_offsets.push_back(column.vec_values.size()); break;
  }
}

void RecordBatch::finish_row() {
  for (Column& column : columns_) {
    if (column.mask.size() <= rows_) push_null(column);
  }
}

void RecordBatch::set_cell(int slot, std::size_t row, const Value& value) {
  Column& column = column_for_slot(slot);
  if (column.mask.size() > row) return;  // duplicate field name: first wins
  const ColumnKind value_kind = kind_of(value);
  if (value_kind != column.kind) {
    // Kind conflict: keep the exact value in the overflow side-table and a
    // null placeholder in the column so rows stay aligned.
    push_null(column);
    column.mask.back() = kOverflow;
    overflow_.push_back(OverflowCell{static_cast<std::uint32_t>(row),
                                     static_cast<std::int32_t>(slot), value});
    return;
  }
  column.mask.push_back(kPresent);
  switch (column.kind) {
    case ColumnKind::kInt: column.ints.push_back(value.as_int()); break;
    case ColumnKind::kReal: column.reals.push_back(value.as_real()); break;
    case ColumnKind::kStr: column.strs.push_back(value.as_str()); break;
    case ColumnKind::kVec: {
      const Value::RealVec& vec = value.as_vec();
      column.vec_values.insert(column.vec_values.end(), vec.begin(), vec.end());
      column.vec_offsets.push_back(column.vec_values.size());
      break;
    }
  }
}

void RecordBatch::append(const Record& record) {
  indices_.push_back(record.index());
  for (const auto& [name, value] : record.fields()) {
    const int slot = schema_->intern(name, kind_of(value));
    set_cell(slot, rows_, value);
  }
  finish_row();
  ++rows_;
}

Status RecordBatch::append_encoded(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(const std::uint64_t index, r.varint());
  IPA_ASSIGN_OR_RETURN(const std::uint64_t count, r.varint());
  if (count > 4096) return data_loss("record batch: implausible field count");
  indices_.push_back(index);
  for (std::uint64_t i = 0; i < count; ++i) {
    IPA_ASSIGN_OR_RETURN(const std::string_view name, r.string_view());
    IPA_ASSIGN_OR_RETURN(const std::uint8_t tag, r.u8());
    if (tag > kTagVec) return data_loss("record batch: unknown value tag");
    const auto kind = static_cast<ColumnKind>(tag);
    int slot;
    if (i < layout_hint_.size() && schema_->name(layout_hint_[i]) == name) {
      slot = layout_hint_[i];
    } else {
      slot = schema_->intern(name, kind);
      if (i < layout_hint_.size()) {
        layout_hint_[i] = slot;
      } else {
        layout_hint_.push_back(slot);  // i grows by one per field, so i == size()
      }
    }
    Column& column = column_for_slot(slot);
    if (column.mask.size() > rows_) {
      return data_loss("record batch: duplicate field '" + std::string(name) + "'");
    }
    const bool direct = column.kind == kind;
    switch (tag) {
      case kTagInt: {
        IPA_ASSIGN_OR_RETURN(const std::int64_t v, r.svarint());
        if (direct) {
          column.mask.push_back(kPresent);
          column.ints.push_back(v);
        } else {
          set_cell(slot, rows_, Value(v));
        }
        break;
      }
      case kTagReal: {
        IPA_ASSIGN_OR_RETURN(const double v, r.f64());
        if (direct) {
          column.mask.push_back(kPresent);
          column.reals.push_back(v);
        } else {
          set_cell(slot, rows_, Value(v));
        }
        break;
      }
      case kTagStr: {
        IPA_ASSIGN_OR_RETURN(std::string v, r.string());
        if (direct) {
          column.mask.push_back(kPresent);
          column.strs.push_back(std::move(v));
        } else {
          set_cell(slot, rows_, Value(std::move(v)));
        }
        break;
      }
      case kTagVec: {
        IPA_ASSIGN_OR_RETURN(const std::uint64_t n, r.varint());
        IPA_RETURN_IF_ERROR(r.check_fits(n, sizeof(double), "record batch vector"));
        if (direct) {
          const std::size_t old = column.vec_values.size();
          column.vec_values.resize(old + static_cast<std::size_t>(n));
          IPA_RETURN_IF_ERROR(r.f64_array(column.vec_values.data() + old,
                                          static_cast<std::size_t>(n)));
          column.mask.push_back(kPresent);
          column.vec_offsets.push_back(column.vec_values.size());
        } else {
          Value::RealVec vec(static_cast<std::size_t>(n));
          IPA_RETURN_IF_ERROR(r.f64_array(vec.data(), vec.size()));
          set_cell(slot, rows_, Value(std::move(vec)));
        }
        break;
      }
    }
  }
  finish_row();
  ++rows_;
  return Status::ok();
}

const Value* RecordBatch::overflow_at(int slot, std::size_t row) const {
  for (const OverflowCell& cell : overflow_) {
    if (cell.row == row && cell.slot == slot) return &cell.value;
  }
  return nullptr;
}

RecordBatch::CellKind RecordBatch::cell_kind(int slot, std::size_t row) const {
  if (slot < 0 || static_cast<std::size_t>(slot) >= columns_.size()) return CellKind::kNull;
  const Column& column = columns_[static_cast<std::size_t>(slot)];
  if (row >= column.mask.size() || column.mask[row] == kAbsent) return CellKind::kNull;
  if (column.mask[row] == kOverflow) {
    const Value* value = overflow_at(slot, row);
    if (value == nullptr) return CellKind::kNull;
    switch (kind_of(*value)) {
      case ColumnKind::kInt: return CellKind::kInt;
      case ColumnKind::kReal: return CellKind::kReal;
      case ColumnKind::kStr: return CellKind::kStr;
      case ColumnKind::kVec: return CellKind::kVec;
    }
  }
  switch (column.kind) {
    case ColumnKind::kInt: return CellKind::kInt;
    case ColumnKind::kReal: return CellKind::kReal;
    case ColumnKind::kStr: return CellKind::kStr;
    case ColumnKind::kVec: return CellKind::kVec;
  }
  return CellKind::kNull;
}

std::int64_t RecordBatch::cell_int(int slot, std::size_t row) const {
  const Column& column = columns_[static_cast<std::size_t>(slot)];
  if (column.mask[row] == kOverflow) return overflow_at(slot, row)->as_int();
  return column.ints[row];
}

double RecordBatch::cell_real(int slot, std::size_t row) const {
  const Column& column = columns_[static_cast<std::size_t>(slot)];
  if (column.mask[row] == kOverflow) return overflow_at(slot, row)->as_real();
  return column.reals[row];
}

const std::string& RecordBatch::cell_str(int slot, std::size_t row) const {
  const Column& column = columns_[static_cast<std::size_t>(slot)];
  if (column.mask[row] == kOverflow) return overflow_at(slot, row)->as_str();
  return column.strs[row];
}

std::span<const double> RecordBatch::cell_vec(int slot, std::size_t row) const {
  const Column& column = columns_[static_cast<std::size_t>(slot)];
  if (column.mask[row] == kOverflow) {
    const Value::RealVec& vec = overflow_at(slot, row)->as_vec();
    return {vec.data(), vec.size()};
  }
  const std::size_t begin = static_cast<std::size_t>(column.vec_offsets[row]);
  const std::size_t end = static_cast<std::size_t>(column.vec_offsets[row + 1]);
  return {column.vec_values.data() + begin, end - begin};
}

bool RecordBatch::cell_number(int slot, std::size_t row, double* out) const {
  switch (cell_kind(slot, row)) {
    case CellKind::kReal: *out = cell_real(slot, row); return true;
    case CellKind::kInt: *out = static_cast<double>(cell_int(slot, row)); return true;
    default: return false;
  }
}

bool RecordBatch::cell_value(int slot, std::size_t row, Value* out) const {
  switch (cell_kind(slot, row)) {
    case CellKind::kNull: return false;
    case CellKind::kInt: *out = Value(cell_int(slot, row)); return true;
    case CellKind::kReal: *out = Value(cell_real(slot, row)); return true;
    case CellKind::kStr: *out = Value(cell_str(slot, row)); return true;
    case CellKind::kVec: {
      const auto span = cell_vec(slot, row);
      *out = Value(Value::RealVec(span.begin(), span.end()));
      return true;
    }
  }
  return false;
}

Record RecordBatch::to_record(std::size_t row) const {
  Record record(indices_[row]);
  Value value;
  for (std::size_t slot = 0; slot < columns_.size(); ++slot) {
    if (cell_value(static_cast<int>(slot), row, &value)) {
      record.set(schema_->name(static_cast<int>(slot)), std::move(value));
    }
  }
  return record;
}

std::vector<Record> RecordBatch::to_records() const {
  std::vector<Record> records;
  records.reserve(rows_);
  for (std::size_t row = 0; row < rows_; ++row) records.push_back(to_record(row));
  return records;
}

RecordBatch RecordBatch::from_records(const std::vector<Record>& records) {
  RecordBatch batch;
  for (const Record& record : records) batch.append(record);
  return batch;
}

void RecordBatch::encode(ser::Writer& w) const {
  schema_->encode(w);
  w.varint(rows_);
  for (const std::uint64_t index : indices_) w.varint(index);
  w.varint(columns_.size());
  for (const Column& column : columns_) {
    w.u8(static_cast<std::uint8_t>(column.kind));
    w.raw(column.mask.data(), column.mask.size());
    switch (column.kind) {
      case ColumnKind::kInt:
        for (const std::int64_t v : column.ints) w.svarint(v);
        break;
      case ColumnKind::kReal:
        w.f64_array(column.reals.data(), column.reals.size());
        break;
      case ColumnKind::kStr:
        for (const std::string& s : column.strs) w.string(s);
        break;
      case ColumnKind::kVec:
        w.varint(column.vec_values.size());
        w.f64_array(column.vec_values.data(), column.vec_values.size());
        for (const std::uint64_t off : column.vec_offsets) w.varint(off);
        break;
    }
  }
  w.varint(overflow_.size());
  for (const OverflowCell& cell : overflow_) {
    w.varint(cell.row);
    w.varint(static_cast<std::uint64_t>(cell.slot));
    cell.value.encode(w);
  }
}

Result<RecordBatch> RecordBatch::decode(ser::Reader& r) {
  auto schema = Schema::decode(r);
  IPA_RETURN_IF_ERROR(schema.status());
  RecordBatch batch(std::make_shared<Schema>(std::move(*schema)));
  IPA_ASSIGN_OR_RETURN(const std::uint64_t rows, r.varint());
  // Each row carries at least a one-byte index varint; every column below
  // re-checks its own per-row bytes before it is sized.
  IPA_RETURN_IF_ERROR(r.check_fits(rows, 1, "record batch rows"));
  batch.rows_ = static_cast<std::size_t>(rows);
  batch.indices_.reserve(batch.rows_);
  for (std::uint64_t i = 0; i < rows; ++i) {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t index, r.varint());
    batch.indices_.push_back(index);
  }
  IPA_ASSIGN_OR_RETURN(const std::uint64_t column_count, r.varint());
  if (column_count != batch.schema_->field_count()) {
    return data_loss("record batch: column/schema count mismatch");
  }
  for (std::uint64_t c = 0; c < column_count; ++c) {
    Column column;
    IPA_ASSIGN_OR_RETURN(const std::uint8_t kind, r.u8());
    if (kind > 3) return data_loss("record batch: bad column kind");
    column.kind = static_cast<ColumnKind>(kind);
    if (column.kind != batch.schema_->kind(static_cast<int>(c))) {
      return data_loss("record batch: column kind disagrees with schema");
    }
    IPA_RETURN_IF_ERROR(r.check_fits(batch.rows_, 1, "record batch mask"));
    column.mask.resize(batch.rows_);
    for (std::size_t i = 0; i < batch.rows_; ++i) {
      IPA_ASSIGN_OR_RETURN(column.mask[i], r.u8());
      if (column.mask[i] > kOverflow) return data_loss("record batch: bad mask byte");
    }
    switch (column.kind) {
      case ColumnKind::kInt:
        IPA_RETURN_IF_ERROR(r.check_fits(batch.rows_, 1, "record batch ints"));
        column.ints.resize(batch.rows_);
        for (std::size_t i = 0; i < batch.rows_; ++i) {
          IPA_ASSIGN_OR_RETURN(column.ints[i], r.svarint());
        }
        break;
      case ColumnKind::kReal:
        IPA_RETURN_IF_ERROR(r.check_fits(batch.rows_, sizeof(double), "record batch reals"));
        column.reals.resize(batch.rows_);
        IPA_RETURN_IF_ERROR(r.f64_array(column.reals.data(), column.reals.size()));
        break;
      case ColumnKind::kStr:
        IPA_RETURN_IF_ERROR(r.check_fits(batch.rows_, 1, "record batch strings"));
        column.strs.resize(batch.rows_);
        for (std::size_t i = 0; i < batch.rows_; ++i) {
          IPA_ASSIGN_OR_RETURN(column.strs[i], r.string());
        }
        break;
      case ColumnKind::kVec: {
        IPA_ASSIGN_OR_RETURN(const std::uint64_t values, r.varint());
        IPA_RETURN_IF_ERROR(r.check_fits(values, sizeof(double), "record batch vectors"));
        column.vec_values.resize(static_cast<std::size_t>(values));
        IPA_RETURN_IF_ERROR(r.f64_array(column.vec_values.data(), column.vec_values.size()));
        IPA_RETURN_IF_ERROR(r.check_fits(batch.rows_ + 1, 1, "record batch vector offsets"));
        column.vec_offsets.resize(batch.rows_ + 1);
        for (std::size_t i = 0; i <= batch.rows_; ++i) {
          IPA_ASSIGN_OR_RETURN(column.vec_offsets[i], r.varint());
          if (column.vec_offsets[i] > column.vec_values.size() ||
              (i > 0 && column.vec_offsets[i] < column.vec_offsets[i - 1])) {
            return data_loss("record batch: corrupt vector offsets");
          }
        }
        if (column.vec_offsets.back() != column.vec_values.size()) {
          return data_loss("record batch: vector offsets do not cover payload");
        }
        break;
      }
    }
    batch.columns_.push_back(std::move(column));
  }
  IPA_ASSIGN_OR_RETURN(const std::uint64_t overflow_count, r.varint());
  if (overflow_count > ser::Reader::kMaxFieldLen) {
    return data_loss("record batch: implausible overflow count");
  }
  for (std::uint64_t i = 0; i < overflow_count; ++i) {
    OverflowCell cell;
    IPA_ASSIGN_OR_RETURN(const std::uint64_t row, r.varint());
    IPA_ASSIGN_OR_RETURN(const std::uint64_t slot, r.varint());
    if (row >= batch.rows_ || slot >= batch.schema_->field_count()) {
      return data_loss("record batch: overflow cell out of range");
    }
    cell.row = static_cast<std::uint32_t>(row);
    cell.slot = static_cast<std::int32_t>(slot);
    auto value = Value::decode(r);
    IPA_RETURN_IF_ERROR(value.status());
    cell.value = std::move(*value);
    batch.overflow_.push_back(std::move(cell));
  }
  return batch;
}

std::size_t RecordBatch::encoded_size_hint() const {
  std::size_t size = 16;
  for (std::size_t slot = 0; slot < columns_.size(); ++slot) {
    const Column& column = columns_[slot];
    size += schema_->name(static_cast<int>(slot)).size() + 2 + column.mask.size();
    switch (column.kind) {
      case ColumnKind::kInt: size += column.ints.size() * 5; break;
      case ColumnKind::kReal: size += column.reals.size() * 8; break;
      case ColumnKind::kStr:
        for (const std::string& s : column.strs) size += s.size() + 2;
        break;
      case ColumnKind::kVec:
        size += column.vec_values.size() * 8 + column.vec_offsets.size() * 3;
        break;
    }
  }
  return size + overflow_.size() * 16;
}

}  // namespace ipa::data
