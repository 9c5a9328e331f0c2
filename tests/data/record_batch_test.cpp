#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "data/dataset.hpp"
#include "data/record_batch.hpp"
#include "data/schema.hpp"

namespace ipa::data {
namespace {

Record make_event(std::uint64_t index) {
  Record record(index);
  record.set("n", static_cast<std::int64_t>(index * 3));
  record.set("mass", 100.0 + static_cast<double>(index));
  record.set("tag", index % 2 == 0 ? "even" : "odd");
  record.set("px", Value::RealVec{1.0 * static_cast<double>(index), -2.5, 3.25});
  return record;
}

TEST(Schema, InternAssignsStableSlots) {
  Schema schema;
  EXPECT_EQ(schema.intern("a", ColumnKind::kReal), 0);
  EXPECT_EQ(schema.intern("b", ColumnKind::kInt), 1);
  EXPECT_EQ(schema.intern("a", ColumnKind::kReal), 0);  // already interned
  EXPECT_EQ(schema.slot_of("b"), 1);
  EXPECT_EQ(schema.slot_of("missing"), Schema::kNoSlot);
  EXPECT_EQ(schema.kind(0), ColumnKind::kReal);
  EXPECT_EQ(schema.field_count(), 2u);
}

TEST(Schema, VersionBumpsOnlyOnNewFields) {
  Schema schema;
  const std::uint64_t v0 = schema.version();
  schema.intern("x", ColumnKind::kReal);
  const std::uint64_t v1 = schema.version();
  EXPECT_GT(v1, v0);
  schema.intern("x", ColumnKind::kReal);
  EXPECT_EQ(schema.version(), v1);
}

TEST(Schema, EncodeDecodeRoundTrip) {
  Schema schema;
  schema.intern("energy", ColumnKind::kReal);
  schema.intern("count", ColumnKind::kInt);
  schema.intern("label", ColumnKind::kStr);
  schema.intern("p4", ColumnKind::kVec);
  ser::Writer w;
  schema.encode(w);
  ser::Reader r(w.data());
  auto back = Schema::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, schema);
  EXPECT_TRUE(r.at_end());
}

TEST(RecordBatch, RowRoundTripPreservesEverything) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 10; ++i) records.push_back(make_event(i));
  const RecordBatch batch = RecordBatch::from_records(records);
  EXPECT_EQ(batch.rows(), records.size());
  EXPECT_EQ(batch.to_records(), records);
}

TEST(RecordBatch, MissingFieldsBecomeNullCells) {
  Record full(0);
  full.set("a", 1.0);
  full.set("b", std::int64_t{2});
  Record partial(1);
  partial.set("a", 3.0);  // no "b"
  const RecordBatch batch = RecordBatch::from_records({full, partial});

  const int b = batch.schema().slot_of("b");
  ASSERT_NE(b, Schema::kNoSlot);
  EXPECT_EQ(batch.cell_kind(b, 0), RecordBatch::CellKind::kInt);
  EXPECT_EQ(batch.cell_kind(b, 1), RecordBatch::CellKind::kNull);

  const auto back = batch.to_records();
  EXPECT_EQ(back[0], full);
  EXPECT_EQ(back[1], partial);
}

TEST(RecordBatch, LateFieldBackfillsEarlierRows) {
  Record first(0);
  first.set("x", 1.0);
  Record second(1);
  second.set("x", 2.0);
  second.set("extra", "late");
  const RecordBatch batch = RecordBatch::from_records({first, second});
  const int extra = batch.schema().slot_of("extra");
  ASSERT_NE(extra, Schema::kNoSlot);
  EXPECT_EQ(batch.cell_kind(extra, 0), RecordBatch::CellKind::kNull);
  EXPECT_EQ(batch.cell_str(extra, 1), "late");
  EXPECT_EQ(batch.to_records(), (std::vector<Record>{first, second}));
}

TEST(RecordBatch, KindConflictsPreservedExactly) {
  // Row 0 establishes "x" as real; row 1 carries a string "x" (legal in the
  // row format) which must survive via the overflow side-table, not be
  // coerced or dropped.
  Record a(0);
  a.set("x", 1.5);
  Record b(1);
  b.set("x", "not a number");
  const RecordBatch batch = RecordBatch::from_records({a, b});
  const int x = batch.schema().slot_of("x");
  EXPECT_EQ(batch.cell_kind(x, 0), RecordBatch::CellKind::kReal);
  EXPECT_EQ(batch.cell_kind(x, 1), RecordBatch::CellKind::kStr);
  EXPECT_EQ(batch.cell_str(x, 1), "not a number");
  const auto back = batch.to_records();
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);
}

TEST(RecordBatch, CellNumberWidensIntsOnly) {
  Record record(0);
  record.set("i", std::int64_t{7});
  record.set("r", 2.5);
  record.set("s", "nope");
  const RecordBatch batch = RecordBatch::from_records({record});
  double out = -1;
  EXPECT_TRUE(batch.cell_number(batch.schema().slot_of("i"), 0, &out));
  EXPECT_DOUBLE_EQ(out, 7.0);
  EXPECT_TRUE(batch.cell_number(batch.schema().slot_of("r"), 0, &out));
  EXPECT_DOUBLE_EQ(out, 2.5);
  EXPECT_FALSE(batch.cell_number(batch.schema().slot_of("s"), 0, &out));
  EXPECT_FALSE(batch.cell_number(Schema::kNoSlot, 0, &out));
}

TEST(RecordBatch, AppendEncodedMatchesRowAppend) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 8; ++i) records.push_back(make_event(i));

  RecordBatch from_rows = RecordBatch::from_records(records);
  RecordBatch from_wire;
  for (const Record& record : records) {
    ser::Writer w;
    record.encode(w);
    ser::Reader r(w.data());
    ASSERT_TRUE(from_wire.append_encoded(r).is_ok());
    EXPECT_TRUE(r.at_end());
  }
  EXPECT_EQ(from_wire.rows(), from_rows.rows());
  EXPECT_EQ(from_wire.to_records(), from_rows.to_records());
}

TEST(RecordBatch, AppendEncodedRejectsDuplicateFields) {
  ser::Writer w;
  w.varint(0);  // index
  w.varint(2);  // field count
  w.string("x");
  Value(1.0).encode(w);
  w.string("x");
  Value(2.0).encode(w);
  ser::Reader r(w.data());
  RecordBatch batch;
  const Status status = batch.append_encoded(r);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("duplicate"), std::string::npos);
}

TEST(RecordBatch, EncodeDecodeRoundTrip) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 6; ++i) records.push_back(make_event(i));
  Record conflict(6);
  conflict.set("mass", "heavy");  // overflow cell rides along
  records.push_back(conflict);

  const RecordBatch batch = RecordBatch::from_records(records);
  ser::Writer w;
  batch.encode(w);
  EXPECT_LE(w.data().size(), batch.encoded_size_hint() * 2);

  ser::Reader r(w.data());
  auto back = RecordBatch::decode(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back->rows(), batch.rows());
  EXPECT_EQ(back->to_records(), records);

  ser::Writer w2;
  back->encode(w2);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(RecordBatch, DecodeRejectsTruncatedBytes) {
  const RecordBatch batch = RecordBatch::from_records({make_event(0), make_event(1)});
  ser::Writer w;
  batch.encode(w);
  for (const std::size_t cut : {w.data().size() / 4, w.data().size() / 2}) {
    ser::Reader r(w.data().data(), cut);
    EXPECT_FALSE(RecordBatch::decode(r).is_ok()) << "cut at " << cut;
  }
}

TEST(RecordBatch, ClearKeepsSchemaAndSlotIds) {
  RecordBatch batch;
  batch.append(make_event(0));
  const int mass = batch.schema().slot_of("mass");
  batch.clear();
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.schema().slot_of("mass"), mass);  // schema survives clear()
  batch.append(make_event(5));
  EXPECT_EQ(batch.rows(), 1u);
  EXPECT_EQ(batch.index(0), 5u);
  EXPECT_DOUBLE_EQ(batch.cell_real(mass, 0), 105.0);
}

class ReadBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test, per-process dir: ctest -j runs each TEST as its own process,
    // and a shared path would race SetUp against another case's remove_all.
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-record-batch-test-" + std::string(test->name()) + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ReadBatchTest, ReadBatchMatchesRecordAtATimeRead) {
  const std::string path = (dir_ / "events.ipd").string();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 100; ++i) records.push_back(make_event(i));
  ASSERT_TRUE(write_dataset(path, "batch-test", records).is_ok());

  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  RecordBatch batch = reader->make_batch();
  std::vector<Record> streamed;
  while (true) {
    batch.clear();
    auto appended = reader->read_batch(batch, 17);  // uneven chunks on purpose
    ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
    if (*appended == 0) break;
    EXPECT_LE(*appended, 17u);
    for (const Record& record : batch.to_records()) streamed.push_back(record);
  }
  EXPECT_EQ(streamed, records);
  // Slot ids are reader-wide: the shared schema saw every field once.
  EXPECT_EQ(reader->schema()->field_count(), 4u);
}

TEST_F(ReadBatchTest, ReadBatchResumesAfterSeek) {
  const std::string path = (dir_ / "seek.ipd").string();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 40; ++i) records.push_back(make_event(i));
  ASSERT_TRUE(write_dataset(path, "seek-test", records).is_ok());

  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  ASSERT_TRUE(reader->seek(25).is_ok());
  RecordBatch batch = reader->make_batch();
  auto appended = reader->read_batch(batch, 1000);
  ASSERT_TRUE(appended.is_ok());
  EXPECT_EQ(*appended, 15u);
  EXPECT_EQ(batch.index(0), 25u);
  EXPECT_EQ(batch.to_records(),
            std::vector<Record>(records.begin() + 25, records.end()));
}

}  // namespace
}  // namespace ipa::data
