// Robustness sweeps: every parser and decoder that consumes bytes or text
// from a peer must reject arbitrary corruption with a Status — never crash,
// hang or over-allocate. These are deterministic random sweeps (seeded
// xoshiro), i.e. poor man's fuzzing wired into the normal test run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <new>

#include "aida/tree.hpp"
#include "catalog/query.hpp"
#include "common/rng.hpp"
#include "common/uri.hpp"
#include "data/dataset.hpp"
#include "data/record.hpp"
#include "data/record_batch.hpp"
#include "engine/code_bundle.hpp"
#include "http/http.hpp"
#include "script/parser.hpp"
#include "serialize/serialize.hpp"
#include "services/protocol.hpp"
#include "xml/xml.hpp"

// Counting global allocator for the allocation-bound tests below. It counts
// nothing until an AllocationProbe arms it on the calling thread; while armed
// it tallies every request and refuses (bad_alloc) any single one above
// kAllocationCap, so a decoder that sizes a buffer from a corrupt count fails
// the test cleanly instead of exhausting the host.
namespace {
constexpr std::size_t kAllocationCap = std::size_t{64} << 20;
thread_local bool g_alloc_armed = false;
thread_local std::size_t g_alloc_bytes = 0;
thread_local std::size_t g_alloc_refused = 0;
}  // namespace

// Kept out of line: once inlined, GCC -Wmismatched-new-delete misreads the
// free() below as releasing memory from the builtin operator new.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_alloc_armed) {
    if (n > kAllocationCap) {
      ++g_alloc_refused;
      throw std::bad_alloc();
    }
    g_alloc_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ipa {
namespace {

ser::Bytes random_bytes(Rng& rng, std::size_t max_len) {
  ser::Bytes out(static_cast<std::size_t>(rng.uniform_u64(0, max_len)));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  return out;
}

std::string random_text(Rng& rng, std::size_t max_len, std::string_view alphabet) {
  std::string out;
  const std::size_t len = static_cast<std::size_t>(rng.uniform_u64(0, max_len));
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[static_cast<std::size_t>(rng.uniform_u64(0, alphabet.size() - 1))]);
  }
  return out;
}

/// Flip/insert/delete a few bytes.
ser::Bytes mutate(Rng& rng, ser::Bytes bytes) {
  const int edits = 1 + static_cast<int>(rng.uniform_u64(0, 4));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(0, bytes.size() - 1));
    switch (rng.uniform_u64(0, 2)) {
      case 0: bytes[pos] = static_cast<std::uint8_t>(rng.uniform_u64(0, 255)); break;
      case 1: bytes.erase(bytes.begin() + static_cast<long>(pos)); break;
      default:
        bytes.insert(bytes.begin() + static_cast<long>(pos),
                     static_cast<std::uint8_t>(rng.uniform_u64(0, 255)));
    }
  }
  return bytes;
}

TEST(Fuzz, TreeDeserializeSurvivesGarbage) {
  Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 256);
    auto tree = aida::Tree::deserialize(junk);  // must not crash
    if (tree.is_ok()) {
      // Extremely unlikely but legal (e.g. empty tree); must be usable.
      EXPECT_LE(tree->size(), 1000u);
    }
  }
}

TEST(Fuzz, TreeDeserializeSurvivesMutatedValidSnapshots) {
  Rng rng(103);
  aida::Tree tree;
  auto hist = aida::Histogram1D::create("h", 50, 0, 100);
  for (int i = 0; i < 100; ++i) hist->fill(rng.uniform(0, 100));
  tree.put("/a/b", std::move(*hist));
  tree.put("/t", aida::Tuple("t", {"x", "y"}));
  const ser::Bytes valid = tree.serialize();
  for (int trial = 0; trial < 2000; ++trial) {
    auto result = aida::Tree::deserialize(mutate(rng, valid));
    (void)result;  // any Status is fine; crashing is not
  }
}

TEST(Fuzz, RecordDecodeSurvivesMutations) {
  Rng rng(107);
  data::Record record(7);
  record.set("a", 1.5);
  record.set("b", "text");
  record.set("c", data::Value::RealVec{1, 2, 3});
  ser::Writer w;
  record.encode(w);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes bad = mutate(rng, w.data());
    ser::Reader r(bad);
    auto result = data::Record::decode(r);
    (void)result;
  }
}

TEST(Fuzz, ProtocolDecodersSurviveGarbage) {
  Rng rng(109);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 128);
    (void)services::decode_push(junk);
    (void)services::decode_poll_response(junk);
    (void)services::decode_poll_request(junk);
    (void)services::decode_ready(junk);
    ser::Reader r(junk);
    (void)engine::CodeBundle::decode(r);
  }
}

TEST(Fuzz, XmlParserSurvivesRandomMarkup) {
  Rng rng(113);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 200, "<>/=\"'&;ab c\n\tx!-[]?");
    auto doc = xml::parse(text);
    if (doc.is_ok()) {
      // Whatever parsed must serialize and re-parse.
      EXPECT_TRUE(xml::parse(doc->to_string()).is_ok());
    }
  }
}

TEST(Fuzz, XmlRoundTripPreservesRandomContent) {
  Rng rng(127);
  for (int trial = 0; trial < 500; ++trial) {
    xml::Node node("root");
    node.set_text(random_text(rng, 60, "abc<>&\"' \n\t123"));
    node.set_attribute("attr", random_text(rng, 30, "xyz<>&\"'"));
    auto back = xml::parse(node.to_string());
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back->text(), node.text());
    EXPECT_EQ(back->attribute("attr"), node.attribute("attr"));
  }
}

TEST(Fuzz, HttpParserSurvivesRandomStreams) {
  Rng rng(131);
  for (int trial = 0; trial < 1000; ++trial) {
    http::RequestParser parser;
    parser.feed(random_text(rng, 300, "GET POST/ HTP1.\r\n:abc0123 \t"));
    http::Request out;
    for (int step = 0; step < 4; ++step) {
      auto got = parser.next(out);
      if (!got.is_ok() || !*got) break;
    }
  }
}

TEST(Fuzz, QueryParserSurvivesRandomExpressions) {
  Rng rng(137);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 80, "abc&|!=<>()'\"0129. _likeand");
    auto query = catalog::Query::parse(text);
    if (query.is_ok()) {
      (void)query->matches({{"a", "1"}, {"like", "x"}});
    }
  }
}

TEST(Fuzz, PawScriptParserSurvivesRandomSources) {
  Rng rng(139);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string source =
        random_text(rng, 120, "funcletifwhile(){};=+-*/%!<>&|\"' \nreturn0123abc,.[]");
    auto program = script::parse(source);
    (void)program;
  }
}

TEST(Fuzz, UriParserSurvivesRandomText) {
  Rng rng(149);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 60, "abc:/?&=.0129%#@ ");
    auto uri = Uri::parse(text);
    if (uri.is_ok()) {
      (void)Uri::parse(uri->to_string());
    }
  }
}

TEST(Fuzz, SerializeReaderNeverOverReads) {
  Rng rng(151);
  for (int trial = 0; trial < 3000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 64);
    ser::Reader r(junk);
    // Chain random reads; every failure must be a clean Status.
    for (int step = 0; step < 8; ++step) {
      switch (rng.uniform_u64(0, 5)) {
        case 0: (void)r.varint(); break;
        case 1: (void)r.string(); break;
        case 2: (void)r.f64(); break;
        case 3: (void)r.bytes(); break;
        case 4: (void)r.string_map(); break;
        default: (void)r.svarint(); break;
      }
    }
    EXPECT_LE(r.position(), junk.size());
  }
}

// ---------------------------------------------------------------------------
// Allocation bound: a decoder given `len` bytes allocates at most
// kBytesPerInputByte * len + kSlackBytes in total, whatever the bytes claim.
// ---------------------------------------------------------------------------

constexpr std::size_t kBytesPerInputByte = 64;
constexpr std::size_t kSlackBytes = 64 * 1024;

/// Arms the counting allocator on this thread for its lifetime.
class AllocationProbe {
 public:
  AllocationProbe() {
    g_alloc_bytes = 0;
    g_alloc_refused = 0;
    g_alloc_armed = true;
  }
  ~AllocationProbe() { g_alloc_armed = false; }
  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;
};

struct ProbeResult {
  bool ok = false;
  bool threw = false;
  std::size_t bytes = 0;
  std::size_t refused = 0;
};

/// Runs `decode` with the counting allocator armed. Only the decoder runs
/// armed: gtest's own bookkeeping happens after the probe is gone.
ProbeResult probe_decode(const std::function<Status()>& decode) {
  ProbeResult result;
  {
    AllocationProbe probe;
    try {
      result.ok = decode().is_ok();
    } catch (const std::bad_alloc&) {
      result.threw = true;
    }
    result.bytes = g_alloc_bytes;
    result.refused = g_alloc_refused;
  }
  return result;
}

void expect_bounded(const std::string& name, std::size_t input_len, const ProbeResult& got,
                    std::size_t slack = kSlackBytes) {
  EXPECT_FALSE(got.threw) << name << ": bad_alloc escaped the decoder";
  EXPECT_EQ(got.refused, 0u) << name << ": asked for a single block above the cap";
  EXPECT_LE(got.bytes, kBytesPerInputByte * input_len + slack)
      << name << ": allocated " << got.bytes << " bytes for " << input_len << " input bytes";
}

/// Status-returning adapters for each wire decoder, keyed by name.
using ByteDecoder = std::function<Status(const ser::Bytes&)>;

const std::map<std::string, ByteDecoder>& byte_decoders() {
  static const std::map<std::string, ByteDecoder> decoders = {
      {"tree", [](const ser::Bytes& b) { return aida::Tree::deserialize(b).status(); }},
      {"push", [](const ser::Bytes& b) { return services::decode_push(b).status(); }},
      {"poll_response",
       [](const ser::Bytes& b) { return services::decode_poll_response(b).status(); }},
      {"poll_request",
       [](const ser::Bytes& b) { return services::decode_poll_request(b).status(); }},
      {"ready", [](const ser::Bytes& b) { return services::decode_ready(b).status(); }},
      {"code_bundle",
       [](const ser::Bytes& b) {
         ser::Reader r(b);
         return engine::CodeBundle::decode(r).status();
       }},
      {"value",
       [](const ser::Bytes& b) {
         ser::Reader r(b);
         return data::Value::decode(r).status();
       }},
      {"record",
       [](const ser::Bytes& b) {
         ser::Reader r(b);
         return data::Record::decode(r).status();
       }},
      {"record_batch",
       [](const ser::Bytes& b) {
         ser::Reader r(b);
         return data::RecordBatch::decode(r).status();
       }},
      {"record_batch_append",
       [](const ser::Bytes& b) {
         ser::Reader r(b);
         data::RecordBatch batch;
         return batch.append_encoded(r);
       }},
  };
  return decoders;
}

// Wire tags, fixed by the snapshot and record formats.
constexpr std::uint8_t kTreeTagHistogram1D = 0;
constexpr std::uint8_t kTreeTagHistogram2D = 1;
constexpr std::uint8_t kTreeTagProfile1D = 2;
constexpr std::uint8_t kTreeTagTuple = 4;
constexpr std::uint8_t kValueTagReal = 1;
constexpr std::uint8_t kValueTagVec = 3;

/// A one-object tree snapshot header: count, path, object tag.
ser::Writer tree_with(std::uint8_t tag) {
  ser::Writer w;
  w.varint(1);
  w.string("/o");
  w.u8(tag);
  return w;
}

void axis(ser::Writer& w, std::int64_t bins) {
  w.svarint(bins);
  w.f64(0.0);
  w.f64(1.0);
}

/// Frame `trial` of ProtocolDecodersSurviveGarbage's seed-109 stream.
ser::Bytes seed109_frame(int trial) {
  Rng rng(109);
  ser::Bytes junk;
  for (int t = 0; t <= trial; ++t) junk = random_bytes(rng, 128);
  return junk;
}

// Each frame claims a huge element count in a few bytes. The decoder must
// refuse it with a Status, and allocate in proportion to the frame.
TEST(Fuzz, DecodersAllocateInProportionToInput) {
  struct Case {
    std::string name;
    std::string decoder;
    ser::Bytes frame;
  };
  std::vector<Case> cases;
  {
    ser::Writer w = tree_with(kTreeTagTuple);
    w.string("t");
    w.varint(1);  // one column
    w.string("x");
    w.varint(0);  // no annotations
    w.varint(std::uint64_t{1} << 29);  // rows
    cases.push_back({"tuple_rows_2^29", "tree", std::move(w).take()});
  }
  {
    ser::Writer w = tree_with(kTreeTagHistogram1D);
    w.string("h");
    axis(w, std::int64_t{1} << 30);
    w.varint(0);
    cases.push_back({"histogram1d_bins_2^30", "tree", std::move(w).take()});
  }
  {
    ser::Writer w = tree_with(kTreeTagHistogram2D);
    w.string("h2");
    axis(w, 1 << 16);
    axis(w, 1 << 16);
    w.varint(0);
    cases.push_back({"histogram2d_bins_2^16x2^16", "tree", std::move(w).take()});
  }
  {
    ser::Writer w = tree_with(kTreeTagProfile1D);
    w.string("p");
    axis(w, std::int64_t{1} << 30);
    w.varint(0);
    cases.push_back({"profile1d_bins_2^30", "tree", std::move(w).take()});
  }
  {
    ser::Writer w;
    w.u8(kValueTagVec);
    w.varint(std::uint64_t{1} << 27);
    cases.push_back({"value_vec_2^27", "value", std::move(w).take()});
  }
  {
    ser::Writer w;
    w.varint(0);     // index
    w.varint(4096);  // fields
    cases.push_back({"record_fields_4096", "record", std::move(w).take()});
  }
  {
    ser::Writer w;
    w.varint(1);  // schema: one real column
    w.string("x");
    w.u8(kValueTagReal);
    w.varint(std::uint64_t{1} << 29);  // rows
    cases.push_back({"record_batch_rows_2^29", "record_batch", std::move(w).take()});
  }
  {
    ser::Writer w;
    w.varint(0);  // index
    w.varint(1);  // fields
    w.string("v");
    w.u8(kValueTagVec);
    w.varint(std::uint64_t{1} << 27);
    cases.push_back({"record_batch_append_vec_2^27", "record_batch_append",
                     std::move(w).take()});
  }
  {
    ser::Writer w;
    w.varint(0);  // version
    w.boolean(false);
    w.varint(std::uint64_t{1} << 29);  // engine reports
    cases.push_back({"poll_response_reports_2^29", "poll_response", std::move(w).take()});
  }
  // Seed-109 frames whose report count (42079258 and 176761762) outruns the
  // frame: decode_poll_response once reserved that many EngineReports.
  cases.push_back({"poll_response_seed109_trial357", "poll_response", seed109_frame(357)});
  cases.push_back({"poll_response_seed109_trial1475", "poll_response", seed109_frame(1475)});

  for (const Case& c : cases) {
    const ByteDecoder& decode = byte_decoders().at(c.decoder);
    const ProbeResult got = probe_decode([&] { return decode(c.frame); });
    EXPECT_FALSE(got.ok) << c.name << ": corrupt frame decoded";
    expect_bounded(c.name, c.frame.size(), got);
  }
}

// The same bound over random garbage, for every wire decoder.
TEST(Fuzz, DecodersStayWithinAllocationBoundOnGarbage) {
  Rng rng(109);  // the ProtocolDecodersSurviveGarbage stream, then more
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 128);
    for (const auto& [name, decode] : byte_decoders()) {
      const ProbeResult got = probe_decode([&] { return decode(junk); });
      expect_bounded(name + " trial " + std::to_string(trial), junk.size(), got);
    }
  }
}

// .ipd open and read: counts and lengths in a corrupt file are bounded by
// the file's size.
class DatasetAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-fuzz-" + std::string(test->name()) + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Header (magic, version, name field, no metadata), then `body` as the
  /// record region, then a footer claiming `record_count` records and
  /// `index_count` index entries (none written), then the trailer.
  std::string write_file(const std::string& name, const ser::Bytes& name_field,
                         const ser::Bytes& body, std::uint64_t record_count,
                         std::uint64_t index_count) {
    ser::Writer w;
    w.raw("IPD1", 4);
    w.u32(data::kFormatVersion);
    w.raw(name_field.data(), name_field.size());
    w.varint(0);  // metadata
    w.raw(body.data(), body.size());
    const std::uint64_t footer = w.size();
    w.varint(record_count);
    w.varint(1);  // index stride
    w.varint(index_count);
    w.u32(0);  // crc
    w.u64(footer);
    w.u32(0x46445049);  // "IPDF"
    const std::string path = (dir_ / name).string();
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    EXPECT_NE(fp, nullptr);
    std::fwrite(w.data().data(), 1, w.size(), fp);
    std::fclose(fp);
    return path;
  }

  /// A name field whose length prefix claims `len` bytes; four follow.
  static ser::Bytes name_field(std::uint64_t len) {
    ser::Writer w;
    w.varint(len);
    w.raw("name", 4);
    return std::move(w).take();
  }

  /// Opens `path`, reads every record and scans the frame offsets, with the
  /// counting allocator armed. OK only if all of that succeeds.
  static ProbeResult probe_open_and_read(const std::string& path) {
    return probe_decode([&]() -> Status {
      auto reader = data::DatasetReader::open(path);
      IPA_RETURN_IF_ERROR(reader.status());
      Status read = Status::ok();
      for (std::uint64_t i = 0; i < reader->size() && read.is_ok(); ++i) {
        read = reader->next().status();
      }
      const Status scan = reader->scan_frame_offsets().status();
      return read.is_ok() ? scan : read;
    });
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetAllocationTest, CorruptCountsAreBoundedByFileSize) {
  const std::uint64_t huge = std::uint64_t{1} << 40;
  ser::Writer frame;
  frame.varint(std::uint64_t{1} << 29);  // one frame claiming 512 MiB
  frame.varint(0);
  frame.varint(0);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"footer_counts_2^40", write_file("footer.ipd", name_field(4), {}, huge, huge)},
      {"record_count_2^40", write_file("records.ipd", name_field(4), {}, huge, 0)},
      {"name_len_2^29", write_file("name.ipd", name_field(std::uint64_t{1} << 29), {}, 0, 0)},
      {"frame_len_2^29", write_file("frame.ipd", name_field(4), frame.data(), 1, 0)},
  };
  for (const auto& [name, path] : cases) {
    const ProbeResult got = probe_open_and_read(path);
    EXPECT_FALSE(got.ok) << name << ": corrupt dataset opened and read";
    // The frame scanner reads through one fixed 256 KiB buffer.
    expect_bounded(name, std::filesystem::file_size(path), got, kSlackBytes + 256 * 1024);
  }
}

// Property: any Record survives encode->decode unchanged (randomized).
TEST(Property, RecordRoundTripRandomized) {
  Rng rng(157);
  for (int trial = 0; trial < 500; ++trial) {
    data::Record record(rng.next());
    const int fields = static_cast<int>(rng.uniform_u64(0, 8));
    for (int f = 0; f < fields; ++f) {
      const std::string name = "f" + std::to_string(f);
      switch (rng.uniform_u64(0, 3)) {
        case 0: record.set(name, rng.uniform(-1e12, 1e12)); break;
        case 1: record.set(name, static_cast<std::int64_t>(rng.next())); break;
        case 2: record.set(name, random_text(rng, 40, "abcdefg \n\0\xff")); break;
        default: {
          data::Value::RealVec vec(rng.uniform_u64(0, 12));
          for (double& x : vec) x = rng.normal(0, 1e6);
          record.set(name, std::move(vec));
        }
      }
    }
    ser::Writer w;
    record.encode(w);
    ser::Reader r(w.data());
    auto back = data::Record::decode(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, record);
    EXPECT_TRUE(r.at_end());
  }
}

// Property: histogram merge is associative and commutative over random fills.
TEST(Property, HistogramMergeAssociativeCommutative) {
  Rng rng(163);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = aida::Histogram1D::create("h", 20, 0, 1);
    auto b = aida::Histogram1D::create("h", 20, 0, 1);
    auto c = aida::Histogram1D::create("h", 20, 0, 1);
    for (int i = 0; i < 200; ++i) {
      a->fill(rng.uniform(), rng.uniform(0.1, 2.0));
      b->fill(rng.uniform(), rng.uniform(0.1, 2.0));
      c->fill(rng.uniform(), rng.uniform(0.1, 2.0));
    }
    // (a+b)+c vs a+(b+c)
    auto left = *a;
    ASSERT_TRUE(left.merge(*b).is_ok());
    ASSERT_TRUE(left.merge(*c).is_ok());
    auto bc = *b;
    ASSERT_TRUE(bc.merge(*c).is_ok());
    auto right = *a;
    ASSERT_TRUE(right.merge(bc).is_ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(left.bin_height(i), right.bin_height(i), 1e-9);
    }
    // a+b vs b+a
    auto ab = *a;
    ASSERT_TRUE(ab.merge(*b).is_ok());
    auto ba = *b;
    ASSERT_TRUE(ba.merge(*a).is_ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(ab.bin_height(i), ba.bin_height(i), 1e-9);
    }
  }
}

}  // namespace
}  // namespace ipa
