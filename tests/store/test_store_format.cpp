// GSHS / GSHH byte formats under torture. Hand-built version-1 files (the
// FNV-1a checksums written before version 2) must still open, verify and
// serve. Every seeded single-bit flip in a version-2 payload — including
// the tail bytes and both sides of a 1 MiB chunk boundary — must be
// reported as a checksum mismatch. Truncation at every chunk boundary ±1
// must give a clean Status, never a crash (the ASan/UBSan CI leg turns an
// over-read into a hard failure). checksum64 itself must not depend on the
// thread count. Every header field, mutated with its header checksum
// recomputed, must give a clean Status, and so must a shard layout that
// breaks the equal split row() relies on. Everything is seeded, so a
// failure reproduces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/query/hnsw.hpp"
#include "gosh/serving/shard_router.hpp"
#include "gosh/store/checksum.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::store {
namespace {

using testing_util::TempPath;

constexpr std::size_t kHeaderBytes = 4096;
constexpr std::size_t kChunk = kChecksumChunkBytes;

embedding::EmbeddingMatrix sample_matrix(vid_t rows, unsigned dim,
                                         std::uint64_t seed = 5) {
  embedding::EmbeddingMatrix matrix(rows, dim);
  matrix.initialize_random(seed);
  return matrix;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string& buffer, std::size_t offset, T value) {
  std::memcpy(buffer.data() + offset, &value, sizeof(value));
}

template <typename T>
void append(std::string& buffer, T value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void flip_bit(const std::string& path, std::size_t offset, unsigned bit) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1u << bit));
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

void expect_rows_match(const embedding::EmbeddingMatrix& matrix,
                       const EmbeddingStore& store, vid_t first_row = 0) {
  ASSERT_EQ(matrix.dim(), store.dim());
  for (vid_t v = 0; v < store.rows(); ++v) {
    const auto expected = matrix.row(first_row + v);
    const auto got = store.row(v);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], got[i]) << "row " << v << " element " << i;
    }
  }
}

// One version-1 shard, byte by byte from the v1 layout: FNV-1a over the
// payload and over header bytes [0, 64).
std::string v1_shard(const embedding::EmbeddingMatrix& matrix,
                     std::uint64_t row_begin, std::uint64_t shard_rows,
                     std::uint32_t index, std::uint32_t count) {
  const char* payload = reinterpret_cast<const char*>(
      matrix.data() + row_begin * matrix.dim());
  const std::size_t payload_bytes = shard_rows * matrix.dim() * sizeof(float);
  std::string bytes(kHeaderBytes, '\0');
  std::memcpy(bytes.data(), "GSHS", 4);
  put<std::uint32_t>(bytes, 4, kHeaderBytes);
  put<std::uint64_t>(bytes, 8, 1);
  put<std::uint64_t>(bytes, 16, matrix.rows());
  put<std::uint64_t>(bytes, 24, matrix.dim());
  put<std::uint64_t>(bytes, 32, row_begin);
  put<std::uint64_t>(bytes, 40, shard_rows);
  put<std::uint32_t>(bytes, 48, index);
  put<std::uint32_t>(bytes, 52, count);
  put<std::uint64_t>(bytes, 56, fnv1a64(payload, payload_bytes));
  put<std::uint64_t>(bytes, 64, fnv1a64(bytes.data(), 64));
  bytes.append(payload, payload_bytes);
  return bytes;
}

// One version-2 shard from the same layout: checksum64 over the payload.
// `shard_rows` rows are taken from the matrix at `row_begin`.
std::string v2_shard(const embedding::EmbeddingMatrix& matrix,
                     std::uint64_t row_begin, std::uint64_t shard_rows,
                     std::uint32_t index, std::uint32_t count) {
  std::string bytes = v1_shard(matrix, row_begin, shard_rows, index, count);
  const std::size_t payload_bytes = shard_rows * matrix.dim() * sizeof(float);
  put<std::uint64_t>(bytes, 8, 2);
  put<std::uint64_t>(bytes, 56,
                     checksum64(bytes.data() + kHeaderBytes, payload_bytes));
  put<std::uint64_t>(bytes, 64, fnv1a64(bytes.data(), 64));
  return bytes;
}

TEST(StoreFormat, HandBuiltV1StoreOpensAndVerifies) {
  const TempPath path("v1.gshs");
  const auto matrix = sample_matrix(30, 6);
  // Two shards of 16 + 14 rows.
  write_file(path, v1_shard(matrix, 0, 16, 0, 2));
  write_file(EmbeddingStore::shard_path(path, 1, 2),
             v1_shard(matrix, 16, 14, 1, 2));

  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().rows(), 30u);
  EXPECT_EQ(opened.value().num_shards(), 2u);
  expect_rows_match(matrix, opened.value());

  auto shard = EmbeddingStore::open_shard(path, 1, 2);
  ASSERT_TRUE(shard.ok()) << shard.status().to_string();
  expect_rows_match(matrix, shard.value(), 16);

  // Version 1 is verified with its own checksum: a flipped payload bit
  // is still caught.
  flip_bit(EmbeddingStore::shard_path(path, 1, 2), kHeaderBytes + 13, 2);
  auto corrupt = EmbeddingStore::open(path);
  EXPECT_EQ(corrupt.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos);
}

TEST(StoreFormat, UnevenShardLayoutIsRejected) {
  // 10 rows in 3 shards of 4, 6 and 0 rows: every row_begin fits the
  // equal split of 4 and the shards cover all 10 rows, but row 8 lies in
  // shard 1's file while row() would look for it in the empty shard 2.
  const TempPath path("uneven.gshs");
  const auto matrix = sample_matrix(10, 4);
  write_file(path, v2_shard(matrix, 0, 4, 0, 3));
  write_file(EmbeddingStore::shard_path(path, 1, 3),
             v2_shard(matrix, 4, 6, 1, 3));
  write_file(EmbeddingStore::shard_path(path, 2, 3),
             v2_shard(matrix, 8, 0, 2, 3));

  auto opened = EmbeddingStore::open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("equal-split"), std::string::npos)
      << opened.status().to_string();

  // Each shard still opens on its own, so the router checks the layout
  // its owner() lookup assumes.
  ASSERT_TRUE(EmbeddingStore::open_shard(path, 1, 3).ok());
  serving::ServeOptions options;
  options.store_path = path;
  auto router = serving::ShardRouter::open(options);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(router.status().message().find("equal split"), std::string::npos)
      << router.status().to_string();

  // The same rows in shards of 4, 4 and 2 are the layout write() makes.
  write_file(EmbeddingStore::shard_path(path, 1, 3),
             v2_shard(matrix, 4, 4, 1, 3));
  write_file(EmbeddingStore::shard_path(path, 2, 3),
             v2_shard(matrix, 8, 2, 2, 3));
  auto even = EmbeddingStore::open(path);
  ASSERT_TRUE(even.ok()) << even.status().to_string();
  expect_rows_match(matrix, even.value());
  EXPECT_TRUE(serving::ShardRouter::open(options).ok());
}

// Reads every row of an opened store: under ASan an out-of-bounds view
// fails here rather than passing silently.
float touch_every_row(const EmbeddingStore& store) {
  float sum = 0.0f;
  for (vid_t v = 0; v < store.rows(); ++v) {
    for (const float x : store.row(v)) sum += x;
  }
  return sum;
}

TEST(StoreFormat, HeaderFieldMutationsAreCleanStatuses) {
  // 30 rows of dim 6 in shards of 16 + 14.
  const TempPath path("header_mutation.gshs");
  const auto matrix = sample_matrix(30, 6);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 16}).is_ok());
  ASSERT_TRUE(EmbeddingStore::open(path).ok());

  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  struct Field {
    const char* name;
    std::size_t offset;
    bool wide;  ///< u64, else u32
  };
  const Field fields[] = {
      {"header_bytes", 4, false}, {"version", 8, true},
      {"total_rows", 16, true},   {"dim", 24, true},
      {"row_begin", 32, true},    {"shard_rows", 40, true},
      {"shard_index", 48, false}, {"shard_count", 52, false},
  };
  std::mt19937_64 rng(20261019);
  int mutations = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    const std::string file = EmbeddingStore::shard_path(path, s, 2);
    const std::string good = read_file(file);
    const auto check = [&](const std::string& bad, const std::string& what) {
      SCOPED_TRACE("shard " + std::to_string(s) + " " + what);
      write_file(file, bad);
      ++mutations;
      auto opened = EmbeddingStore::open(path);
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
      // Without payload verification a mutation may still describe a
      // consistent store (version 1 keeps the same layout); whatever
      // opens must serve every row it promises.
      auto unverified = EmbeddingStore::open(path, {.verify_checksums = false});
      if (unverified.ok()) {
        EXPECT_EQ(unverified.value().rows(), 30u);
        EXPECT_FALSE(std::isnan(touch_every_row(unverified.value())));
      }
      auto shard = EmbeddingStore::open_shard(path, s, 2);
      if (shard.ok()) {
        EXPECT_FALSE(std::isnan(touch_every_row(shard.value())));
      }
      auto info = EmbeddingStore::probe(path);
      if (info.ok()) {
        EXPECT_GT(info.value().dim, 0u);
      }
    };
    // The magic: a sibling format, a case change, and zeros.
    for (const char* magic : {"GSHH", "gshs", "GSH\0", "\0\0\0\0"}) {
      std::string bad = good;
      std::memcpy(bad.data(), magic, 4);
      put<std::uint64_t>(bad, 64, fnv1a64(bad.data(), 64));
      check(bad, std::string("magic ") + magic);
    }
    for (const Field& field : fields) {
      std::uint64_t original = 0;
      std::memcpy(&original, good.data() + field.offset, field.wide ? 8 : 4);
      std::vector<std::uint64_t> values = {0,
                                           1,
                                           2,
                                           original - 1,
                                           original + 1,
                                           original * 2,
                                           std::uint64_t{kMax32},
                                           std::uint64_t{kMax32} + 1,
                                           kMax64,
                                           kMax64 / 6};
      for (int i = 0; i < 6; ++i) values.push_back(rng());
      for (std::uint64_t value : values) {
        if (!field.wide) value &= kMax32;
        if (value == original) continue;
        std::string bad = good;
        if (field.wide) {
          put<std::uint64_t>(bad, field.offset, value);
        } else {
          put<std::uint32_t>(bad, field.offset,
                             static_cast<std::uint32_t>(value));
        }
        put<std::uint64_t>(bad, 64, fnv1a64(bad.data(), 64));
        check(bad, std::string(field.name) + " = " + std::to_string(value));
      }
    }
    write_file(file, good);
  }
  EXPECT_GT(mutations, 100);
  // Every mutation was undone: the store opens and verifies again.
  auto restored = EmbeddingStore::open(path);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  expect_rows_match(matrix, restored.value());
}

TEST(StoreFormat, WriteProducesVersionTwoWithChecksum64) {
  const TempPath path("v2.gshs");
  const auto matrix = sample_matrix(21, 5);
  ASSERT_TRUE(EmbeddingStore::write(matrix, path).is_ok());
  const std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes + 21 * 5 * sizeof(float));
  std::uint64_t version = 0, payload_checksum = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&payload_checksum, bytes.data() + 56, sizeof(payload_checksum));
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(payload_checksum,
            checksum64(matrix.data(), 21 * 5 * sizeof(float)));
}

// A payload of 1 MiB + 20 bytes: two full words and a 4-byte tail in the
// second chunk, so flips can land in a lane word, the tail, and either
// side of the chunk boundary.
class V2PayloadTest : public ::testing::Test {
 protected:
  static constexpr vid_t kRows = 87383;
  static constexpr unsigned kDim = 3;
  static constexpr std::size_t kPayload = std::size_t{kRows} * kDim * 4;
  static_assert(kPayload == kChunk + 20);

  void SetUp() override {
    ASSERT_TRUE(
        EmbeddingStore::write(sample_matrix(kRows, kDim), path_).is_ok());
  }

  void expect_caught(std::size_t payload_offset, unsigned bit) {
    SCOPED_TRACE("payload byte " + std::to_string(payload_offset) + " bit " +
                 std::to_string(bit));
    flip_bit(path_, kHeaderBytes + payload_offset, bit);
    auto opened = EmbeddingStore::open(path_);
    EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
    EXPECT_NE(opened.status().message().find("checksum mismatch"),
              std::string::npos)
        << opened.status().to_string();
    flip_bit(path_, kHeaderBytes + payload_offset, bit);  // restore
  }

  TempPath path_{"v2_payload.gshs"};
};

TEST_F(V2PayloadTest, EverySeededSingleBitFlipIsCaught) {
  ASSERT_TRUE(EmbeddingStore::open(path_).ok());
  // The edges: first byte, both sides of the chunk boundary, the words of
  // the second chunk and every tail byte.
  const std::size_t edges[] = {0,          7,          8,
                               kChunk - 8, kChunk - 1, kChunk,
                               kChunk + 1, kChunk + 15, kChunk + 16,
                               kChunk + 17, kChunk + 18, kChunk + 19};
  for (const std::size_t offset : edges) {
    for (const unsigned bit : {0u, 7u}) expect_caught(offset, bit);
  }
  std::mt19937_64 rng(20240612);
  for (int i = 0; i < 48; ++i) {
    expect_caught(rng() % kPayload, static_cast<unsigned>(rng() % 8));
  }
  // Every flip was undone: the store verifies again.
  EXPECT_TRUE(EmbeddingStore::open(path_).ok());
}

TEST_F(V2PayloadTest, TruncationAtChunkBoundariesIsACleanStatus) {
  const std::string good = read_file(path_);
  ASSERT_EQ(good.size(), kHeaderBytes + kPayload);
  std::vector<std::size_t> lengths = {0, 1, 63, 64, 65, kHeaderBytes - 1,
                                      good.size() - 1};
  for (std::size_t boundary = kHeaderBytes; boundary < good.size();
       boundary += kChunk) {
    for (const std::size_t length : {boundary - 1, boundary, boundary + 1}) {
      lengths.push_back(length);
    }
  }
  for (const std::size_t length : lengths) {
    SCOPED_TRACE("truncated to " + std::to_string(length) + " bytes");
    write_file(path_, good.substr(0, length));
    for (const bool verify : {true, false}) {
      auto opened = EmbeddingStore::open(path_, {.verify_checksums = verify});
      EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
      auto shard = EmbeddingStore::open_shard(path_, 0, 1,
                                              {.verify_checksums = verify});
      EXPECT_EQ(shard.status().code(), api::StatusCode::kIoError);
    }
    // probe() reads only the header, so only a cut header fails it.
    if (length < kHeaderBytes) {
      EXPECT_FALSE(EmbeddingStore::probe(path_).ok());
    }
  }
}

TEST(StoreFormat, Checksum64IsThreadCountInvariant) {
  std::mt19937_64 rng(7);
  std::vector<unsigned char> data(5 * kChunk + 3);
  for (unsigned char& b : data) b = static_cast<unsigned char>(rng());
  const std::size_t sizes[] = {0,          1,      7,          63,
                               64,         kChunk - 1, kChunk, kChunk + 1,
                               data.size()};
  for (const std::size_t size : sizes) {
    const std::uint64_t reference = checksum64(data.data(), size, 1);
    for (unsigned threads = 2; threads <= 4; ++threads) {
      EXPECT_EQ(checksum64(data.data(), size, threads), reference)
          << size << " bytes at " << threads << " threads";
    }
    EXPECT_EQ(checksum64(data.data(), size), reference) << size << " bytes";
  }
}

TEST(StoreFormat, Checksum64FoldsTheLengthAndIsPinned) {
  // Zero runs of different lengths differ only through the length fold.
  const std::vector<unsigned char> zeros(2 * kChunk, 0);
  EXPECT_NE(checksum64(zeros.data(), 8), checksum64(zeros.data(), 16));
  EXPECT_NE(checksum64(zeros.data(), kChunk),
            checksum64(zeros.data(), 2 * kChunk));
  EXPECT_NE(checksum64(zeros.data(), 0), checksum64(zeros.data(), 1));
  // The value is part of the on-disk format: pin it so an accidental
  // change to the definition cannot silently orphan written stores.
  std::vector<unsigned char> bytes(kChunk + 77);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  EXPECT_EQ(checksum64(bytes.data(), bytes.size()), 0x692a79ffdf749f0bULL);
  EXPECT_EQ(checksum64(bytes.data(), 0), 0xbd61e3d90311ec3bULL);
}

// ---- GSHH ---------------------------------------------------------------

// A hand-built version-1 index over 3 rows of dim 2 (dot metric, one
// layer, a complete graph) with its FNV-1a trailer over bytes [4, end).
std::string v1_index() {
  std::string bytes = "GSHH";
  append<std::uint32_t>(bytes, 1);   // version
  append<std::uint32_t>(bytes, 1);   // metric: dot
  append<std::uint32_t>(bytes, 2);   // M
  append<std::uint32_t>(bytes, 8);   // ef_construction
  append<std::uint64_t>(bytes, 3);   // rows
  append<std::uint64_t>(bytes, 2);   // dim
  append<std::uint32_t>(bytes, 0);   // entry
  append<std::int32_t>(bytes, 0);    // max_level
  append<std::uint32_t>(bytes, 0);   // has_norms
  bytes.append(3, '\0');             // levels
  for (std::uint32_t v = 0; v < 3; ++v) {
    append<std::uint32_t>(bytes, 2);  // degree
    for (std::uint32_t n = 0; n < 3; ++n) {
      if (n != v) append<std::uint32_t>(bytes, n);
    }
  }
  append<std::uint64_t>(bytes, fnv1a64(bytes.data() + 4, bytes.size() - 4));
  return bytes;
}

TEST(StoreFormat, HandBuiltV1IndexLoadsAndServes) {
  const TempPath store_path("v1_index.gshs");
  embedding::EmbeddingMatrix matrix(3, 2);
  const float rows[3][2] = {{1.0f, 0.0f}, {0.5f, 0.5f}, {-1.0f, 0.25f}};
  for (vid_t v = 0; v < 3; ++v) {
    matrix.row(v)[0] = rows[v][0];
    matrix.row(v)[1] = rows[v][1];
  }
  ASSERT_TRUE(EmbeddingStore::write(matrix, store_path).is_ok());
  auto store = EmbeddingStore::open(store_path);
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  const std::string index_path = store_path.file("v1.hnsw");
  write_file(index_path, v1_index());
  auto index = query::HnswIndex::load(index_path);
  ASSERT_TRUE(index.ok()) << index.status().to_string();
  EXPECT_EQ(index.value().rows(), 3u);
  EXPECT_EQ(index.value().metric(), query::Metric::kDot);

  // Dot scores against (1, 0): row 0 = 1, row 1 = 0.5, row 2 = -1.
  const std::vector<float> probe = {1.0f, 0.0f};
  const auto hits = index.value().search(store.value(), probe, 3, 8);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[2].id, 2u);
  EXPECT_FLOAT_EQ(hits[1].score, 0.5f);

  // Saving rewrites it as version 2, which loads to the same graph.
  const std::string v2_path = store_path.file("v2.hnsw");
  ASSERT_TRUE(index.value().save(v2_path).is_ok());
  const std::string v2 = read_file(v2_path);
  std::uint32_t version = 0;
  std::memcpy(&version, v2.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2u);
  auto reloaded = query::HnswIndex::load(v2_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().to_string();
  const auto again = reloaded.value().search(store.value(), probe, 3, 8);
  ASSERT_EQ(again.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(again[i].id, hits[i].id);
}

TEST(StoreFormat, IndexBitFlipsAndTruncationsAreCleanStatuses) {
  const TempPath store_path("index_torture.gshs");
  const auto matrix = sample_matrix(40, 4);
  ASSERT_TRUE(EmbeddingStore::write(matrix, store_path).is_ok());
  auto store = EmbeddingStore::open(store_path);
  ASSERT_TRUE(store.ok());
  const std::string index_path = store_path.file("index.hnsw");
  query::HnswOptions options;
  options.M = 4;
  options.ef_construction = 16;
  ASSERT_TRUE(
      query::HnswIndex::build(store.value(), options).save(index_path).is_ok());
  const std::string good = read_file(index_path);
  ASSERT_TRUE(query::HnswIndex::load(index_path).ok());

  // One bit of every byte past the magic: a flip in the version field is
  // an unsupported version, anywhere else a checksum mismatch.
  for (std::size_t offset = 4; offset < good.size(); ++offset) {
    const unsigned bit = offset % 8;
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ (1u << bit));
    write_file(index_path, bad);
    auto loaded = query::HnswIndex::load(index_path);
    ASSERT_FALSE(loaded.ok()) << "byte " << offset << " bit " << bit;
    EXPECT_EQ(loaded.status().code(), api::StatusCode::kIoError);
  }
  // Every truncation.
  for (std::size_t length = 0; length < good.size(); ++length) {
    write_file(index_path, good.substr(0, length));
    auto loaded = query::HnswIndex::load(index_path);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << length;
    EXPECT_EQ(loaded.status().code(), api::StatusCode::kIoError);
  }
}

}  // namespace
}  // namespace gosh::store
