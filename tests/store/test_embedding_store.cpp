// gosh::store — GSHS write/open round trips, shard naming, mmap row
// access, atomic rewrites, and the corruption / truncation error paths
// (byte-level format torture lives in test_store_format.cpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/temp_path.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::store {
namespace {

embedding::EmbeddingMatrix sample_matrix(vid_t rows, unsigned dim,
                                         std::uint64_t seed = 9) {
  embedding::EmbeddingMatrix matrix(rows, dim);
  matrix.initialize_random(seed);
  return matrix;
}

using testing_util::TempPath;

void expect_rows_match(const embedding::EmbeddingMatrix& matrix,
                       const EmbeddingStore& store) {
  ASSERT_EQ(matrix.rows(), store.rows());
  ASSERT_EQ(matrix.dim(), store.dim());
  for (vid_t v = 0; v < matrix.rows(); ++v) {
    const auto expected = matrix.row(v);
    const auto got = store.row(v);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], got[i]) << "row " << v << " element " << i;
    }
  }
}

TEST(EmbeddingStore, SingleShardRoundTrip) {
  const TempPath path("store_single.gshs");
  const auto matrix = sample_matrix(33, 7);
  ASSERT_TRUE(EmbeddingStore::write(matrix, path).is_ok());

  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().num_shards(), 1u);
  expect_rows_match(matrix, opened.value());

  const auto copy = opened.value().to_matrix();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_EQ(matrix.data()[i], copy.data()[i]);
  }
}

TEST(EmbeddingStore, ShardedRoundTripCrossesShardBoundaries) {
  const TempPath path("store_sharded.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  // 33 rows at 8 per shard = 5 shards, last one holding a single row.
  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().num_shards(), 5u);
  expect_rows_match(matrix, opened.value());

  // Shard naming: root is shard 0, siblings carry the 4-digit suffix.
  EXPECT_EQ(EmbeddingStore::shard_path(path, 0, 5), path.path());
  std::ifstream sibling(EmbeddingStore::shard_path(path, 3, 5));
  EXPECT_TRUE(sibling.good());
}

TEST(EmbeddingStore, EmptyMatrixRoundTrips) {
  const TempPath path("store_empty.gshs");
  ASSERT_TRUE(
      EmbeddingStore::write(embedding::EmbeddingMatrix(0, 4), path).is_ok());
  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().rows(), 0u);
  EXPECT_EQ(opened.value().dim(), 4u);
}

TEST(EmbeddingStore, ZeroDimRejected) {
  EXPECT_EQ(EmbeddingStore::write(embedding::EmbeddingMatrix(), "/tmp/x")
                .code(),
            api::StatusCode::kInvalidArgument);
}

TEST(EmbeddingStore, MissingFileIsIoError) {
  auto opened = EmbeddingStore::open(TempPath("store_does_not_exist.gshs"));
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
}

TEST(EmbeddingStore, WrongMagicRejected) {
  const TempPath path("store_not_a_store.gshs");
  {
    // Big enough to pass the header read, wrong magic ("GSHE" is the
    // in-memory matrix format, not a store).
    std::ofstream out(path, std::ios::binary);
    out << "GSHE" << std::string(8192, 'x');
  }
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST(EmbeddingStore, TruncatedPayloadRejected) {
  const TempPath path("store_truncated.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(16, 8), path).is_ok());
  // Chop the last row off the payload; the size check must catch it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 8 * sizeof(float));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
}

TEST(EmbeddingStore, CorruptPayloadCaughtByChecksum) {
  const TempPath path("store_corrupt.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(16, 8), path).is_ok());
  {
    // Flip one payload byte without changing the file size.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4096 + 100);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(4096 + 100);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  auto verified = EmbeddingStore::open(path);
  EXPECT_EQ(verified.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(verified.status().message().find("checksum"), std::string::npos);

  // Opting out of verification maps the shard anyway (the out-of-core
  // fast path for very large stores).
  auto unverified = EmbeddingStore::open(path, {.verify_checksums = false});
  EXPECT_TRUE(unverified.ok()) << unverified.status().to_string();
}

TEST(EmbeddingStore, MissingShardRejected) {
  const TempPath path("store_missing_shard.gshs");
  ASSERT_TRUE(
      EmbeddingStore::write(sample_matrix(30, 4), path, {.rows_per_shard = 10})
          .is_ok());
  std::filesystem::remove(EmbeddingStore::shard_path(path, 1, 3));
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("missing"), std::string::npos);
}

TEST(EmbeddingStore, CorruptHeaderRejected) {
  const TempPath path("store_bad_header.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(8, 4), path).is_ok());
  {
    // Inflate total_rows (offset 16) without fixing the header checksum.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(16);
    const std::uint64_t huge = 1ull << 40;
    file.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("checksum"), std::string::npos);
}

TEST(EmbeddingStore, ProbeReadsTheLayoutWithoutMapping) {
  const TempPath path("store_probe.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  auto info = EmbeddingStore::probe(path);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().rows, 33u);
  EXPECT_EQ(info.value().dim, 5u);
  EXPECT_EQ(info.value().shard_count, 5u);

  EXPECT_FALSE(EmbeddingStore::probe(TempPath("no_such.gshs")).ok());
  // Probing a non-root shard is rejected: the root carries the layout.
  EXPECT_FALSE(
      EmbeddingStore::probe(EmbeddingStore::shard_path(path, 1, 5)).ok());
}

TEST(EmbeddingStore, OpenShardServesOneRebasedGroup) {
  const TempPath path("store_open_shard.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  // Middle shard: rows [16, 24) of the matrix, re-based to local [0, 8).
  auto shard = EmbeddingStore::open_shard(path, 2, 5);
  ASSERT_TRUE(shard.ok()) << shard.status().to_string();
  EXPECT_EQ(shard.value().rows(), 8u);
  EXPECT_EQ(shard.value().row_begin(), 16u);
  EXPECT_EQ(shard.value().num_shards(), 1u);
  for (vid_t local = 0; local < 8; ++local) {
    const auto expected = matrix.row(16 + local);
    const auto got = shard.value().row(local);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], got[i]) << "local row " << local;
    }
  }

  // The last, short shard.
  auto tail = EmbeddingStore::open_shard(path, 4, 5);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().rows(), 1u);
  EXPECT_EQ(tail.value().row_begin(), 32u);

  // Wrong count in the name/header pairing is rejected.
  EXPECT_FALSE(EmbeddingStore::open_shard(path, 2, 4).ok());
  EXPECT_FALSE(EmbeddingStore::open_shard(path, 9, 5).ok());
}

TEST(EmbeddingStore, RewriteKeepsOpenStoresOnTheirOldRows) {
  const TempPath path("store_rewrite.gshs");
  // 16 pages of payload, rewritten as one page: an in-place truncating
  // write would make the old mapping's tail pages fault (SIGBUS).
  const auto before = sample_matrix(2000, 8, 1);
  const auto after = sample_matrix(10, 8, 2);
  ASSERT_TRUE(EmbeddingStore::write(before, path).is_ok());
  auto old_store = EmbeddingStore::open(path);
  ASSERT_TRUE(old_store.ok()) << old_store.status().to_string();

  ASSERT_TRUE(EmbeddingStore::write(after, path).is_ok());
  expect_rows_match(before, old_store.value());
  auto reopened = EmbeddingStore::open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  expect_rows_match(after, reopened.value());

  // Only the store itself is left; the temp file was renamed away.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path.dir())) {
    EXPECT_EQ(entry.path().string(), path.path());
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(EmbeddingStore, FailedWriteLeavesNoTempFile) {
  // A directory squats on the target name: the temp file is written, the
  // rename over the directory fails, and the temp file must go.
  const TempPath path("store_blocked.gshs");
  ASSERT_TRUE(std::filesystem::create_directory(path.path()));
  const api::Status status = EmbeddingStore::write(sample_matrix(64, 4), path);
  EXPECT_EQ(status.code(), api::StatusCode::kIoError);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path.dir())) {
    EXPECT_EQ(entry.path().string(), path.path());
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

}  // namespace
}  // namespace gosh::store
