// gosh::api embedding persistence — Status-based write + format
// auto-detecting read across text, GSHE binary and the GSHS store, plus
// the hardened error paths (truncation, bad magic, oversized headers).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "common/temp_path.hpp"
#include "gosh/api/io.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::api {
namespace {

embedding::EmbeddingMatrix sample_matrix() {
  embedding::EmbeddingMatrix matrix(7, 5);
  matrix.initialize_random(3);
  return matrix;
}

void expect_equal(const embedding::EmbeddingMatrix& a,
                  const embedding::EmbeddingMatrix& b, float tolerance) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], tolerance) << "element " << i;
  }
}

TEST(ApiIo, BinaryRoundTripAutoDetects) {
  const testing_util::TempPath path("api_io_roundtrip.bin");
  const auto matrix = sample_matrix();
  ASSERT_TRUE(write_embedding(matrix, path, "binary").is_ok());
  auto loaded = read_embedding(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  expect_equal(matrix, loaded.value(), 0.0f);  // binary is exact
}

TEST(ApiIo, TextRoundTripAutoDetects) {
  const testing_util::TempPath path("api_io_roundtrip.txt");
  const auto matrix = sample_matrix();
  ASSERT_TRUE(write_embedding(matrix, path, "text").is_ok());
  auto loaded = read_embedding(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  expect_equal(matrix, loaded.value(), 1e-4f);  // text is rounded
}

TEST(ApiIo, StoreRoundTripAutoDetects) {
  const testing_util::TempPath path("api_io_roundtrip.gshs");
  const auto matrix = sample_matrix();
  ASSERT_TRUE(write_embedding(matrix, path, "store").is_ok());
  // read_embedding routes on the GSHS magic and materializes the store.
  auto loaded = read_embedding(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  expect_equal(matrix, loaded.value(), 0.0f);  // store is exact
}

TEST(ApiIo, ErrorsAreStatuses) {
  const auto matrix = sample_matrix();
  EXPECT_EQ(write_embedding(matrix, "/tmp/x.bin", "yaml").code(),
            StatusCode::kInvalidArgument);
  for (const char* format : {"binary", "text", "store"}) {
    EXPECT_EQ(write_embedding(matrix, "/nonexistent/dir/x.bin", format).code(),
              StatusCode::kIoError)
        << format;
  }
  EXPECT_EQ(read_embedding("/nonexistent/x.bin").status().code(),
            StatusCode::kIoError);
}

TEST(ApiIo, TruncatedBinaryPayloadRejected) {
  const testing_util::TempPath path("api_io_truncated.bin");
  ASSERT_TRUE(write_embedding(sample_matrix(), path, "binary").is_ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 3);  // mid-row truncation
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST(ApiIo, TrailingBytesAfterBinaryPayloadRejected) {
  const testing_util::TempPath path("api_io_trailing.bin");
  ASSERT_TRUE(write_embedding(sample_matrix(), path, "binary").is_ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
}

TEST(ApiIo, OversizedBinaryHeaderIsAnErrorNotAnAllocation) {
  // Hand-craft a GSHE header whose rows/dim fields promise a matrix of
  // petabytes; the reader must refuse before allocating.
  const testing_util::TempPath path("api_io_oversized.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "GSHE";
    const std::uint64_t header[3] = {1, 0xFFFFFFFFFFULL, 0xFFFFFFULL};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out << "tiny payload";
  }
  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("implausible"), std::string::npos);
}

TEST(ApiIo, BinaryZeroDimRejected) {
  const testing_util::TempPath path("api_io_zerodim.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "GSHE";
    const std::uint64_t header[3] = {1, 4, 0};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ApiIo, UnreadableTextFallbackIsAnError) {
  // A file that matches no magic falls back to the text parser, whose
  // malformed-header failure must surface as an io Status.
  const testing_util::TempPath path("api_io_garbage.txt");
  { std::ofstream(path) << "this is not an embedding at all\n"; }
  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ApiIo, CorruptStoreSurfacesCleanStatus) {
  const testing_util::TempPath path("api_io_corrupt.gshs");
  ASSERT_TRUE(write_embedding(sample_matrix(), path, "store").is_ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(4200);  // inside the payload
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(4200);
    byte = static_cast<char>(byte ^ 0x7f);
    file.write(&byte, 1);
  }
  auto loaded = read_embedding(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

}  // namespace
}  // namespace gosh::api
