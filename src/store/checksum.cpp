#include "gosh/store/checksum.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "gosh/common/parallel_for.hpp"

namespace gosh::store {
namespace {

constexpr std::uint64_t kLaneSeedStep = 0x9e3779b97f4a7c15ULL;
constexpr int kLaneRotate = 29;
constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

// MurmurHash3's 64-bit finalizer: a bijection that spreads every input bit
// over the whole word (FNV's multiply only carries bits upward).
constexpr std::uint64_t fmix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

inline std::uint64_t lane_step(std::uint64_t lane, std::uint64_t word) noexcept {
  return std::rotl((lane ^ word) * kFnvPrime, kLaneRotate);
}

// One chunk's digest (at most kChecksumChunkBytes bytes).
std::uint64_t chunk_digest(const unsigned char* p, std::size_t bytes) noexcept {
  static_assert(kChecksumLanes == 8, "the unrolled lane loop assumes 8");
  std::uint64_t lane[kChecksumLanes];
  for (unsigned i = 0; i < kChecksumLanes; ++i) {
    lane[i] = kFnvOffsetBasis ^ (i * kLaneSeedStep);
  }
  const std::size_t words = bytes / kWordBytes;
  const std::size_t groups = words / kChecksumLanes;
  const unsigned char* at = p;
  for (std::size_t g = 0; g < groups; ++g, at += kChecksumLanes * kWordBytes) {
    lane[0] = lane_step(lane[0], load_le64(at));
    lane[1] = lane_step(lane[1], load_le64(at + 8));
    lane[2] = lane_step(lane[2], load_le64(at + 16));
    lane[3] = lane_step(lane[3], load_le64(at + 24));
    lane[4] = lane_step(lane[4], load_le64(at + 32));
    lane[5] = lane_step(lane[5], load_le64(at + 40));
    lane[6] = lane_step(lane[6], load_le64(at + 48));
    lane[7] = lane_step(lane[7], load_le64(at + 56));
  }
  for (std::size_t l = 0; l < words % kChecksumLanes; ++l, at += kWordBytes) {
    lane[l] = lane_step(lane[l], load_le64(at));
  }
  std::uint64_t digest = kFnvOffsetBasis;
  for (const std::uint64_t state : lane) {
    digest = (digest ^ fmix64(state)) * kFnvPrime;
  }
  digest = fnv1a64(at, bytes % kWordBytes, digest);
  return fmix64(digest);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t state) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t checksum64(const void* data, std::size_t bytes,
                         unsigned threads) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t chunks =
      (bytes + kChecksumChunkBytes - 1) / kChecksumChunkBytes;
  std::vector<std::uint64_t> digests(chunks);
  ParallelForOptions options;
  options.threads = threads;
  options.grain = 1;
  parallel_for(
      chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * kChecksumChunkBytes;
        digests[c] = chunk_digest(
            p + begin, std::min(kChecksumChunkBytes, bytes - begin));
      },
      options);
  std::uint64_t state = kFnvOffsetBasis;
  for (const std::uint64_t digest : digests) {
    state = std::rotl((state ^ digest) * kFnvPrime, kLaneRotate);
  }
  state = (state ^ static_cast<std::uint64_t>(bytes)) * kFnvPrime;
  return fmix64(state);
}

}  // namespace gosh::store
