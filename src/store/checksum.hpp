// Checksums for the persisted formats (GSHS stores, GSHH indexes) and for
// small keys.
//
// Two functions, two jobs:
//
//   fnv1a64     byte-serial FNV-1a. Simple and fine for a few hundred
//               bytes — headers, cache keys, fingerprints — but it runs at
//               well under 1 GB/s, so it is not used for payloads any more
//               (version-1 files are still verified with it).
//   checksum64  the payload checksum of GSHS v2 / GSHH v2. The input is
//               cut into fixed 1 MiB chunks; each chunk is hashed by
//               kChecksumLanes independent 64-bit FNV-style lanes over
//               little-endian u64 words (word i feeds lane i % lanes),
//               which keeps several multiplies in flight per cycle. The
//               chunk digests and the byte length are folded in order, so
//               the value depends only on the bytes — never on how many
//               threads hashed the chunks.
//
// ## checksum64 definition
//
//   chunk(c):                                 c = bytes [k·2^20, (k+1)·2^20)
//     lane[i] = kFnvOffsetBasis ^ (i · 0x9e3779b97f4a7c15)   i < 8
//     for word w_j (u64, little-endian) of c:
//       l = j % 8;  lane[l] = rotl64((lane[l] ^ w_j) · kFnvPrime, 29)
//     d = kFnvOffsetBasis
//     for i < 8:  d = (d ^ fmix64(lane[i])) · kFnvPrime
//     d = fnv1a64(the < 8 tail bytes of c, d)
//     digest(c) = fmix64(d)
//   checksum64(data, n):
//     s = kFnvOffsetBasis
//     for each chunk c in order:  s = rotl64((s ^ digest(c)) · kFnvPrime, 29)
//     s = (s ^ n) · kFnvPrime
//     return fmix64(s)
//
// fmix64 is MurmurHash3's 64-bit finalizer. Every step above is a
// bijection of the state for fixed input, so any single changed word (in
// particular any single flipped bit) always changes the result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gosh::store {

/// FNV-1a 64-bit running checksum (seed with kFnvOffsetBasis; feed chunks
/// by passing the previous result back in). For small keys and headers;
/// version-1 GSHS/GSHH payloads were checksummed with it too.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t state = kFnvOffsetBasis) noexcept;

/// checksum64's fixed chunk size and lane count (part of the format).
inline constexpr std::size_t kChecksumChunkBytes = std::size_t{1} << 20;
inline constexpr unsigned kChecksumLanes = 8;

/// The payload checksum of GSHS v2 and GSHH v2 (definition above). Chunks
/// are hashed in parallel on the global pool; `threads` caps the workers
/// (0 = the whole pool). The result is the same for every `threads`.
std::uint64_t checksum64(const void* data, std::size_t bytes,
                         unsigned threads = 0);

}  // namespace gosh::store
