// The one CRC-32 and the one FNV-1a 64 of the library. The CRC seals
// columnar file sections, journal records and checkpoints; FNV-1a keys
// dataset and workload fingerprints.
#ifndef IREDUCT_COMMON_HASH_H_
#define IREDUCT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ireduct {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range —
/// slice-by-8, fast enough to seal multi-gigabyte chunk sections.
uint32_t Crc32(const uint8_t* data, size_t n);

inline uint32_t Crc32(std::string_view data) {
  return Crc32(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

/// FNV-1a 64 prime and standard offset basis.
inline constexpr uint64_t kFnv1a64Prime = 1099511628211ULL;
inline constexpr uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// Folds `n` bytes, in memory order, into the running FNV-1a 64 hash `h`.
inline uint64_t Fnv1a64(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Folds the low `num_bytes` bytes of `v`, least significant first.
inline uint64_t Fnv1a64Int(uint64_t h, uint64_t v, int num_bytes = 8) {
  for (int i = 0; i < num_bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace ireduct

#endif  // IREDUCT_COMMON_HASH_H_
