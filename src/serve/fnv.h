#ifndef FAIRJOB_SERVE_FNV_H_
#define FAIRJOB_SERVE_FNV_H_

#include <cstddef>
#include <cstdint>

namespace fairjob {
namespace fnv {

// 64-bit FNV-1a, shared by the cube fingerprint (snapshot lineage) and the
// request cache key hashes. The snapshot epoch digests are not FNV: they are
// additive sums of per-column mixes (serve/cube_snapshot.cc), so a digest
// over a whole axis costs one add per selected position.
inline constexpr uint64_t kOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kPrime = 0x100000001b3ULL;

inline void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kPrime;
  }
}

template <typename T>
inline void HashValue(uint64_t* h, T value) {
  HashBytes(h, &value, sizeof(value));
}

}  // namespace fnv
}  // namespace fairjob

#endif  // FAIRJOB_SERVE_FNV_H_
