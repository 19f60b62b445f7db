// XXH64 (Yann Collet's xxHash, the public-domain spec), pinned to the
// reference vectors in tests/hash_test.cc. It digests canonical result JSON
// (perfbench/workloads.cc): fast, and any flipped byte changes the digest.
// It is not a cryptographic hash.

#ifndef OOBP_SRC_STORE_HASH_H_
#define OOBP_SRC_STORE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace oobp {

// One-shot XXH64 of `len` bytes with the given seed.
uint64_t SnapshotHash64(const void* data, size_t len, uint64_t seed = 0);

inline uint64_t SnapshotHash64(std::string_view s, uint64_t seed = 0) {
  return SnapshotHash64(s.data(), s.size(), seed);
}

}  // namespace oobp

#endif  // OOBP_SRC_STORE_HASH_H_
