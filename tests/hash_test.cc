// XXH64 (src/store/hash.h) pinned to reference vectors: the digests in
// perfbench/digests.json depend on every bit of this function.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/store/hash.h"

namespace oobp {
namespace {

TEST(SnapshotHashTest, MatchesXxh64ReferenceVectors) {
  // The first two are the xxHash project's published reference values; the
  // rest pin this implementation against accidental change (any edit to the
  // hash invalidates every pinned digest).
  EXPECT_EQ(SnapshotHash64(std::string_view("")), 0xef46db3751d8e999ULL);
  EXPECT_EQ(SnapshotHash64(std::string_view("abc")), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(SnapshotHash64(std::string_view(""), 1), 0xd5afba1336a3be4bULL);
  EXPECT_EQ(SnapshotHash64(std::string_view("hello world")),
            0x45ab6734b21e6968ULL);
  std::string s;
  for (int i = 0; i < 100; ++i) {
    s += static_cast<char>('a' + i % 26);
  }
  EXPECT_EQ(SnapshotHash64(s), 0x79c9fa152bb53c71ULL);
  EXPECT_EQ(SnapshotHash64(s, 42), 0x64ae6df2d9c9bb5cULL);
}

}  // namespace
}  // namespace oobp
