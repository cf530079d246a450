#include "common/crc32.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace desalign::common {
namespace {

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32/IEEE check value.
  const std::string text = "123456789";
  EXPECT_EQ(Crc32(text.data(), text.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, IncrementalChainingMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = Crc32(text.data(), text.size());
  for (size_t split : {size_t{0}, size_t{1}, text.size() / 2, text.size()}) {
    const uint32_t first = Crc32(text.data(), split);
    const uint32_t chained = Crc32(text.data() + split, text.size() - split,
                                   first);
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

// Byte-at-a-time CRC-32, computed bit by bit: the textbook definition the
// sliced implementation must reproduce for every length and alignment.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseOracle) {
  // Every length through 257 covers empty input, tails of 1-7 bytes after
  // any number of 8-byte steps, and lengths shorter than one step; every
  // start offset 0-7 covers each alignment of the 8-byte loads. The seed is
  // chained from the previous checksum so nonzero seeds are exercised too.
  std::vector<unsigned char> buf(257 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>((i * 131u + 7u) ^ (i >> 3));
  }
  uint32_t seed = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t expected = BytewiseCrc32(p, len, seed);
      ASSERT_EQ(Crc32(p, len, seed), expected)
          << "offset " << offset << ", length " << len << ", seed " << seed;
      seed = expected;
    }
  }
}

TEST(Crc32Test, SingleBitFlipChangesChecksum) {
  std::string text = "checkpoint payload bytes";
  const uint32_t clean = Crc32(text.data(), text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    std::string corrupt = text;
    corrupt[i] ^= 1;
    EXPECT_NE(Crc32(corrupt.data(), corrupt.size()), clean)
        << "flip at byte " << i;
  }
}

}  // namespace
}  // namespace desalign::common
