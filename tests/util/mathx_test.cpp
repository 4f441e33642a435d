#include "util/mathx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace imc {
namespace {

TEST(LogBinomial, SmallExactValues) {
  EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 3)), 120.0, 1e-7);
  EXPECT_NEAR(std::exp(log_binomial(6, 3)), 20.0, 1e-9);
}

TEST(LogBinomial, EdgeCases) {
  EXPECT_DOUBLE_EQ(log_binomial(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial(10, 11), 0.0);
}

TEST(LogBinomial, Symmetry) {
  EXPECT_NEAR(log_binomial(100, 30), log_binomial(100, 70), 1e-9);
}

TEST(LogBinomial, LargeValuesFinite) {
  const double value = log_binomial(1'000'000, 500);
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_GT(value, 0.0);
}

TEST(KahanSum, ExactForSmallInputs) {
  KahanSum sum;
  sum.add(1.0);
  sum.add(2.0);
  sum.add(3.0);
  EXPECT_DOUBLE_EQ(sum.value(), 6.0);
}

TEST(KahanSum, CompensatesCancellation) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 10'000'000; ++i) sum.add(1e-16);
  // Naive summation would lose every tiny addend; Kahan keeps them.
  EXPECT_NEAR(sum.value(), 1.0 + 1e-9, 1e-12);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_NEAR(stddev(values), 2.13809, 1e-4);  // sample (n-1) stddev
}

TEST(Stats, DegenerateInputs) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(stddev(empty), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{-2, -4, -6, -8, -10};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson(xs, empty), 0.0);
}

TEST(CeilDiv, Values) {
  EXPECT_EQ(ceil_div(10, 3), 4U);
  EXPECT_EQ(ceil_div(9, 3), 3U);
  EXPECT_EQ(ceil_div(1, 100), 1U);
  EXPECT_EQ(ceil_div(0, 5), 0U);
}

TEST(Popcount64, Values) {
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(1), 1);
  EXPECT_EQ(popcount64(0xFFFFFFFFFFFFFFFFULL), 64);
  EXPECT_EQ(popcount64(0b1011), 3);
}

std::uint64_t lane_hash(const std::vector<unsigned char>& bytes) {
  WordLaneHash digest;
  digest.add_section(bytes.data(), bytes.size());
  return digest.value();
}

std::vector<unsigned char> patterned_bytes(std::size_t length) {
  std::vector<unsigned char> bytes(length);
  for (std::size_t i = 0; i < length; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  return bytes;
}

TEST(WordLaneHash, DetectsEverySingleByteChange) {
  // Lengths 0..80 cover every tail length mod 8 and every lane position
  // mod 32; each byte takes all 255 other values.
  for (std::size_t length = 0; length <= 80; ++length) {
    std::vector<unsigned char> bytes = patterned_bytes(length);
    const std::uint64_t clean = lane_hash(bytes);
    int undetected = 0;
    for (std::size_t i = 0; i < length; ++i) {
      const unsigned char original = bytes[i];
      for (int flip = 1; flip < 256; ++flip) {
        bytes[i] = static_cast<unsigned char>(original ^ flip);
        if (lane_hash(bytes) == clean) ++undetected;
      }
      bytes[i] = original;
    }
    EXPECT_EQ(undetected, 0) << "length " << length;
  }
}

TEST(WordLaneHash, AppendingZeroBytesChangesTheDigest) {
  // A zero-extended tail alone would hash like its padded word; the folded
  // section length tells them apart.
  for (std::size_t length = 0; length <= 80; ++length) {
    std::vector<unsigned char> bytes = patterned_bytes(length);
    const std::uint64_t clean = lane_hash(bytes);
    for (int extra = 1; extra <= 40; ++extra) {
      bytes.push_back(0);
      EXPECT_NE(lane_hash(bytes), clean)
          << "length " << length << " + " << extra << " zeros";
    }
  }
}

TEST(WordLaneHash, ShiftingASectionBoundaryChangesTheDigest) {
  // The same 64 bytes split into two sections at every point (empty
  // sections included): every split gives its own digest.
  const std::vector<unsigned char> bytes = patterned_bytes(64);
  std::set<std::uint64_t> digests;
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    WordLaneHash digest;
    digest.add_section(bytes.data(), split);
    digest.add_section(bytes.data() + split, bytes.size() - split);
    digests.insert(digest.value());
  }
  EXPECT_EQ(digests.size(), bytes.size() + 1);
  EXPECT_EQ(digests.count(lane_hash(bytes)), 0U);
}

TEST(WordLaneHash, ChunkedSectionsHashLikeWholeOnes) {
  // A section fed as 32-byte-multiple chunks plus a rest, as the snapshot
  // loader reads it, digests exactly like the same bytes in one call.
  const std::vector<unsigned char> bytes = patterned_bytes(300);
  for (std::size_t chunk = 32; chunk <= 128; chunk += 32) {
    for (std::size_t length = 0; length <= bytes.size(); length += 7) {
      WordLaneHash whole;
      whole.add_section(bytes.data(), length);
      whole.add_section(bytes.data(), 5);
      WordLaneHash chunked;
      std::size_t done = 0;
      for (; length - done > chunk; done += chunk) {
        chunked.add_blocks(bytes.data() + done, chunk);
      }
      chunked.add_section(bytes.data() + done, length - done);
      chunked.add_section(bytes.data(), 5);
      EXPECT_EQ(chunked.value(), whole.value())
          << "length " << length << " chunk " << chunk;
    }
  }
}

}  // namespace
}  // namespace imc
