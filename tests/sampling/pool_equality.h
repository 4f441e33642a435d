// Bit-for-bit RicPool comparison shared by the pool determinism tests
// (repair vs rebuild, parallel vs serial growth).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "sampling/ric_pool.h"

namespace imc::test {

/// Bit-for-bit pool equality over every arena the snapshot persists.
inline void expect_same_pool(const RicPool& a, const RicPool& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto a_thresholds = a.thresholds();
  const auto b_thresholds = b.thresholds();
  const auto a_sources = a.source_communities();
  const auto b_sources = b.source_communities();
  for (std::uint64_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a_thresholds[g], b_thresholds[g]) << "threshold of " << g;
    ASSERT_EQ(a_sources[g], b_sources[g]) << "source of " << g;
  }
  const auto a_offsets = a.sample_offsets();
  const auto b_offsets = b.sample_offsets();
  ASSERT_EQ(a_offsets.size(), b_offsets.size());
  for (std::size_t i = 0; i < a_offsets.size(); ++i) {
    ASSERT_EQ(a_offsets[i], b_offsets[i]) << "sample offset " << i;
  }
  const auto a_pairs = a.sample_arena();
  const auto b_pairs = b.sample_arena();
  ASSERT_EQ(a_pairs.size(), b_pairs.size());
  for (std::size_t i = 0; i < a_pairs.size(); ++i) {
    ASSERT_EQ(a_pairs[i].first, b_pairs[i].first) << "pair node " << i;
    ASSERT_EQ(a_pairs[i].second, b_pairs[i].second) << "pair mask " << i;
  }
  const auto a_freq = a.community_frequencies();
  const auto b_freq = b.community_frequencies();
  ASSERT_EQ(a_freq.size(), b_freq.size());
  for (std::size_t c = 0; c < a_freq.size(); ++c) {
    ASSERT_EQ(a_freq[c], b_freq[c]) << "community frequency " << c;
  }
  const auto a_toff = a.touch_offsets();
  const auto b_toff = b.touch_offsets();
  ASSERT_EQ(a_toff.size(), b_toff.size());
  for (std::size_t i = 0; i < a_toff.size(); ++i) {
    ASSERT_EQ(a_toff[i], b_toff[i]) << "touch offset " << i;
  }
  const auto a_touch = a.touch_arena();
  const auto b_touch = b.touch_arena();
  ASSERT_EQ(a_touch.size(), b_touch.size());
  for (std::size_t i = 0; i < a_touch.size(); ++i) {
    ASSERT_EQ(a_touch[i].sample, b_touch[i].sample) << "touch " << i;
    ASSERT_EQ(a_touch[i].threshold, b_touch[i].threshold) << "touch " << i;
    ASSERT_EQ(a_touch[i].mask, b_touch[i].mask) << "touch " << i;
  }
}

}  // namespace imc::test
