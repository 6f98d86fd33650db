// Unit tests for the deterministic PRNG (ca5g::common::Rng).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "common/rng.hpp"

namespace {

using ca5g::common::Rng;

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 3.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // inverted range returns lo
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaling) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(31);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child1.next_u64() == child2.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

// FNV-1a 64 over the bit patterns of one seed's draws through every
// drawing entry point, in a fixed order. The draw path is inline in
// common/rng.hpp, so each including translation unit compiles its own
// copy; this digest pins the bits each copy must produce, including the
// Box–Muller pair (both halves, and a cached half consumed by
// normal(mean, sd)) and the fork/substream derivations.
constexpr std::uint64_t kDrawSequenceDigest = 0x13736b82dd286d11ULL;

TEST(Rng, DrawSequencePinned) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  const auto add_double = [&add](double v) { add(std::bit_cast<std::uint64_t>(v)); };

  Rng rng(2024);
  for (int i = 0; i < 8; ++i) add(rng.next_u64());
  for (int i = 0; i < 8; ++i) add_double(rng.uniform());
  for (int i = 0; i < 4; ++i) add_double(rng.uniform(-3.0, 5.0));
  for (int i = 0; i < 7; ++i) add_double(rng.normal());  // 3.5 pairs: one half cached
  for (int i = 0; i < 5; ++i) add_double(rng.normal(10.0, 2.5));
  for (int i = 0; i < 16; ++i) add(rng.bernoulli(0.3) ? 1U : 0U);
  for (int i = 0; i < 4; ++i) add(static_cast<std::uint64_t>(rng.uniform_int(-7, 1000)));
  Rng child = rng.fork(0xC0DE);
  for (int i = 0; i < 3; ++i) add_double(child.normal());
  Rng sub = rng.substream(11);
  for (int i = 0; i < 3; ++i) add_double(sub.normal(0.0, 0.05));
  add(rng.next_u64());  // substream() left the parent where fork() did

  EXPECT_EQ(h, kDrawSequenceDigest)
      << "the draw sequence changed: 0x" << std::hex << h
      << ". Every trace, dataset and trained model moves with it.";
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<std::size_t> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleEmptyAndSingle) {
  Rng rng(41);
  std::vector<std::size_t> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::size_t> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one.front(), 42u);
}

}  // namespace
