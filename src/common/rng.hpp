// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng (xoshiro256++ seeded via SplitMix64). This guarantees bit-for-bit
// reproducible traces, datasets, and benchmark tables.
//
// The per-draw path (next_u64, uniform, the cached half of normal,
// bernoulli) is inline: the simulator draws several times per carrier per
// step. Its arithmetic is pinned by Rng.DrawSequencePinned
// (tests/test_rng.cpp); -ffp-contract=off on ca5g_common keeps every
// inlined copy from fusing it differently.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ca5g::common {

namespace detail {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace detail

/// Deterministic PRNG (xoshiro256++). Cheap to copy; fork() derives
/// independent child streams for per-entity randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xCA5'0042u) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = detail::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  [[nodiscard]] double normal() noexcept {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    return normal_pair();
  }

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derive an independent child stream (stable function of state + salt).
  /// Advances this generator; successive forks differ.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

  /// Derive the `stream_id`-th decorrelated substream WITHOUT advancing
  /// this generator: a pure function of (current state, stream_id). This
  /// is what parallel fleet sweeps use for per-UE randomness — substream
  /// i is the same no matter how many threads run or in what order units
  /// are picked up, so results are bit-identical at any thread count.
  [[nodiscard]] Rng substream(std::uint64_t stream_id) const noexcept;

  /// Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v) noexcept;

 private:
  /// Draws a Box–Muller pair: caches the sine half, returns the cosine half.
  double normal_pair() noexcept;

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ca5g::common
