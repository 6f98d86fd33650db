// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng (xoshiro256++ seeded via SplitMix64). This guarantees bit-for-bit
// reproducible traces, datasets, and benchmark tables.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ca5g::common {

/// Deterministic PRNG (xoshiro256++). Cheap to copy; fork() derives
/// independent child streams for per-entity randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xCA5'0042u) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;

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
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ca5g::common
