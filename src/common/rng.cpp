#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace ca5g::common {
namespace {

using detail::rotl;

/// SplitMix64 — used only to expand a seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal_pair() noexcept {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

Rng Rng::substream(std::uint64_t stream_id) const noexcept {
  // Collapse the 256-bit state to one word, mix in the stream id, and
  // re-expand through the seed path. SplitMix64's avalanche decorrelates
  // adjacent ids; const-ness (no state advance) makes the mapping
  // order-independent across parallel callers.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
  sm += stream_id * 0x9E3779B97F4A7C15ULL;
  return Rng(splitmix64(sm));
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  // Mix current state with salt to derive a decorrelated child stream.
  return Rng(next_u64() ^ (salt * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL));
}

void Rng::shuffle(std::vector<std::size_t>& v) noexcept {
  if (v.empty()) return;
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(v[i], v[j]);
  }
}

}  // namespace ca5g::common
