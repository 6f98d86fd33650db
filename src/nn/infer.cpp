#include "nn/infer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/contracts.hpp"

namespace ca5g::nn::infer {

// --- Arena -------------------------------------------------------------------

float* Arena::alloc(std::size_t count) {
  CA5G_DCHECK_MSG(count > 0, "arena alloc of zero floats");
  // The cursor only moves forward within a run: a block skipped because
  // it couldn't fit one allocation is not revisited for smaller ones.
  // That keeps every returned pointer stable and makes the placement —
  // and therefore capacity_bytes() — deterministic across identical
  // runs, which the zero-steady-state-growth test pins.
  while (cursor_ < blocks_.size() &&
         blocks_[cursor_].capacity - blocks_[cursor_].used < count)
    ++cursor_;
  if (cursor_ == blocks_.size()) {
    constexpr std::size_t kMinBlockFloats = std::size_t{1} << 14;  // 64 KiB
    std::size_t cap =
        blocks_.empty() ? kMinBlockFloats : blocks_.back().capacity * 2;
    cap = std::max(cap, count);
    Block block;
    block.data = std::make_unique<float[]>(cap);
    block.capacity = cap;
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_[cursor_];
  float* ptr = block.data.get() + block.used;
  block.used += count;
  run_floats_ += count;
  high_water_floats_ = std::max(high_water_floats_, run_floats_);
  return ptr;
}

void Arena::reset() noexcept {
  for (auto& block : blocks_) block.used = 0;
  cursor_ = 0;
  run_floats_ = 0;
}

std::size_t Arena::capacity_bytes() const noexcept {
  std::size_t floats = 0;
  for (const auto& block : blocks_) floats += block.capacity;
  return floats * sizeof(float);
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

// --- Kernels -----------------------------------------------------------------
//
// The kernels a forward spends its time in (the three matmul products, tanh
// and sigmoid) are written once, as templates over the lane count L, with
// the GCC/Clang vector extension and no intrinsics, and built at two widths:
//
//   * 4 lanes (16-byte vectors): plain SSE2, for every x86-64 host;
//   * 8 lanes (32-byte vectors): instantiated only inside the
//     target("avx2") entry points of kFamily8, into which every template
//     below is force-inlined. Compiled for baseline x86-64, a 32-byte
//     vector is lowered piecewise (several times slower), and one that
//     crosses a call that is not inlined changes the ABI (-Wpsabi). The
//     target is avx2 alone, never fma (docs/TESTING.md).
//
// active_kernels() is the one dispatch point: it picks the width once per
// process, from the CPU. Both widths compute the same bits:
//   * the matmul lanes run across independent output columns, so every C
//     element sees exactly the float operations of the scalar loop, in the
//     same order: its own ascending sum over the inner dimension, one
//     multiply and one add per term;
//   * tanh and sigmoid are lane-wise ports of the algorithms behind libm's
//     tanhf (fdlibm's tanhf and expm1f) and expf (glibc's table-driven
//     expf). Every branch runs in every lane and each lane keeps its own;
//     a lane outside the domain the ports were swept on calls libm itself.
//     libm is the oracle: `bench_infer_fastpath --exhaustive` compares both
//     ports with it on all 2^32 inputs at both widths.

namespace {

#define CA5G_LANES_INLINE [[gnu::always_inline]] inline

/// The vector types of one width: f, i and u hold L floats and their bit
/// patterns; fh holds half of them, and d and u64 the same L/2 lanes as
/// doubles and as their bit patterns.
template <std::size_t L>
struct Lanes;

template <>
struct Lanes<4> {
  using f = float __attribute__((vector_size(16)));
  using i = std::int32_t __attribute__((vector_size(16)));
  using u = std::uint32_t __attribute__((vector_size(16)));
  using fh = float __attribute__((vector_size(8)));
  using d = double __attribute__((vector_size(16)));
  using u64 = std::uint64_t __attribute__((vector_size(16)));
};

template <>
struct Lanes<8> {
  using f = float __attribute__((vector_size(32)));
  using i = std::int32_t __attribute__((vector_size(32)));
  using u = std::uint32_t __attribute__((vector_size(32)));
  using fh = float __attribute__((vector_size(16)));
  using d = double __attribute__((vector_size(32)));
  using u64 = std::uint64_t __attribute__((vector_size(32)));
};

// Vectors cross these helpers by reference only: a 32-byte vector passed
// or returned by value changes the ABI with AVX on or off (-Wpsabi), even
// where every call is inlined.

template <class V>
CA5G_LANES_INLINE void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
CA5G_LANES_INLINE void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Every lane of v set to s.
template <class V>
CA5G_LANES_INLINE void splat(V& v, float s) {
  for (std::size_t l = 0; l < sizeof(V) / sizeof(float); ++l) v[l] = s;
}

/// True when every lane of a comparison mask is set.
template <class M>
CA5G_LANES_INLINE bool all_lanes(const M& mask) {
  std::uint64_t words[sizeof(M) / sizeof(std::uint64_t)];
  std::memcpy(words, &mask, sizeof mask);
  std::uint64_t all = ~std::uint64_t{0};
  for (const std::uint64_t w : words) all &= w;
  return all == ~std::uint64_t{0};
}

// --- Matmul tiles ---

/// Register tiles: R rows × V vectors of C held in R·V = 8 accumulators
/// for the whole inner loop, so a partial sum never round-trips through
/// memory. Four-row tiles (4 × 2L columns) reuse each loaded B vector for
/// four rows; a lone row (the B = 1 serving shape) gets 8L columns of
/// independent add chains instead.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileAccumulators = 8;

/// How a product accumulates into C.
enum class Rule {
  /// C += A·B from C's current value, skipping each term whose A value
  /// is zero (so 0·inf never reaches C): the forward and dB = Aᵀ·dC.
  kSkipZero,
  /// Each dot summed from zero with no skip, then added to C: dA = dC·Bᵀ.
  kDotThenAdd,
};

/// The left factor as a strided view: element (r, p) is a[r·rs + p·ps],
/// so A (rs = inner, ps = 1) and Aᵀ (rs = 1, ps = rows of A) share the
/// tile code.
struct Lhs {
  const float* a;
  std::size_t rs;
  std::size_t ps;
};

/// C rows [r0, r0 + R), columns [j0, j0 + L·V) over the whole inner loop.
template <std::size_t L, std::size_t R, std::size_t V, Rule kRule>
CA5G_LANES_INLINE void tile(const Lhs& lhs, std::size_t r0, const float* b, float* c,
                            std::size_t cols, std::size_t j0, std::size_t inner) {
  using F = typename Lanes<L>::f;
  using I = typename Lanes<L>::i;
  F acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kRule == Rule::kSkipZero)
        load(acc[r][v], c + (r0 + r) * cols + j0 + L * v);
      else
        acc[r][v] = F{};
    }
  const float* arow = lhs.a + r0 * lhs.rs;
  for (std::size_t p = 0; p < inner; ++p, arow += lhs.ps) {
    const float* brow = b + p * cols + j0;
    float av[R];
    bool dense = true, empty = true;
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      av[r] = arow[r * lhs.rs];
      dense = dense && av[r] != 0.0f;
      empty = empty && av[r] == 0.0f;
    }
    if (kRule == Rule::kSkipZero && empty) continue;
    if (kRule == Rule::kDotThenAdd || dense) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) {
        F bv;
        load(bv, brow + L * v);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) acc[r][v] = acc[r][v] + av[r] * bv;
      }
    } else {
      // Some row's A value is zero: that row keeps its accumulators bit
      // for bit (a lane select, not an add of ±0).
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        F a;
        splat(a, av[r]);
        const I keep = a == 0.0f;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v) {
          F bv;
          load(bv, brow + L * v);
          acc[r][v] = keep ? acc[r][v] : acc[r][v] + a * bv;
        }
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + (r0 + r) * cols + j0;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kRule == Rule::kDotThenAdd) {
        F cv;
        load(cv, crow + L * v);
        acc[r][v] = cv + acc[r][v];
      }
      store(crow + L * v, acc[r][v]);
    }
  }
}

/// Columns [j0, cols) of rows [r0, r0 + R) in tiles of V vectors, then
/// of V/2, ..., 1; j0 ends at the first column no vector tile covers.
template <std::size_t L, std::size_t R, std::size_t V, Rule kRule>
CA5G_LANES_INLINE void column_tiles(const Lhs& lhs, std::size_t r0, const float* b, float* c,
                                    std::size_t inner, std::size_t cols, std::size_t& j0) {
  for (; j0 + L * V <= cols; j0 += L * V) tile<L, R, V, kRule>(lhs, r0, b, c, cols, j0, inner);
  if constexpr (V > 1) column_tiles<L, R, V / 2, kRule>(lhs, r0, b, c, inner, cols, j0);
}

/// Rows [r0, r0 + R) of C: vector tiles, widest first, then the column
/// tail one element at a time in the same order.
template <std::size_t L, std::size_t R, Rule kRule>
CA5G_LANES_INLINE void row_block(const Lhs& lhs, std::size_t r0, const float* b, float* c,
                                 std::size_t inner, std::size_t cols) {
  std::size_t j0 = 0;
  column_tiles<L, R, std::max<std::size_t>(2, kTileAccumulators / R), kRule>(lhs, r0, b, c,
                                                                            inner, cols, j0);
  for (std::size_t r = r0; r < r0 + R; ++r) {
    const float* arow = lhs.a + r * lhs.rs;
    for (std::size_t j = j0; j < cols; ++j) {
      float acc = kRule == Rule::kSkipZero ? c[r * cols + j] : 0.0f;
      for (std::size_t p = 0; p < inner; ++p) {
        const float av = arow[p * lhs.ps];
        if (kRule == Rule::kSkipZero && av == 0.0f) continue;
        acc += av * b[p * cols + j];
      }
      c[r * cols + j] = kRule == Rule::kSkipZero ? acc : c[r * cols + j] + acc;
    }
  }
}

/// C (rows × cols) accumulates Ã·B for the strided left factor Ã (rows ×
/// inner) and row-major B (inner × cols): 4-row blocks, then one 1–3-row
/// block for the remainder.
template <std::size_t L, Rule kRule>
CA5G_LANES_INLINE void matmul_tiled(const Lhs& lhs, const float* b, float* c,
                                    std::size_t rows, std::size_t inner, std::size_t cols) {
  std::size_t r0 = 0;
  for (; r0 + kTileRows <= rows; r0 += kTileRows)
    row_block<L, kTileRows, kRule>(lhs, r0, b, c, inner, cols);
  switch (rows - r0) {
    case 3: row_block<L, 3, kRule>(lhs, r0, b, c, inner, cols); break;
    case 2: row_block<L, 2, kRule>(lhs, r0, b, c, inner, cols); break;
    case 1: row_block<L, 1, kRule>(lhs, r0, b, c, inner, cols); break;
    default: break;
  }
}

/// B (n × k) transposed into per-thread scratch (k × n), so dA = dC·Bᵀ
/// takes the same row-major form as the other two products.
const float* transposed(const float* b, std::size_t n, std::size_t k) {
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
  return bt.data();
}

// --- Activations ---

float libm_tanh(float x) { return std::tanh(x); }
float libm_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// p[l] = ported[l] ? y[l] : libm(p[l]) for l < lanes. Out of line and
/// cold: a vector loop with a libm call inside reloads its constants on
/// every block.
[[gnu::noinline, gnu::cold]] void patch_lanes(float* p, const float* y,
                                              const std::int32_t* ported, std::size_t lanes,
                                              float (*libm)(float)) {
  for (std::size_t l = 0; l < lanes; ++l) p[l] = ported[l] != 0 ? y[l] : libm(p[l]);
}

/// Store a block's port results y over its inputs p, or, when a lane is
/// outside the port's domain, hand the block to patch_lanes.
template <std::size_t L>
CA5G_LANES_INLINE void finish_block(float* p, const typename Lanes<L>::f& y,
                                    const typename Lanes<L>::i& ported, float (*libm)(float)) {
  if (all_lanes(ported)) [[likely]] {
    store(p, y);
    return;
  }
  float ys[L];
  std::int32_t ok[L];
  store(ys, y);
  std::memcpy(ok, &ported, sizeof ok);
  patch_lanes(p, ys, ok, L, libm);
}

// fdlibm's expm1f constants (glibc sysdeps/ieee754/flt-32/s_expm1f.c),
// from their bit patterns.
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

/// fdlibm expm1f on lanes with 2^-54 ≤ |x| < 44, the arguments tanh
/// passes it; every reduction and reconstruction branch runs in every lane.
template <std::size_t L>
CA5G_LANES_INLINE void expm1_lanes(const typename Lanes<L>::f& x, typename Lanes<L>::f& out) {
  using F = typename Lanes<L>::f;
  using I = typename Lanes<L>::i;
  using U = typename Lanes<L>::u;
  const U hx = __builtin_bit_cast(U, x) & 0x7fffffffu;
  const I negative = __builtin_bit_cast(I, x) < 0;
  // x = k·ln2 + (hi − lo): k = 0 up to ½·ln2, ±1 up to 1.5·ln2, else
  // (int)(x/ln2 ± ½), truncated. With t = k, hi = x − t·ln2_hi and lo =
  // t·ln2_lo are exactly fdlibm's x ∓ ln2_hi and ±ln2_lo at k = ±1, and
  // x and 0 at k = 0.
  const F half = negative ? F{} - 0.5f : F{} + 0.5f;
  const I k_far = __builtin_convertvector(kInvLn2 * x + half, I);
  const I k_near = negative ? I{} - 1 : I{} + 1;
  const I k = hx <= 0x3eb17218u ? I{} : (hx < 0x3f851592u ? k_near : k_far);
  const F t = __builtin_convertvector(k, F);
  const F hi = x - t * kLn2Hi;
  const F lo = t * kLn2Lo;
  const F xr = hi - lo;
  const F c = (hi - xr) - lo;

  const F hfx = 0.5f * xr;
  const F hxs = xr * hfx;
  const F r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t3 = 3.0f - r1 * hfx;
  F e = hxs * ((r1 - t3) / (6.0f - xr * t3));
  const F y_k0 = xr - (xr * e - hxs);
  e = xr * (e - c) - c;
  e = e - hxs;
  const F y_km1 = 0.5f * (xr - e) - 0.5f;
  const F y_kp1 = xr < -0.25f ? -2.0f * (e - (xr + 0.5f)) : 1.0f + 2.0f * (xr - e);
  // 2^k·y adds k << 23 to y's bits. 2^-k is (127 − k) << 23, and fdlibm's
  // 1 − 2^-k (0x3f800000 − (0x1000000 >> k), a per-lane shift SSE2 lacks)
  // is exact as 1 − 2^-k for the 2 ≤ k < 23 that read it.
  const U ku = __builtin_bit_cast(U, k);
  const U k_exponent = ku << 23;
  const F pow2_mk = __builtin_bit_cast(F, (127u - ku) << 23);
  const F far = 1.0f - (e - xr);               // k ≤ −2 or k > 56
  const F low = (1.0f - pow2_mk) - (e - xr);   // 2 ≤ k < 23
  const F high = (xr - (e + pow2_mk)) + 1.0f;  // 23 ≤ k ≤ 56
  const F y_far = __builtin_bit_cast(F, __builtin_bit_cast(U, far) + k_exponent) - 1.0f;
  const F y_low = __builtin_bit_cast(F, __builtin_bit_cast(U, low) + k_exponent);
  const F y_high = __builtin_bit_cast(F, __builtin_bit_cast(U, high) + k_exponent);

  F y = (k <= -2) | (k > 56) ? y_far : (k < 23 ? y_low : y_high);
  y = k == 1 ? y_kp1 : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  out = hx < 0x33000000u ? x : y;  // |x| < 2^-25: expm1(x) = x
}

/// fdlibm tanhf, in place on L floats. The port covers 2^-55 ≤ |x| < 22;
/// other lanes (±0, tiny, saturated, inf, NaN) run on 1 and are then
/// overwritten by libm's tanh.
struct Tanh {
  template <std::size_t L>
  CA5G_LANES_INLINE static void block(float* p) {
    using F = typename Lanes<L>::f;
    using I = typename Lanes<L>::i;
    using U = typename Lanes<L>::u;
    F x;
    load(x, p);
    const U ix = __builtin_bit_cast(U, x) & 0x7fffffffu;
    const I ported = (ix >= 0x24000000u) & (ix < 0x41b00000u);
    const U iax = ported ? ix : U{} + 0x3f800000u;
    const F ax = __builtin_bit_cast(F, iax);
    const I big = iax >= 0x3f800000u;  // |x| ≥ 1
    F t;
    expm1_lanes<L>(big ? 2.0f * ax : -2.0f * ax, t);
    const F q = (big ? F{} + 2.0f : -t) / (t + 2.0f);
    const F z = big ? 1.0f - q : q;
    const F y = __builtin_bit_cast(I, x) < 0 ? -z : z;
    finish_block<L>(p, y, ported, libm_tanh);
  }
};

// glibc's expf (sysdeps/ieee754/flt-32/e_expf.c with e_exp2f_data.c, N =
// 32): exp(x) = 2^(k/N) · 2^(r/N) in double, k = round(x·N/ln2) by the
// 0x1.8p52 shift, 2^(k/N) from a 32-entry table of 2^(i/N) with k's high
// bits added to its exponent, 2^(r/N) from a three-term polynomial.
constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
/// tab[i] = bits(2^(i/32)) − (i << 47).
constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// glibc expf on L/2 lanes with |x| < 32.
template <std::size_t L>
CA5G_LANES_INLINE void expf_lanes(const typename Lanes<L>::fh& x, typename Lanes<L>::fh& out) {
  using D = typename Lanes<L>::d;
  using Q = typename Lanes<L>::u64;
  const D z = kExpInvLn2N * __builtin_convertvector(x, D);
  const D shifted = z + kExpShift;
  const Q ki = __builtin_bit_cast(Q, shifted);
  const D r = z - (shifted - kExpShift);
  Q t = {};
  for (std::size_t l = 0; l < L / 2; ++l) t[l] = kExp2Table[ki[l] % 32];
  const D s = __builtin_bit_cast(D, t + (ki << 47));
  const D r2 = r * r;
  const D y = ((kExpC0 * r + kExpC1) * r2 + (kExpC2 * r + 1.0)) * s;
  out = __builtin_convertvector(y, typename Lanes<L>::fh);
}

/// The low and high halves of x (I = 0, ..., L/2 − 1), in registers. The
/// high half moves down within a full vector first, which GCC lowers to
/// one shuffle instead of one per lane.
template <class V, class Half, std::size_t... I>
CA5G_LANES_INLINE void split_halves(const V& x, Half& lo, Half& hi, std::index_sequence<I...>) {
  lo = __builtin_shufflevector(x, x, I...);
  const V high_down =
      __builtin_shufflevector(x, x, (I + sizeof...(I))..., (I + sizeof...(I))...);
  hi = __builtin_shufflevector(high_down, high_down, I...);
}

/// lo then hi as one vector (J = 0, ..., L − 1).
template <class Half, class V, std::size_t... J>
CA5G_LANES_INLINE void join_halves(const Half& lo, const Half& hi, V& out,
                                   std::index_sequence<J...>) {
  out = __builtin_shufflevector(lo, hi, J...);
}

/// 1 / (1 + exp(−x)) in float, in place on L floats, with exp as glibc
/// computes it. The port covers |x| < 32; other lanes (and NaN) run on 0
/// and are then overwritten by the libm formula.
struct Sigmoid {
  template <std::size_t L>
  CA5G_LANES_INLINE static void block(float* p) {
    using F = typename Lanes<L>::f;
    using I = typename Lanes<L>::i;
    using U = typename Lanes<L>::u;
    using H = typename Lanes<L>::fh;
    F x;
    load(x, p);
    const I ported = (__builtin_bit_cast(U, x) & 0x7fffffffu) < 0x42000000u;
    const F arg = -(ported ? x : F{});
    H lo, hi;
    split_halves(arg, lo, hi, std::make_index_sequence<L / 2>{});
    expf_lanes<L>(lo, lo);
    expf_lanes<L>(hi, hi);
    F e;
    join_halves(lo, hi, e, std::make_index_sequence<L>{});
    const F y = 1.0f / (1.0f + e);
    finish_block<L>(p, y, ported, libm_sigmoid);
  }
};

/// Kernel::block over x[0, n) L lanes at a time; a short tail runs on a
/// copy padded with 1, which both ports cover.
template <std::size_t L, class Kernel>
CA5G_LANES_INLINE void map_blocks(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + L <= n; i += L) Kernel::template block<L>(x + i);
  if (i == n) return;
  float pad[L];
  std::fill(pad, pad + L, 1.0f);
  std::copy(x + i, x + n, pad);
  Kernel::template block<L>(pad);
  std::copy(pad, pad + (n - i), x + i);
}

// One kernel family per width: the same template bodies, compiled for two
// targets.
#define CA5G_KERNEL_FAMILY(L, TARGET)                                                       \
  TARGET void matmul_ab_x##L(const float* a, const float* b, float* c, std::size_t m,       \
                             std::size_t k, std::size_t n) {                                \
    matmul_tiled<L, Rule::kSkipZero>(Lhs{a, k, 1}, b, c, m, k, n);                          \
  }                                                                                         \
  TARGET void matmul_at_b_x##L(const float* a, const float* b, float* c, std::size_t m,     \
                               std::size_t k, std::size_t n) {                              \
    matmul_tiled<L, Rule::kSkipZero>(Lhs{a, 1, k}, b, c, k, m, n);                          \
  }                                                                                         \
  TARGET void matmul_a_bt_x##L(const float* a, const float* b, float* c, std::size_t m,     \
                               std::size_t k, std::size_t n) {                              \
    matmul_tiled<L, Rule::kDotThenAdd>(Lhs{a, k, 1}, transposed(b, n, k), c, m, k, n);      \
  }                                                                                         \
  TARGET void tanh_x##L(float* x, std::size_t n) { map_blocks<L, Tanh>(x, n); }             \
  TARGET void sigmoid_x##L(float* x, std::size_t n) { map_blocks<L, Sigmoid>(x, n); }       \
  constexpr KernelFamily kFamily##L{L, matmul_ab_x##L, matmul_at_b_x##L, matmul_a_bt_x##L, \
                                    tanh_x##L, sigmoid_x##L};

CA5G_KERNEL_FAMILY(4, )
#if defined(__x86_64__) || defined(__i386__)
CA5G_KERNEL_FAMILY(8, [[gnu::target("avx2")]])
#endif

#undef CA5G_KERNEL_FAMILY

}  // namespace

const KernelFamily* kernel_family(std::size_t lanes) {
  if (lanes == 4) return &kFamily4;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (lanes == 8 && __builtin_cpu_supports("avx2")) return &kFamily8;
#endif
  return nullptr;
}

const KernelFamily& active_kernels() {
  static const KernelFamily& family =
      kernel_family(8) != nullptr ? *kernel_family(8) : *kernel_family(4);
  return family;
}

void matmul_xw(const float* x, const float* w, const float* bias, float* y,
               std::size_t rows, std::size_t in, std::size_t out) {
  std::fill(y, y + rows * out, 0.0f);
  matmul_ab(x, w, y, rows, in, out);
  if (bias) add_row_bias_inplace(y, bias, rows, out);
}

void matmul_ab(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  active_kernels().matmul_ab(a, b, c, m, k, n);
}

void matmul_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  active_kernels().matmul_at_b(a, b, c, m, k, n);
}

void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  active_kernels().matmul_a_bt(a, b, c, m, k, n);
}

void add_inplace(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + x[i];
}

void add_row_bias_inplace(float* y, const float* bias, std::size_t rows,
                          std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cols;
    for (std::size_t c = 0; c < cols; ++c) yrow[c] = yrow[c] + bias[c];
  }
}

void tanh_inplace(float* x, std::size_t n) { active_kernels().tanh_inplace(x, n); }

void sigmoid_inplace(float* x, std::size_t n) { active_kernels().sigmoid_inplace(x, n); }

void relu_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void slice_cols(const float* x, std::size_t rows, std::size_t src_cols,
                std::size_t start, std::size_t len, float* y) {
  CA5G_DCHECK_MSG(start + len <= src_cols, "slice_cols out of range");
  for (std::size_t r = 0; r < rows; ++r)
    std::copy(x + r * src_cols + start, x + r * src_cols + start + len,
              y + r * len);
}

void concat_cols(const float* const* parts, const std::size_t* widths,
                 std::size_t count, std::size_t rows, float* y) {
  std::size_t total = 0;
  for (std::size_t p = 0; p < count; ++p) total += widths[p];
  std::size_t offset = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t w = widths[p];
    for (std::size_t r = 0; r < rows; ++r)
      std::copy(parts[p] + r * w, parts[p] + (r + 1) * w,
                y + r * total + offset);
    offset += w;
  }
}

void mul_col_broadcast(const float* a, const float* col, float* y,
                       std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* arow = a + r * cols;
    float* yrow = y + r * cols;
    const float cv = col[r];
    for (std::size_t c = 0; c < cols; ++c) yrow[c] = arow[c] * cv;
  }
}

// --- Packed modules ----------------------------------------------------------

PackedLinear::PackedLinear(const Tensor& weight, const Tensor& bias_row)
    : in(weight.rows()),
      out(weight.cols()),
      w(weight.values()),
      bias(bias_row.values()) {
  CA5G_CHECK_MSG(bias_row.rows() == 1 && bias_row.cols() == out,
                 "packed linear bias shape mismatch");
}

PackedLinear::PackedLinear(const Linear& src)
    : PackedLinear(src.weight(), src.bias()) {}

void PackedLinear::forward(const float* x, std::size_t rows, float* y) const {
  matmul_xw(x, w.data(), bias.data(), y, rows, in, out);
}

PackedMlp::PackedMlp(const Mlp& src) {
  for (const auto& layer : src.layers()) layers.emplace_back(layer);
}

const float* PackedMlp::forward(Arena& arena, const float* x,
                                std::size_t rows) const {
  const float* h = x;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    float* y = arena.alloc(rows * layers[i].out);
    layers[i].forward(h, rows, y);
    if (i + 1 < layers.size()) relu_inplace(y, rows * layers[i].out);
    h = y;
  }
  return h;
}

void PackedLstm::Cell::step(const float* x, float* h, float* c,
                            std::size_t rows, float* xg, float* hg) const {
  const std::size_t g4 = 4 * hidden;
  matmul_xw(x, w_ih.data(), nullptr, xg, rows, in, g4);
  matmul_xw(h, w_hh.data(), nullptr, hg, rows, hidden, g4);
  for (std::size_t r = 0; r < rows; ++r) {
    float* grow = xg + r * g4;
    const float* hrow = hg + r * g4;
    // The graph's exact parenthesization: x·Wih + (h·Whh + bias).
    for (std::size_t j = 0; j < g4; ++j) grow[j] = grow[j] + (hrow[j] + bias[j]);
    sigmoid_inplace(grow, 2 * hidden);           // i, f
    tanh_inplace(grow + 2 * hidden, hidden);     // g
    sigmoid_inplace(grow + 3 * hidden, hidden);  // o
    float* hout = h + r * hidden;
    float* cout = c + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const float cv = (grow[hidden + j] * cout[j]) + (grow[j] * grow[2 * hidden + j]);
      cout[j] = cv;
      hout[j] = cv;
    }
  }
  // h' = o·tanh(c'), with tanh over every row's c' at once.
  tanh_inplace(h, rows * hidden);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* o = xg + r * g4 + 3 * hidden;
    float* hout = h + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) hout[j] = o[j] * hout[j];
  }
}

PackedLstm::PackedLstm(const Lstm& src) {
  for (const auto& cell : src.cells()) {
    Cell packed;
    packed.in = cell.input_size();
    packed.hidden = cell.hidden_size();
    packed.w_ih = cell.w_ih().values();
    packed.w_hh = cell.w_hh().values();
    packed.bias = cell.bias().values();
    cells.push_back(std::move(packed));
  }
}

float* PackedLstm::alloc_states(Arena& arena, std::size_t rows) const {
  float* states = arena.alloc(state_floats(rows));
  std::fill(states, states + state_floats(rows), 0.0f);
  return states;
}

const float* PackedLstm::step(const float* x, float* states, std::size_t rows,
                              float* xg, float* hg) const {
  const std::size_t seg = rows * hidden();
  const float* input = x;
  for (std::size_t l = 0; l < cells.size(); ++l) {
    float* h = states + (2 * l) * seg;
    float* c = states + (2 * l + 1) * seg;
    cells[l].step(input, h, c, rows, xg, hg);
    input = h;
  }
  return input;
}

PackedConv1d::PackedConv1d(const CausalConv1d& src)
    : in(src.taps().front().rows()),
      out(src.taps().front().cols()),
      kernel(src.kernel_size()),
      dilation(src.dilation()),
      bias(src.bias().values()) {
  for (const auto& tap : src.taps()) tap_w.push_back(tap.values());
}

void PackedConv1d::forward_step(const float* seq, std::size_t t,
                                std::size_t t_len, std::size_t rows, float* y,
                                float* tmp) const {
  CA5G_DCHECK_MSG(t < t_len, "conv step out of range");
  bool first = true;
  for (std::size_t k = 0; k < kernel; ++k) {
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t) -
                               static_cast<std::ptrdiff_t>(k * dilation);
    if (src < 0) continue;  // causal zero padding
    const float* xs = seq + static_cast<std::size_t>(src) * rows * in;
    if (first) {
      matmul_xw(xs, tap_w[k].data(), nullptr, y, rows, in, out);
      first = false;
    } else {
      // Fold `acc + term` pairwise like the graph: the term's dot is
      // completed before it joins the accumulator.
      matmul_xw(xs, tap_w[k].data(), nullptr, tmp, rows, in, out);
      add_inplace(y, tmp, rows * out);
    }
  }
  if (first) std::fill(y, y + rows * out, 0.0f);
  add_row_bias_inplace(y, bias.data(), rows, out);
}

}  // namespace ca5g::nn::infer
