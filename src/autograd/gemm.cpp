#include "autograd/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace adapipe {
namespace autograd_detail {

namespace {

/**
 * W floats in one GCC vector, and W unsigned and signed 32-bit
 * integers in vectors of the same size; W == 1 is plain scalars.
 */
template <int W>
struct Lanes
{
    typedef float type __attribute__((vector_size(W * sizeof(float))));
    typedef std::uint32_t bits
        __attribute__((vector_size(W * sizeof(float))));
    typedef std::int32_t ints
        __attribute__((vector_size(W * sizeof(float))));
};
template <>
struct Lanes<1>
{
    using type = float;
    using bits = std::uint32_t;
    using ints = std::int32_t;
};

/**
 * O[i0, i0+R) x [j0, j0+C*W) += op(A) . B. The R*C accumulators stay
 * in registers for the whole depth loop; lane by lane this is the
 * naive loop: O, then + a*b for every p ascending whose a is not
 * exactly zero (0 * inf would be NaN, so the skip is part of the
 * result, not only a shortcut).
 *
 * Everything below is always_inline so that each per-ISA entry point
 * compiles its own copy for its own target.
 */
template <int W, int R, int C>
[[gnu::always_inline]] inline void
gemmTile(const GemmArgs &g, int i0, int j0)
{
    using V = typename Lanes<W>::type;
    V acc[R][C];
    float *o = g.o + i0 * g.ldo + j0;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c)
            std::memcpy(&acc[r][c], o + r * g.ldo + c * W, sizeof(V));
    }
    for (int p = 0; p < g.depth; ++p) {
        const float *a = g.a + i0 * g.aRowStride + p * g.aDepthStride;
        const float *b = g.b + p * g.ldb + j0;
        V bv[C];
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c)
            std::memcpy(&bv[c], b + c * W, sizeof(V));
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const float x = a[r * g.aRowStride];
            if (x == 0.0f)
                continue;
#pragma GCC unroll 2
            for (int c = 0; c < C; ++c)
                acc[r][c] += x * bv[c];
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c)
            std::memcpy(o + r * g.ldo + c * W, &acc[r][c], sizeof(V));
    }
}

/** Columns [j0, j0+C*W) of every row, in 4-row tiles. */
template <int W, int C>
[[gnu::always_inline]] inline void
gemmStrip(const GemmArgs &g, int j0)
{
    int i = 0;
    for (; i + 4 <= g.rows; i += 4)
        gemmTile<W, 4, C>(g, i, j0);
    for (; i < g.rows; ++i)
        gemmTile<W, 1, C>(g, i, j0);
}

/** Columns [j0, cols), fewer than 2W: one strip each of W, W/2, ..., 1. */
template <int W>
[[gnu::always_inline]] inline void
gemmTail(const GemmArgs &g, int j0)
{
    if (j0 + W <= g.cols) {
        gemmStrip<W, 1>(g, j0);
        j0 += W;
    }
    if constexpr (W > 1)
        gemmTail<W / 2>(g, j0);
}

/**
 * Column strips outermost, so one strip of B (depth x 2W floats)
 * stays in cache while every row tile streams past it.
 */
template <int W>
[[gnu::always_inline]] inline void
gemm(const GemmArgs &g)
{
    int j = 0;
    for (; j + 2 * W <= g.cols; j += 2 * W)
        gemmStrip<W, 2>(g, j);
    gemmTail<W>(g, j);
}

/**
 * out = v lane by lane; float to int truncates toward zero, like a
 * C cast.
 */
template <class To, class From>
[[gnu::always_inline]] inline void
convertLanes(const From &v, To &out)
{
    if constexpr (std::is_arithmetic_v<From>)
        out = static_cast<To>(v);
    else
        out = __builtin_convertvector(v, To);
}

// The lane math below takes and returns vectors by reference: a
// 32- or 64-byte vector passed by value from a function built for
// the baseline ISA is an ABI change GCC warns about (-Wpsabi), even
// when the function is always inlined. Each `m ? a : b` computes
// both a and b in every lane, so both must be defined everywhere.

/**
 * fdlibm's expm1f (e^x - 1) lane by lane, for the arguments
 * tanhLanes passes: finite and in (-2, 44). That range never reaches
 * expm1f's early returns (x <= -27 ln2, overflow, inf, NaN) nor its
 * k == 1 and k == 128 cases, so those are left out. Every other case
 * is computed in every lane and each lane picks its own, with the
 * scalar code's float operations in its order, so each lane returns
 * expm1f's bits.
 */
template <int W>
[[gnu::always_inline]] inline void
expm1Lanes(const typename Lanes<W>::type &x, typename Lanes<W>::type &out)
{
    using V = typename Lanes<W>::type;
    using U = typename Lanes<W>::bits;
    using I = typename Lanes<W>::ints;
    const float ln2Hi = 6.9313812256e-01f;  // 0x3f317180
    const float ln2Lo = 9.0580006145e-06f;  // 0x3717f7d1
    const float invLn2 = 1.4426950216e+00f; // 0x3fb8aa3b
    const float q1 = -3.3333335072e-02f;    // 0xbd088889
    const float q2 = 1.5873016091e-03f;     // 0x3ad00d01
    const float q3 = -7.9365076090e-05f;    // 0xb8a670cd
    const float q4 = 4.0082177293e-06f;     // 0x36867e54
    const float q5 = -2.0109921195e-07f;    // 0xb457edbb

    const U sign = __builtin_bit_cast(U, x) & 0x80000000u;
    const U hx = __builtin_bit_cast(U, x) & 0x7fffffffu;

    // Argument reduction x = k ln2 + r, with r = hi - lo and c the
    // rounding error of that subtraction: |x| <= 0.5 ln2 takes k = 0,
    // |x| < 1.5 ln2 takes k = +-1 by x's sign, anything larger rounds
    // x / ln2 +- 0.5 toward zero. t = k gives fdlibm's own hi and lo
    // for k = +-1 (t * ln2Hi is exact), and for k = 0 it leaves r = x
    // and c = 0, as fdlibm's skipped reduction does.
    I kRound;
    convertLanes(invLn2 * x + __builtin_bit_cast(V, sign | 0x3f000000u),
                 kRound);
    const I kUnit = 1 - 2 * __builtin_bit_cast(I, sign >> 31);
    const I k = hx > 0x3eb17218u ? (hx < 0x3f851592u ? kUnit : kRound) : 0;
    V t;
    convertLanes(k, t);
    const V hi = x - t * ln2Hi;
    const V lo = t * ln2Lo;
    const V r = hi - lo;
    const V c = (hi - r) - lo;

    const V hfx = 0.5f * r;
    const V hxs = r * hfx;
    const V r1 =
        1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    const V t3 = 3.0f - r1 * hfx;
    const V e0 = hxs * ((r1 - t3) / (6.0f - r * t3));
    const V kZero = r - (r * e0 - hxs);
    const V e = (r * (e0 - c) - c) - hxs;
    const V kMinusOne = 0.5f * (r - e) - 0.5f;

    // The remaining cases scale by 2^k by adding k to the exponent
    // bits. Unsigned lanes wrap where fdlibm's int adds a negative k,
    // and shift counts stay in [0, 31] in the lanes that take
    // another case.
    const U ku = __builtin_bit_cast(U, k);
    const U scale = ku << 23;
    // k <= -2 or k > 56.
    const V far =
        __builtin_bit_cast(V, __builtin_bit_cast(U, 1.0f - (e - r)) + scale) -
        1.0f;
    // 2 <= k < 23, with t = 1 - 2^-k.
    const V oneMinus =
        __builtin_bit_cast(V, 0x3f800000u - (0x1000000u >> (ku & 31u)));
    const V below23 = __builtin_bit_cast(
        V, __builtin_bit_cast(U, oneMinus - (e - r)) + scale);
    // 23 <= k <= 56, with t = 2^-k.
    const V twoToMinusK = __builtin_bit_cast(V, (0x7fu - ku) << 23);
    const V from23 = __builtin_bit_cast(
        V, __builtin_bit_cast(U, (r - (e + twoToMinusK)) + 1.0f) + scale);

    V y = k < 23 ? below23 : from23;
    // k <= -2 or k > 56, tested as one unsigned range: two signed
    // compares here made GCC 12 split the 16-lane blend into scalars.
    y = ku + 1u > 57u ? far : y;
    y = k == -1 ? kMinusOne : y;
    y = k == 0 ? kZero : y;
    // |x| < 2^-25 returns x.
    out = hx < 0x33000000u ? x : y;
}

/**
 * fdlibm's tanhf lane by lane, bit-identical to it for every float,
 * NaN payloads included: |x| >= 1 takes 1 - 2/(t + 2) with
 * t = expm1(2|x|), smaller |x| takes -t/(t + 2) with
 * t = expm1(-2|x|); both quotients come from one division.
 */
template <int W>
[[gnu::always_inline]] inline void
tanhLanes(const typename Lanes<W>::type &x, typename Lanes<W>::type &out)
{
    using V = typename Lanes<W>::type;
    using U = typename Lanes<W>::bits;
    const U sign = __builtin_bit_cast(U, x) & 0x80000000u;
    const U ix = __builtin_bit_cast(U, x) & 0x7fffffffu;
    // |x| < 22 (a NaN's bits compare above). The other lanes, whose
    // result is fixed, run expm1 on 0 instead, so no lane converts an
    // out-of-range float to int.
    const auto inRange = ix < 0x41b00000u;
    const V ax = __builtin_bit_cast(V, inRange ? ix : 0u);
    const auto big = ix >= 0x3f800000u;
    const V twoAx = 2.0f * ax;
    V t;
    expm1Lanes<W>(big ? twoAx : -twoAx, t);
    const V q = (big ? 2.0f : -t) / (t + 2.0f);
    // |x| >= 22 and inf: fdlibm's 1 - tiny, which rounds to 1.
    const V z = inRange ? (big ? 1.0f - q : q) : 1.0f;
    // z > 0 in every lane, so setting the sign bit is fdlibm's -z.
    const V signedZ = __builtin_bit_cast(V, __builtin_bit_cast(U, z) | sign);
    // |x| < 2^-55 (and +-0) takes x * (1 + x). For a NaN, x + x is
    // fdlibm's 1/x +- 1: the quieted x.
    out = ix < 0x24000000u ? x * (1.0f + x)
                           : (ix > 0x7f800000u ? x + x : signedZ);
}

/**
 * GELU (tanh approximation) and its derivative at x[0, W), with the
 * scalar formula's float operations in its order.
 */
template <int W>
[[gnu::always_inline]] inline void
geluLanes(const float *x, float *value, float *slope)
{
    using V = typename Lanes<W>::type;
    V v;
    std::memcpy(&v, x, sizeof(V));
    const float c = 0.7978845608028654f; // sqrt(2/pi)
    V t;
    tanhLanes<W>(c * (v + 0.044715f * v * v * v), t);
    const V sech2 = 1.0f - t * t;
    const V val = 0.5f * v * (1.0f + t);
    const V slp = 0.5f * (1.0f + t) +
                  0.5f * v * sech2 * c * (1.0f + 3.0f * 0.044715f * v * v);
    std::memcpy(value, &val, sizeof(V));
    std::memcpy(slope, &slp, sizeof(V));
}

/** W lanes at a time, the tail one float at a time. */
template <int W>
[[gnu::always_inline]] inline void
gelu(const float *x, float *value, float *slope, std::size_t n)
{
    std::size_t i = 0;
    for (; i + W <= n; i += W)
        geluLanes<W>(x + i, value + i, slope + i);
    for (; i < n; ++i)
        geluLanes<1>(x + i, value + i, slope + i);
}

template <int W>
[[gnu::always_inline]] inline void
tanhOf(const float *x, float *out, std::size_t n)
{
    using V = typename Lanes<W>::type;
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        V v;
        std::memcpy(&v, x + i, sizeof(V));
        tanhLanes<W>(v, v);
        std::memcpy(out + i, &v, sizeof(V));
    }
    for (; i < n; ++i)
        tanhLanes<1>(x[i], out[i]);
}

// Each instruction set's entry points instantiate the always_inline
// templates above in their own target, and take pointers, so no
// vector crosses a call.
#if defined(__x86_64__)
// No "fma" in any target: together with -ffp-contract=off this keeps
// every multiply and add a separate rounding, as in the naive loop
// and in fdlibm.
__attribute__((target("avx512f"))) void
gemmAvx512(const GemmArgs &g)
{
    gemm<16>(g);
}

__attribute__((target("avx512f"))) void
geluAvx512(const float *x, float *value, float *slope, std::size_t n)
{
    gelu<16>(x, value, slope, n);
}

__attribute__((target("avx512f"))) void
tanhAvx512(const float *x, float *out, std::size_t n)
{
    tanhOf<16>(x, out, n);
}

__attribute__((target("avx2"))) void
gemmAvx2(const GemmArgs &g)
{
    gemm<8>(g);
}

__attribute__((target("avx2"))) void
geluAvx2(const float *x, float *value, float *slope, std::size_t n)
{
    gelu<8>(x, value, slope, n);
}

__attribute__((target("avx2"))) void
tanhAvx2(const float *x, float *out, std::size_t n)
{
    tanhOf<8>(x, out, n);
}

void
gemmSse2(const GemmArgs &g)
{
    gemm<4>(g);
}

void
geluSse2(const float *x, float *value, float *slope, std::size_t n)
{
    gelu<4>(x, value, slope, n);
}

void
tanhSse2(const float *x, float *out, std::size_t n)
{
    tanhOf<4>(x, out, n);
}
#else
void
gemmPortable(const GemmArgs &g)
{
    gemm<4>(g);
}

void
geluPortable(const float *x, float *value, float *slope, std::size_t n)
{
    gelu<4>(x, value, slope, n);
}

void
tanhPortable(const float *x, float *out, std::size_t n)
{
    tanhOf<4>(x, out, n);
}
#endif

} // namespace

std::span<const GemmKernel>
gemmKernels()
{
#if defined(__x86_64__)
    static const GemmKernel kernels[] = {
        {"avx512f", gemmAvx512, geluAvx512, tanhAvx512,
         __builtin_cpu_supports("avx512f") != 0},
        {"avx2", gemmAvx2, geluAvx2, tanhAvx2,
         __builtin_cpu_supports("avx2") != 0},
        {"sse2", gemmSse2, geluSse2, tanhSse2, true},
    };
#else
    static const GemmKernel kernels[] = {
        {"portable", gemmPortable, geluPortable, tanhPortable, true},
    };
#endif
    return kernels;
}

const GemmKernel &
gemmKernel()
{
    static const GemmKernel &chosen = []() -> const GemmKernel & {
        const auto all = gemmKernels();
        return *std::find_if(all.begin(), all.end(),
                             [](const GemmKernel &k) { return k.supported; });
    }();
    return chosen;
}

void
matmulForward(const Tensor &a, const Tensor &b, Tensor &out,
              const GemmKernel &kernel)
{
    kernel.run({.rows = a.rows(),
                .cols = b.cols(),
                .depth = a.cols(),
                .a = a.data().data(),
                .aRowStride = a.cols(),
                .aDepthStride = 1,
                .b = b.data().data(),
                .ldb = b.cols(),
                .o = out.data().data(),
                .ldo = b.cols()});
}

void
matmulBackwardA(const Tensor &g, const Tensor &b, Tensor &da,
                const GemmKernel &kernel)
{
    const int m = g.rows();
    const int n = g.cols();
    const int k = b.rows();
    // b^T in 16 x 16 blocks: row by row, every write lands on a new
    // cache line, and at power-of-two widths those lines crowd into a
    // few cache sets (3-5x slower at the training shapes).
    constexpr int kBlock = 16;
    Tensor bt = Tensor::uninitialized({n, k});
    const float *B = b.data().data();
    float *BT = bt.data().data();
    for (int k0 = 0; k0 < k; k0 += kBlock) {
        const int k1 = std::min(k0 + kBlock, k);
        for (int j0 = 0; j0 < n; j0 += kBlock) {
            const int j1 = std::min(j0 + kBlock, n);
            for (int kk = k0; kk < k1; ++kk) {
                for (int j = j0; j < j1; ++j)
                    BT[static_cast<std::size_t>(j) * k + kk] =
                        B[static_cast<std::size_t>(kk) * n + j];
            }
        }
    }
    kernel.run({.rows = m,
                .cols = k,
                .depth = n,
                .a = g.data().data(),
                .aRowStride = n,
                .aDepthStride = 1,
                .b = BT,
                .ldb = k,
                .o = da.data().data(),
                .ldo = k});
}

void
matmulBackwardB(const Tensor &a, const Tensor &g, Tensor &db,
                const GemmKernel &kernel)
{
    kernel.run({.rows = a.cols(),
                .cols = g.cols(),
                .depth = a.rows(),
                .a = a.data().data(),
                .aRowStride = 1,
                .aDepthStride = a.cols(),
                .b = g.data().data(),
                .ldb = g.cols(),
                .o = db.data().data(),
                .ldo = g.cols()});
}

} // namespace autograd_detail
} // namespace adapipe
