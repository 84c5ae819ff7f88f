#include "autograd/gemm.h"

#include <algorithm>
#include <cstring>

namespace adapipe {
namespace autograd_detail {

namespace {

/** W floats in one GCC vector; W == 1 is a plain float. */
template <int W>
struct Lanes
{
    typedef float type __attribute__((vector_size(W * sizeof(float))));
};
template <>
struct Lanes<1>
{
    using type = float;
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

#if defined(__x86_64__)
// No "fma" in any target: together with -ffp-contract=off this keeps
// the multiply and the add separate roundings, as in the naive loop.
__attribute__((target("avx512f"))) void
gemmAvx512(const GemmArgs &g)
{
    gemm<16>(g);
}

__attribute__((target("avx2"))) void
gemmAvx2(const GemmArgs &g)
{
    gemm<8>(g);
}

void
gemmSse2(const GemmArgs &g)
{
    gemm<4>(g);
}
#else
void
gemmPortable(const GemmArgs &g)
{
    gemm<4>(g);
}
#endif

} // namespace

std::span<const GemmKernel>
gemmKernels()
{
#if defined(__x86_64__)
    static const GemmKernel kernels[] = {
        {"avx512f", gemmAvx512, __builtin_cpu_supports("avx512f") != 0},
        {"avx2", gemmAvx2, __builtin_cpu_supports("avx2") != 0},
        {"sse2", gemmSse2, true},
    };
#else
    static const GemmKernel kernels[] = {
        {"portable", gemmPortable, true},
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
