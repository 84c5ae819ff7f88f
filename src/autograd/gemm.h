/**
 * @file
 * The per-width SIMD kernels of the autograd library: a
 * register-blocked matmul micro-kernel and GELU with its own tanh,
 * each built once per SIMD width.
 *
 * Every matmul product of the autograd engine (forward, dA, dB) is
 * one call of O += op(A) . B. The kernel keeps a tile of 4 rows x 2
 * vectors of O in registers for the whole depth loop, and each SIMD
 * lane runs the naive triple loop's own sequence for its element:
 * start from O, then one multiply and one add per depth index p, in
 * ascending p, skipping every p whose A entry is exactly zero. No
 * lane reassociates, so every width is bit-identical to the naive
 * loop; the library builds with -ffp-contract=off so the compiler
 * cannot fuse the multiply and add either.
 *
 * GELU's tanh is fdlibm's tanhf (with its expm1f), the function
 * glibc's libm ships, run lane by lane: each lane does that code's
 * float operations in its order, its branches evaluated side by side
 * and blended. So every width returns tanhf's bits for every float,
 * and no result depends on the host's libm.
 *
 * Internal to the autograd library; kernel tests and benchmarks read
 * the kernel list to cover every width the host supports.
 */

#ifndef ADAPIPE_AUTOGRAD_GEMM_H
#define ADAPIPE_AUTOGRAD_GEMM_H

#include <cstddef>
#include <span>

#include "autograd/tensor.h"

namespace adapipe {
namespace autograd_detail {

/**
 * One product O += op(A) . B over row-major float buffers, where
 * op(A)(i, p) = a[i * aRowStride + p * aDepthStride], so a transposed
 * A is read in place by swapping the strides.
 */
struct GemmArgs
{
    /** Rows of O and op(A). */
    int rows = 0;
    /** Columns of O and B. */
    int cols = 0;
    /** Summation length: columns of op(A), rows of B. */
    int depth = 0;
    const float *a = nullptr;
    std::ptrdiff_t aRowStride = 0;
    std::ptrdiff_t aDepthStride = 0;
    /** B [depth, cols] with row stride ldb. */
    const float *b = nullptr;
    std::ptrdiff_t ldb = 0;
    /** O [rows, cols] with row stride ldo. */
    float *o = nullptr;
    std::ptrdiff_t ldo = 0;
};

/** The kernels built for one instruction set. */
struct GemmKernel
{
    /** Instruction set the kernels are built for, e.g. "avx2". */
    const char *name;
    void (*run)(const GemmArgs &args);
    /**
     * GELU (tanh approximation) of x[0, n): its value into value[i]
     * and its derivative into slope[i]. Either output may be x itself
     * (linearBiasGelu writes the slope over the pre-activation); the
     * two outputs must not overlap.
     */
    void (*gelu)(const float *x, float *value, float *slope,
                 std::size_t n);
    /** out[i] = tanh(x[i]) for i < n, fdlibm tanhf's bits; out may be x. */
    void (*tanh)(const float *x, float *out, std::size_t n);
    /** Whether this CPU can execute them. */
    bool supported;
};

/** Every kernel width in this build, widest first. */
std::span<const GemmKernel> gemmKernels();

/**
 * The widest supported kernels of gemmKernels(), picked once per
 * process from the CPU's feature bits.
 */
const GemmKernel &gemmKernel();

/** out += a . b for a [m,k], b [k,n]; out [m,n]. */
void matmulForward(const Tensor &a, const Tensor &b, Tensor &out,
                   const GemmKernel &kernel = gemmKernel());

/**
 * da += g . b^T for g [m,n], b [k,n]; da [m,k]. b is transposed once
 * into a scratch tensor so the kernel streams it by rows.
 */
void matmulBackwardA(const Tensor &g, const Tensor &b, Tensor &da,
                     const GemmKernel &kernel = gemmKernel());

/**
 * db += a^T . g for a [m,k], g [m,n]; db [k,n]. a^T is read in place
 * through strides.
 */
void matmulBackwardB(const Tensor &a, const Tensor &g, Tensor &db,
                     const GemmKernel &kernel = gemmKernel());

} // namespace autograd_detail
} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_GEMM_H
