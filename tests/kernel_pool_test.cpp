/**
 * @file
 * Bit-equality tests for the matmul micro-kernel, the lane tanh and
 * GELU, the fused linear ops and the row-wise ops against reference
 * code, plus regression tests for the tensor buffer pool (checkpoint
 * replays must recycle buffers instead of hitting the heap every
 * iteration).
 *
 * The references below ARE the pre-optimization loops, verbatim:
 * same loop nesting, same exact-zero skips, same summation order.
 * The tanh reference is fdlibm's tanhf and expm1f, the scalar code
 * glibc's libm ships. Every comparison is on the bits of each
 * float — bit equality, not tolerance — because the pipeline
 * runtime's determinism contract is bit-exact losses. The kernel
 * tests run once per SIMD width in the build, not only for the one
 * the dispatch picks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/gemm.h"
#include "autograd/module.h"
#include "autograd/ops.h"
#include "autograd/tensor_pool.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace adapipe {
namespace {

using autograd_detail::GemmKernel;

/** Naive C = A . B with the exact-zero skip. */
Tensor
naiveMatmul(const Tensor &av, const Tensor &bv)
{
    const int m = av.rows();
    const int k = av.cols();
    const int n = bv.cols();
    Tensor out({m, n});
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float aik = av.at(i, kk);
            if (aik == 0.0f)
                continue;
            for (int j = 0; j < n; ++j)
                out.at(i, j) += aik * bv.at(kk, j);
        }
    }
    return out;
}

/** Naive dA = g . B^T, column-striding B like the original loop. */
Tensor
naiveBackwardA(const Tensor &g, const Tensor &bv)
{
    const int m = g.rows();
    const int n = g.cols();
    const int k = bv.rows();
    Tensor da({m, k});
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            const float gij = g.at(i, j);
            if (gij == 0.0f)
                continue;
            for (int kk = 0; kk < k; ++kk)
                da.at(i, kk) += gij * bv.at(kk, j);
        }
    }
    return da;
}

/** Naive dB = A^T . g. */
Tensor
naiveBackwardB(const Tensor &av, const Tensor &g)
{
    const int m = av.rows();
    const int k = av.cols();
    const int n = g.cols();
    Tensor db({k, n});
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float aik = av.at(i, kk);
            if (aik == 0.0f)
                continue;
            for (int j = 0; j < n; ++j)
                db.at(kk, j) += aik * g.at(i, j);
        }
    }
    return db;
}

/** layerNorm's forward and the values its backward keeps. */
struct NaiveLayerNorm
{
    Tensor out;
    Tensor xhat;
    std::vector<float> rstd;
};

NaiveLayerNorm
naiveLayerNorm(const Tensor &av, const Tensor &gamma, const Tensor &beta,
               float eps)
{
    const int m = av.rows();
    const int n = av.cols();
    Tensor out({m, n});
    Tensor xhat({m, n});
    std::vector<float> rstd(m);
    for (int i = 0; i < m; ++i) {
        float mean = 0.0f;
        for (int j = 0; j < n; ++j)
            mean += av.at(i, j);
        mean /= n;
        float var = 0.0f;
        for (int j = 0; j < n; ++j) {
            const float d = av.at(i, j) - mean;
            var += d * d;
        }
        var /= n;
        const float r = 1.0f / std::sqrt(var + eps);
        rstd[i] = r;
        for (int j = 0; j < n; ++j) {
            const float xh = (av.at(i, j) - mean) * r;
            xhat.at(i, j) = xh;
            out.at(i, j) = xh * gamma[j] + beta[j];
        }
    }
    return {std::move(out), std::move(xhat), std::move(rstd)};
}

/** layerNorm's backward: the contributions to a, gamma and beta. */
void
naiveLayerNormBackward(const Tensor &g, const NaiveLayerNorm &fwd,
                       const Tensor &gamma, Tensor &da, Tensor &dg,
                       Tensor &db)
{
    const Tensor &xhat = fwd.xhat;
    const std::vector<float> &rstd = fwd.rstd;
    const int m = g.rows();
    const int n = g.cols();
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j)
            dg[j] += g.at(i, j) * xhat.at(i, j);
    }
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j)
            db[j] += g.at(i, j);
    }
    for (int i = 0; i < m; ++i) {
        // dxhat_j = g_j * gamma_j
        float sum_dx = 0.0f;
        float sum_dx_xhat = 0.0f;
        for (int j = 0; j < n; ++j) {
            const float dx = g.at(i, j) * gamma[j];
            sum_dx += dx;
            sum_dx_xhat += dx * xhat.at(i, j);
        }
        for (int j = 0; j < n; ++j) {
            const float dx = g.at(i, j) * gamma[j];
            da.at(i, j) = rstd[i] * (dx - sum_dx / n -
                                     xhat.at(i, j) * sum_dx_xhat / n);
        }
    }
}

/** softmaxRows' forward, with an optional causal mask. */
Tensor
naiveSoftmaxRows(const Tensor &av, bool causal)
{
    const int m = av.rows();
    const int n = av.cols();
    Tensor out({m, n});
    for (int i = 0; i < m; ++i) {
        const int limit = causal ? i + 1 : n;
        float max_v = -1e30f;
        for (int j = 0; j < limit; ++j)
            max_v = std::max(max_v, av.at(i, j));
        float denom = 0.0f;
        for (int j = 0; j < limit; ++j) {
            const float e = std::exp(av.at(i, j) - max_v);
            out.at(i, j) = e;
            denom += e;
        }
        for (int j = 0; j < limit; ++j)
            out.at(i, j) /= denom;
        // masked entries stay exactly zero
    }
    return out;
}

/** softmaxRows' backward from its probabilities. */
Tensor
naiveSoftmaxRowsBackward(const Tensor &g, const Tensor &probs, bool causal)
{
    const int m = g.rows();
    const int n = g.cols();
    Tensor da({m, n});
    for (int i = 0; i < m; ++i) {
        const int limit = causal ? i + 1 : n;
        float dot = 0.0f;
        for (int j = 0; j < limit; ++j)
            dot += g.at(i, j) * probs.at(i, j);
        for (int j = 0; j < limit; ++j)
            da.at(i, j) = probs.at(i, j) * (g.at(i, j) - dot);
    }
    return da;
}

/** The attention's transpose, forward. */
Tensor
naiveTranspose(const Tensor &av)
{
    Tensor at({av.cols(), av.rows()});
    for (int i = 0; i < av.rows(); ++i) {
        for (int j = 0; j < av.cols(); ++j)
            at.at(j, i) = av.at(i, j);
    }
    return at;
}

/** The attention's transpose, backward: adds g^T to a zero tensor. */
Tensor
naiveTransposeBackward(const Tensor &g, const Tensor &av)
{
    Tensor da(av.shape());
    for (int i = 0; i < da.rows(); ++i) {
        for (int j = 0; j < da.cols(); ++j)
            da.at(i, j) += g.at(j, i);
    }
    return da;
}

/** Bit equality: tells -0 from +0 and NaN payloads apart. */
void
expectBitIdentical(const Tensor &got, const Tensor &want)
{
    ASSERT_TRUE(got.sameShape(want));
    for (std::int64_t i = 0; i < got.numel(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "element " << i << ": " << got[i] << " vs " << want[i];
    }
}

/**
 * A leaf's gradient as the engine leaves it: a zero buffer plus the
 * op's contribution (+0 + -0 is +0, so this is not the contribution
 * itself).
 */
Tensor
accumulated(const Tensor &part)
{
    Tensor t(part.shape());
    t.add_(part);
    return t;
}

float
floatFromBits(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

std::uint32_t
bitsOf(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

// fdlibm's expm1f and tanhf as glibc ships them (s_expm1f.c,
// s_tanhf.c), verbatim but for the bit access and the errno and
// exception-flag side effects, which have no effect on the result.

float
fdlibmExpm1f(float x)
{
    const float huge = 1.0e+30f, tiny = 1.0e-30f, one = 1.0f;
    const float o_threshold = 8.8721679688e+01f; /* 0x42b17180 */
    const float ln2_hi = 6.9313812256e-01f;      /* 0x3f317180 */
    const float ln2_lo = 9.0580006145e-06f;      /* 0x3717f7d1 */
    const float invln2 = 1.4426950216e+00f;      /* 0x3fb8aa3b */
    const float Q1 = -3.3333335072e-02f;         /* 0xbd088889 */
    const float Q2 = 1.5873016091e-03f;          /* 0x3ad00d01 */
    const float Q3 = -7.9365076090e-05f;         /* 0xb8a670cd */
    const float Q4 = 4.0082177293e-06f;          /* 0x36867e54 */
    const float Q5 = -2.0109921195e-07f;         /* 0xb457edbb */
    float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
    std::int32_t k;
    std::uint32_t hx = bitsOf(x);
    const std::uint32_t xsb = hx & 0x80000000u; /* sign bit of x */
    hx &= 0x7fffffffu;                          /* high word of |x| */

    /* filter out huge and non-finite argument */
    if (hx >= 0x4195b844u) {     /* if |x|>=27*ln2 */
        if (hx >= 0x42b17218u) { /* if |x|>=88.721... */
            if (hx > 0x7f800000u)
                return x + x; /* NaN */
            if (hx == 0x7f800000u)
                return (xsb == 0) ? x : -1.0f; /* exp(+-inf)={inf,-1} */
            if (x > o_threshold)
                return huge * huge; /* overflow */
        }
        if (xsb != 0) /* x < -27*ln2, return -1.0 with inexact */
            return tiny - one;
    }

    /* argument reduction */
    if (hx > 0x3eb17218u) {     /* if  |x| > 0.5 ln2 */
        if (hx < 0x3F851592u) { /* and |x| < 1.5 ln2 */
            if (xsb == 0) {
                hi = x - ln2_hi;
                lo = ln2_lo;
                k = 1;
            } else {
                hi = x + ln2_hi;
                lo = -ln2_lo;
                k = -1;
            }
        } else {
            k = static_cast<std::int32_t>(invln2 * x +
                                          ((xsb == 0) ? 0.5f : -0.5f));
            t = static_cast<float>(k);
            hi = x - t * ln2_hi; /* t*ln2_hi is exact here */
            lo = t * ln2_lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < 0x33000000u) { /* when |x|<2**-25, return x */
        t = huge + x; /* return x with inexact flags when x!=0 */
        return x - (t - (huge + x));
    } else
        k = 0;

    /* x is now in primary range */
    hfx = 0.5f * x;
    hxs = x * hfx;
    r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    t = 3.0f - r1 * hfx;
    e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs); /* c is 0 */
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    if (k == 1) {
        if (x < -0.25f)
            return -2.0f * (e - (x + 0.5f));
        return one + 2.0f * (x - e);
    }
    if (k <= -2 || k > 56) { /* suffice to return exp(x)-1 */
        y = one - (e - x);
        if (k == 128)
            y = y * 2.0f * 0x1p127f;
        else /* add k to y's exponent */
            y = floatFromBits(bitsOf(y) + (static_cast<std::uint32_t>(k) << 23));
        return y - one;
    }
    if (k < 23) {
        t = floatFromBits(0x3f800000u - (0x1000000u >> k)); /* t=1-2^-k */
        y = t - (e - x);
        y = floatFromBits(bitsOf(y) + (static_cast<std::uint32_t>(k) << 23));
    } else {
        t = floatFromBits(static_cast<std::uint32_t>(0x7f - k) << 23); /* 2^-k */
        y = x - (e + t);
        y += one;
        y = floatFromBits(bitsOf(y) + (static_cast<std::uint32_t>(k) << 23));
    }
    return y;
}

float
fdlibmTanhf(float x)
{
    const float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
    float t, z;
    const std::uint32_t jx = bitsOf(x);
    const std::uint32_t ix = jx & 0x7fffffffu;
    const bool positive = (jx & 0x80000000u) == 0;

    /* x is INF or NaN */
    if (ix >= 0x7f800000u) {
        if (positive)
            return one / x + one; /* tanh(+-inf)=+-1 */
        return one / x - one;     /* tanh(NaN) = NaN */
    }

    /* |x| < 22 */
    if (ix < 0x41b00000u) { /* |x|<22 */
        if (ix == 0)
            return x; /* x == +-0 */
        if (ix < 0x24000000u) /* |x|<2**-55 */
            return x * (one + x); /* tanh(small) = small */
        if (ix >= 0x3f800000u) { /* |x|>=1  */
            t = fdlibmExpm1f(two * std::fabs(x));
            z = one - two / (t + two);
        } else {
            t = fdlibmExpm1f(-two * std::fabs(x));
            z = -t / (t + two);
        }
        /* |x| > 22, return +-1 */
    } else {
        z = one - tiny; /* raised inexact flag */
    }
    return positive ? z : -z;
}

/**
 * GELU's value and derivative at one point: the scalar formula the
 * kernels' lanes follow, on the reference tanh.
 */
struct GeluPoint
{
    float value;
    float slope;
};

GeluPoint
geluAt(float x)
{
    const float c = 0.7978845608028654f; // sqrt(2/pi)
    const float t = fdlibmTanhf(c * (x + 0.044715f * x * x * x));
    const float sech2 = 1.0f - t * t;
    return {0.5f * x * (1.0f + t),
            0.5f * (1.0f + t) +
                0.5f * x * sech2 * c * (1.0f + 3.0f * 0.044715f * x * x)};
}

/** fdlibm expm1f's k for an argument y >= 1.5 ln2. */
int
expm1K(float y)
{
    return static_cast<int>(1.4426950216e+00f * y + 0.5f);
}

/**
 * The smallest x in [1, 22) at which expm1f's k for tanh's argument
 * 2x reaches @p k.
 */
std::uint32_t
firstTanhInputWithK(int k)
{
    std::uint32_t lo = bitsOf(1.0f);
    std::uint32_t hi = bitsOf(22.0f);
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (expm1K(2.0f * floatFromBits(mid)) >= k)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/**
 * Inputs for the tanh tests: every 4099th float bit pattern (about
 * 1M), zeros, denormals, infinities, quiet and signalling NaNs of
 * both signs with payloads, and +-2 ulp around every branch
 * threshold of tanhf and of expm1f at the arguments tanhf passes it,
 * in both signs.
 */
std::vector<float>
tanhInputs()
{
    std::vector<float> xs;
    for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099)
        xs.push_back(floatFromBits(static_cast<std::uint32_t>(u)));
    const std::uint32_t specials[] = {
        0x00000000, 0x00000001, 0x00000002, 0x00400000, 0x007fffff,
        0x00800000, 0x7f7fffff, 0x7f800000, // +inf
        0x7fc00000, 0x7fc12345, 0x7fffffff, // quiet NaNs
        0x7f800001, 0x7fa00000, 0x7f812345, // signalling NaNs
    };
    std::vector<std::uint32_t> thresholds = {
        0x24000000, // tanhf: |x| = 2^-55
        0x3f800000, // tanhf: |x| = 1
        0x41b00000, // tanhf: |x| = 22
        // expm1f at -2|x|, so |x| is half the threshold: |2x| = 2^-25,
        // 0.5 ln2 (k = 0 / -1) and 1.5 ln2 (k = -1 / -2).
        0x33000000 - 0x00800000,
        0x3eb17218 - 0x00800000,
        0x3f851592 - 0x00800000,
        // expm1f at 2|x|: k = 22 / 23 and k = 56 / 57.
        firstTanhInputWithK(23),
        firstTanhInputWithK(57),
    };
    for (std::uint32_t u : specials) {
        xs.push_back(floatFromBits(u));
        xs.push_back(floatFromBits(u | 0x80000000u));
    }
    for (std::uint32_t t : thresholds) {
        for (std::uint32_t u = t - 2; u <= t + 2; ++u) {
            xs.push_back(floatFromBits(u));
            xs.push_back(floatFromBits(u | 0x80000000u));
        }
    }
    return xs;
}

/**
 * Compares @p got[i] with @p want(xs[i]) bit for bit, reporting the
 * mismatch count and the first few inputs.
 */
template <class Reference>
void
expectSameBits(const std::vector<float> &xs, const std::vector<float> &got,
               Reference want, const std::string &what)
{
    ASSERT_EQ(got.size(), xs.size());
    std::size_t mismatches = 0;
    std::ostringstream first;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::uint32_t w = bitsOf(want(xs[i]));
        if (bitsOf(got[i]) == w)
            continue;
        if (++mismatches <= 8) {
            first << std::hex << " x=0x" << bitsOf(xs[i]) << ": 0x"
                  << bitsOf(got[i]) << " vs 0x" << w << ";";
        }
    }
    EXPECT_EQ(mismatches, 0u) << what << " mismatches:" << first.str();
}

struct Shape
{
    int m, k, n;
};

/**
 * Odd and skinny shapes in both orientations, plus shapes around
 * every width's tile edges: 4-row tiles (m = 1, 3, 4, 5, 65) and
 * strips of 2W columns for W = 4, 8, 16 (2W-1, 2W, 2W+1 columns, so
 * the W, W/2, ..., 1 tails all run), at depth 1 and at depth 2W±1.
 * {m, e, e} puts the edge on the output columns of all three
 * products (forward: n, dA: k, dB: n) and on dB's output rows (k).
 */
std::vector<Shape>
testShapes()
{
    std::vector<Shape> shapes = {
        {1, 1, 1},   {3, 5, 7},    {17, 13, 9},    {31, 32, 33},
        {32, 64, 1}, {1, 129, 64}, {33, 127, 131}, {64, 2, 150},
    };
    for (int m : {1, 3, 4, 5, 65}) {
        for (int w : {4, 8, 16}) {
            for (int e : {2 * w - 1, 2 * w, 2 * w + 1}) {
                shapes.push_back({m, e, e});
                shapes.push_back({m, 1, e});
            }
        }
    }
    return shapes;
}

/** Random tensor with exact zeros planted to exercise the skips. */
Tensor
randnWithZeros(std::vector<int> shape, Rng &rng)
{
    Tensor t = Tensor::randn(shape, rng);
    for (std::int64_t i = 0; i < t.numel(); i += 5)
        t[i] = 0.0f;
    return t;
}

TEST(KernelEquivalence, MatmulForwardMatchesNaive)
{
    for (std::uint64_t seed : {1u, 99u}) {
        Rng rng(seed);
        for (const Shape &s : testShapes()) {
            const Tensor a = randnWithZeros({s.m, s.k}, rng);
            const Tensor b = randnWithZeros({s.k, s.n}, rng);
            NoGradGuard no_grad;
            const Variable out =
                ops::matmul(Variable(a), Variable(b));
            expectBitIdentical(out.value(), naiveMatmul(a, b));
        }
    }
}

TEST(KernelEquivalence, MatmulBackwardMatchesNaive)
{
    for (std::uint64_t seed : {2u, 77u}) {
        Rng rng(seed);
        for (const Shape &s : testShapes()) {
            Variable a(randnWithZeros({s.m, s.k}, rng), true);
            Variable b(randnWithZeros({s.k, s.n}, rng), true);
            Variable out = ops::matmul(a, b);
            const Tensor g = randnWithZeros({s.m, s.n}, rng);
            a.zeroGrad();
            b.zeroGrad();
            out.backward(g);
            expectBitIdentical(a.grad(), naiveBackwardA(g, b.value()));
            expectBitIdentical(b.grad(), naiveBackwardB(a.value(), g));
        }
    }
}

/**
 * The KernelEquivalence tests above check the width the dispatch
 * picks, through ops::matmul. These run once per width in the build,
 * each named after its width (AllWidths/GemmWidth.<test>/<width>), so
 * a width this CPU cannot run shows up as skipped instead of going
 * untested without a word.
 */
class GemmWidth : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void
    SetUp() override
    {
        if (!kernel().supported)
            GTEST_SKIP() << kernel().name << " is not supported by this CPU";
    }

    /** The parameter indexes gemmKernels(), so test names stay stable. */
    const GemmKernel &
    kernel() const
    {
        return autograd_detail::gemmKernels()[GetParam()];
    }
};

TEST_P(GemmWidth, ForwardMatchesNaive)
{
    for (std::uint64_t seed : {1u, 99u}) {
        Rng rng(seed);
        for (const Shape &s : testShapes()) {
            const Tensor a = randnWithZeros({s.m, s.k}, rng);
            const Tensor b = randnWithZeros({s.k, s.n}, rng);
            Tensor out({s.m, s.n});
            autograd_detail::matmulForward(a, b, out, kernel());
            expectBitIdentical(out, naiveMatmul(a, b));
        }
    }
}

TEST_P(GemmWidth, BackwardMatchesNaive)
{
    for (std::uint64_t seed : {2u, 77u}) {
        Rng rng(seed);
        for (const Shape &s : testShapes()) {
            const Tensor a = randnWithZeros({s.m, s.k}, rng);
            const Tensor b = randnWithZeros({s.k, s.n}, rng);
            const Tensor g = randnWithZeros({s.m, s.n}, rng);
            Tensor da({s.m, s.k});
            autograd_detail::matmulBackwardA(g, b, da, kernel());
            expectBitIdentical(da, naiveBackwardA(g, b));
            Tensor db({s.k, s.n});
            autograd_detail::matmulBackwardB(a, g, db, kernel());
            expectBitIdentical(db, naiveBackwardB(a, g));
        }
    }
}

TEST_P(GemmWidth, ZeroUpperTriangleMatchesNaive)
{
    // Causal attention probabilities: row i is exactly zero past
    // column i, so the zero skip fires on a whole triangle (softmax
    // . V forward, and the same operand on the A side of dA and dB).
    Rng rng(5);
    for (int t : {1, 5, 17, 64}) {
        Tensor tri = Tensor::randn({t, t}, rng);
        for (int i = 0; i < t; ++i) {
            for (int j = i + 1; j < t; ++j)
                tri.at(i, j) = 0.0f;
        }
        const Tensor v = Tensor::randn({t, 33}, rng);
        const Tensor w = Tensor::randn({33, t}, rng);
        Tensor out({t, 33});
        autograd_detail::matmulForward(tri, v, out, kernel());
        expectBitIdentical(out, naiveMatmul(tri, v));
        Tensor da({t, 33});
        autograd_detail::matmulBackwardA(tri, w, da, kernel());
        expectBitIdentical(da, naiveBackwardA(tri, w));
        Tensor db({t, 33});
        autograd_detail::matmulBackwardB(tri, v, db, kernel());
        expectBitIdentical(db, naiveBackwardB(tri, v));
    }
}

TEST_P(GemmWidth, ZeroSkipKeepsInfAndNanOut)
{
    // 0 * inf and 0 * NaN are NaN, so this is the one input where
    // the exact-zero skip changes the result: a width that multiplies
    // through the zero instead of skipping it fails here. Each B-side
    // operand gets one row of inf, -inf and NaN whose A-side entries
    // are exactly zero on even rows.
    const float special[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
    const int m = 9;
    const int k = 7;
    const int n = 35;
    const int hot = 3;
    Rng rng(6);

    // Forward: row `hot` of b, column `hot` of a.
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    for (int j = 0; j < n; ++j)
        b.at(hot, j) = special[j % 3];
    for (int i = 0; i < m; i += 2)
        a.at(i, hot) = 0.0f;
    // dA = g . b^T reads b by columns: column `hot` of bc and of g.
    Tensor g = Tensor::randn({m, n}, rng);
    Tensor bc = Tensor::randn({k, n}, rng);
    for (int kk = 0; kk < k; ++kk)
        bc.at(kk, hot) = special[kk % 3];
    for (int i = 0; i < m; i += 2)
        g.at(i, hot) = 0.0f;
    // dB = a^T . g2 reads a by columns: row `hot` of g2, of a2.
    Tensor a2 = Tensor::randn({m, k}, rng);
    Tensor g2 = Tensor::randn({m, n}, rng);
    for (int j = 0; j < n; ++j)
        g2.at(hot, j) = special[j % 3];
    for (int kk = 0; kk < k; kk += 2)
        a2.at(hot, kk) = 0.0f;

    const Tensor want_out = naiveMatmul(a, b);
    const Tensor want_da = naiveBackwardA(g, bc);
    const Tensor want_db = naiveBackwardB(a2, g2);
    // The references skip: a zeroed row stays finite, the next one
    // does not.
    EXPECT_TRUE(std::isfinite(want_out.at(0, 2)));
    EXPECT_FALSE(std::isfinite(want_out.at(1, 2)));
    EXPECT_TRUE(std::isfinite(want_da.at(0, 2)));
    EXPECT_FALSE(std::isfinite(want_da.at(1, 2)));
    EXPECT_TRUE(std::isfinite(want_db.at(0, 2)));
    EXPECT_FALSE(std::isfinite(want_db.at(1, 2)));

    Tensor out({m, n});
    autograd_detail::matmulForward(a, b, out, kernel());
    expectBitIdentical(out, want_out);
    Tensor da({m, k});
    autograd_detail::matmulBackwardA(g, bc, da, kernel());
    expectBitIdentical(da, want_da);
    Tensor db({k, n});
    autograd_detail::matmulBackwardB(a2, g2, db, kernel());
    expectBitIdentical(db, want_db);
}

TEST_P(GemmWidth, TanhMatchesFdlibm)
{
    const std::vector<float> xs = tanhInputs();
    std::vector<float> got(xs.size());
    kernel().tanh(xs.data(), got.data(), xs.size());
    expectSameBits(xs, got, fdlibmTanhf, kernel().name);
    // In place.
    std::vector<float> inPlace = xs;
    kernel().tanh(inPlace.data(), inPlace.data(), inPlace.size());
    expectSameBits(xs, inPlace, fdlibmTanhf,
                   std::string(kernel().name) + " in place");
    // One element per call: the scalar lanes of the tails.
    for (std::size_t i = 0; i < xs.size(); ++i)
        kernel().tanh(&xs[i], &got[i], 1);
    expectSameBits(xs, got, fdlibmTanhf,
                   std::string(kernel().name) + " one at a time");
}

TEST_P(GemmWidth, GeluMatchesScalarReference)
{
    // Every length up to 3 x 16 + 1 ends on every tail length of every
    // width, after zero, one and several whole vectors. Inputs mix
    // training-sized values with the special ones.
    Rng rng(8);
    const float specials[] = {0.0f,
                              -0.0f,
                              1e-30f,
                              -1e-40f,
                              25.0f,
                              -25.0f,
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t n = 0; n <= 49; ++n) {
        std::vector<float> x(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = i % 5 == 4 ? specials[(i / 5 + n) % std::size(specials)]
                              : static_cast<float>(rng.normal(0.0, 3.0));
        }
        std::vector<float> value(n);
        std::vector<float> slope(n);
        kernel().gelu(x.data(), value.data(), slope.data(), n);
        const std::string where =
            std::string(kernel().name) + " n=" + std::to_string(n);
        expectSameBits(x, value, [](float v) { return geluAt(v).value; },
                       where + " value");
        expectSameBits(x, slope, [](float v) { return geluAt(v).slope; },
                       where + " slope");

        // Each output over the input, as linearBiasGelu and the tanh
        // entry use it.
        std::vector<float> slopeInPlace = x;
        kernel().gelu(slopeInPlace.data(), value.data(),
                      slopeInPlace.data(), n);
        expectSameBits(x, value, [](float v) { return geluAt(v).value; },
                       where + " value, slope in place");
        expectSameBits(x, slopeInPlace,
                       [](float v) { return geluAt(v).slope; },
                       where + " slope in place");
        std::vector<float> valueInPlace = x;
        kernel().gelu(valueInPlace.data(), valueInPlace.data(),
                      slope.data(), n);
        expectSameBits(x, valueInPlace,
                       [](float v) { return geluAt(v).value; },
                       where + " value in place");
        expectSameBits(x, slope, [](float v) { return geluAt(v).slope; },
                       where + " slope, value in place");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, GemmWidth,
    ::testing::Range<std::size_t>(0, autograd_detail::gemmKernels().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(autograd_detail::gemmKernels()[info.param].name);
    });

TEST(KernelDispatch, PicksWidestSupportedKernel)
{
    const auto kernels = autograd_detail::gemmKernels();
    ASSERT_FALSE(kernels.empty());
    // The baseline width runs everywhere; the dispatch takes the
    // first (widest) width the CPU supports.
    EXPECT_TRUE(kernels.back().supported);
    const auto widest =
        std::find_if(kernels.begin(), kernels.end(),
                     [](const GemmKernel &k) { return k.supported; });
    EXPECT_EQ(&autograd_detail::gemmKernel(), &*widest);
    RecordProperty("dispatched_width", autograd_detail::gemmKernel().name);
}

TEST(TanhReference, MatchesLibmTanhf)
{
    // The reference is what libm computed before the lane tanh
    // replaced it, so losses recorded then still hold. glibc 2.36 was
    // checked on all 2^32 inputs; later glibc releases replace
    // several float functions with correctly rounded ones.
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ < 41
    const std::vector<float> xs = tanhInputs();
    std::vector<float> libm(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        libm[i] = std::tanh(xs[i]);
    expectSameBits(xs, libm, fdlibmTanhf, "libm tanhf");
#else
    GTEST_SKIP() << "libm is not a glibc before 2.41";
#endif
}

TEST(TanhLanes, DISABLED_EveryFloatMatchesFdlibmAtEveryWidth)
{
    // All 2^32 inputs at every width the CPU supports, in whole vectors
    // and one at a time, split over the hardware threads: about a
    // minute per width on one thread, so it runs only when asked
    // (--gtest_also_run_disabled_tests).
    const auto kernels = autograd_detail::gemmKernels();
    constexpr std::uint64_t kChunk = 1 << 16;
    constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
    std::vector<std::atomic<std::uint64_t>> mismatches(kernels.size());
    std::atomic<std::uint64_t> next{0};
    auto work = [&] {
        std::vector<float> x(kChunk);
        std::vector<float> want(kChunk);
        std::vector<float> got(kChunk);
        for (std::uint64_t c; (c = next++) < kChunks;) {
            for (std::uint64_t i = 0; i < kChunk; ++i) {
                x[i] = floatFromBits(
                    static_cast<std::uint32_t>(c * kChunk + i));
                want[i] = fdlibmTanhf(x[i]);
            }
            for (std::size_t w = 0; w < kernels.size(); ++w) {
                if (!kernels[w].supported)
                    continue;
                std::uint64_t bad = 0;
                kernels[w].tanh(x.data(), got.data(), kChunk);
                for (std::uint64_t i = 0; i < kChunk; ++i)
                    bad += bitsOf(got[i]) != bitsOf(want[i]);
                // One element per call: the scalar lanes of the tails.
                for (std::uint64_t i = 0; i < kChunk; ++i)
                    kernels[w].tanh(&x[i], &got[i], 1);
                for (std::uint64_t i = 0; i < kChunk; ++i)
                    bad += bitsOf(got[i]) != bitsOf(want[i]);
                mismatches[w] += bad;
            }
        }
    };
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    for (std::size_t w = 0; w < kernels.size(); ++w) {
        if (kernels[w].supported) {
            EXPECT_EQ(mismatches[w].load(), 0u) << kernels[w].name;
        }
    }
}

TEST(KernelEquivalence, LinearBiasMatchesUnfusedGraph)
{
    Rng rng(3);
    for (const Shape &s : testShapes()) {
        Variable x1(randnWithZeros({s.m, s.k}, rng), true);
        Variable w1(randnWithZeros({s.k, s.n}, rng), true);
        Variable b1(Tensor::randn({s.n}, rng), true);
        Variable x2 = x1.detach(true);
        Variable w2 = w1.detach(true);
        Variable b2 = b1.detach(true);

        Variable fused = ops::linearBias(x1, w1, b1);
        Variable unfused = ops::addBias(ops::matmul(x2, w2), b2);
        expectBitIdentical(fused.value(), unfused.value());

        const Tensor g = randnWithZeros({s.m, s.n}, rng);
        fused.backward(g);
        unfused.backward(g);
        expectBitIdentical(x1.grad(), x2.grad());
        expectBitIdentical(w1.grad(), w2.grad());
        expectBitIdentical(b1.grad(), b2.grad());
    }
}

TEST(KernelEquivalence, LinearBiasGeluMatchesUnfusedGraph)
{
    Rng rng(4);
    for (const Shape &s : testShapes()) {
        Variable x1(randnWithZeros({s.m, s.k}, rng), true);
        Variable w1(randnWithZeros({s.k, s.n}, rng), true);
        Variable b1(Tensor::randn({s.n}, rng), true);
        Variable x2 = x1.detach(true);
        Variable w2 = w1.detach(true);
        Variable b2 = b1.detach(true);

        Variable fused = ops::linearBiasGelu(x1, w1, b1);
        Variable unfused =
            ops::gelu(ops::addBias(ops::matmul(x2, w2), b2));
        expectBitIdentical(fused.value(), unfused.value());

        const Tensor g = randnWithZeros({s.m, s.n}, rng);
        fused.backward(g);
        unfused.backward(g);
        expectBitIdentical(x1.grad(), x2.grad());
        expectBitIdentical(w1.grad(), w2.grad());
        expectBitIdentical(b1.grad(), b2.grad());
    }
}

/** Random tensor with a -0 planted every seventh element. */
Tensor
randnWithNegativeZeros(std::vector<int> shape, Rng &rng)
{
    Tensor t = Tensor::randn(std::move(shape), rng);
    for (std::int64_t i = 3; i < t.numel(); i += 7)
        t[i] = -0.0f;
    return t;
}

TEST(KernelEquivalence, LayerNormMatchesNaive)
{
    Rng rng(9);
    for (const auto &[m, n] :
         {std::pair{1, 1}, std::pair{3, 5}, std::pair{8, 64},
          std::pair{17, 128}}) {
        Variable a(Tensor::randn({m, n}, rng), true);
        Variable gamma(Tensor::randn({n}, rng), true);
        Variable beta(Tensor::randn({n}, rng), true);
        Variable out = ops::layerNorm(a, gamma, beta, 1e-5f);
        const NaiveLayerNorm want = naiveLayerNorm(
            a.value(), gamma.value(), beta.value(), 1e-5f);
        expectBitIdentical(out.value(), want.out);

        const Tensor g = randnWithNegativeZeros({m, n}, rng);
        out.backward(g);
        Tensor da({m, n});
        Tensor dg({n});
        Tensor db({n});
        naiveLayerNormBackward(g, want, gamma.value(), da, dg, db);
        expectBitIdentical(a.grad(), accumulated(da));
        expectBitIdentical(gamma.grad(), accumulated(dg));
        expectBitIdentical(beta.grad(), accumulated(db));
    }
}

TEST(KernelEquivalence, SoftmaxRowsMatchesNaive)
{
    Rng rng(10);
    for (bool causal : {false, true}) {
        for (int t : {1, 5, 33, 64}) {
            const int cols = causal ? t : t + 3;
            Variable a(Tensor::randn({t, cols}, rng), true);
            Variable out = ops::softmaxRows(a, causal);
            const Tensor probs = naiveSoftmaxRows(a.value(), causal);
            expectBitIdentical(out.value(), probs);

            const Tensor g = randnWithNegativeZeros({t, cols}, rng);
            out.backward(g);
            expectBitIdentical(
                a.grad(),
                accumulated(naiveSoftmaxRowsBackward(g, probs, causal)));
        }
    }
}

TEST(KernelEquivalence, TransposeMatchesNaive)
{
    Rng rng(11);
    for (const auto &[m, n] :
         {std::pair{1, 1}, std::pair{3, 5}, std::pair{64, 32}}) {
        Variable a(randnWithNegativeZeros({m, n}, rng), true);
        Variable out = ops::transpose(a);
        expectBitIdentical(out.value(), naiveTranspose(a.value()));

        const Tensor g = randnWithNegativeZeros({n, m}, rng);
        out.backward(g);
        expectBitIdentical(a.grad(),
                           accumulated(naiveTransposeBackward(g, a.value())));
    }
}

TEST(TensorPoolTest, RecyclesSameSizeBuffers)
{
    TensorPool &pool = TensorPool::instance();
    const TensorPool::Stats before = pool.stats();
    {
        Tensor t({61, 3}); // odd size, unlikely pre-pooled
    }
    {
        Tensor t({61, 3}); // must come back from the freelist
    }
    const TensorPool::Stats after = pool.stats();
    EXPECT_GE(after.reuses, before.reuses + 1);
    EXPECT_GE(after.releases, before.releases + 2);
}

TEST(TensorPoolTest, CheckpointReplayStopsAllocatingAfterWarmup)
{
    Rng rng(123);
    Linear up(16, 24, rng);
    Linear down(24, 16, rng);
    const Segment segment = [&](const Variable &v) {
        return down.forward(up.forwardGelu(v));
    };

    TensorPool &pool = TensorPool::instance();
    std::int64_t after_warmup = 0;
    const int iters = 10;
    const int warmup = 3;
    for (int iter = 0; iter < iters; ++iter) {
        for (Variable &p : up.params())
            p.zeroGrad();
        for (Variable &p : down.params())
            p.zeroGrad();
        Variable x(Tensor::randn({8, 16}, rng));
        Variable y = checkpoint(segment, x);
        y.backward(Tensor::full(y.value().shape(), 1.0f));
        if (iter + 1 == warmup)
            after_warmup = pool.stats().heapAllocs;
    }
    // Identical shapes every iteration (forward, replay and
    // gradients alike): once the freelists are primed, the heap
    // allocation counter must be flat.
    EXPECT_EQ(pool.stats().heapAllocs, after_warmup);
}

TEST(TensorPoolTest, ShortLivedThreadsStopAllocatingAfterWarmup)
{
    // Regression: a dying thread's cache flush used to obey the
    // global per-bucket cap, silently freeing the overflow — so
    // every generation of short-lived worker threads (the backward
    // engine spins helpers up and down per pipeline run) re-heap-
    // allocated what its predecessor had cached, and heap_bytes grew
    // without bound. The exit flush is now uncapped: after one
    // warmup generation the pool must serve every later generation
    // entirely from the freelist.
    //
    // 72 live buffers of one unusual size: 8 land in the thread
    // cache, 64 fill the global bucket to its steady-state cap, so
    // the exit flush must carry the cached 8 past the cap for later
    // generations to run allocation-free.
    constexpr int kBuffers = 72;
    const std::vector<int> shape = {103, 1}; // unlikely pre-pooled

    TensorPool &pool = TensorPool::instance();
    auto generation = [&shape]() {
        std::thread worker([&shape]() {
            std::vector<Tensor> live;
            live.reserve(kBuffers);
            for (int i = 0; i < kBuffers; ++i)
                live.emplace_back(shape);
        });
        worker.join();
    };

    for (int warm = 0; warm < 2; ++warm)
        generation();
    const TensorPool::Stats after_warmup = pool.stats();
    for (int gen = 0; gen < 5; ++gen)
        generation();
    const TensorPool::Stats after = pool.stats();
    EXPECT_EQ(after.heapBytes, after_warmup.heapBytes);
    EXPECT_EQ(after.heapAllocs, after_warmup.heapAllocs);
}

} // namespace
} // namespace adapipe
