/**
 * @file
 * Bit-equality tests for the matmul micro-kernel and the fused
 * linear ops against the naive reference loops, plus regression
 * tests for the tensor buffer pool (checkpoint replays must recycle
 * buffers instead of hitting the heap every iteration).
 *
 * The references below ARE the pre-optimization loops, verbatim:
 * same loop nesting, same exact-zero skips, same summation order.
 * Every comparison is on the bits of each float — bit equality, not
 * tolerance — because the pipeline runtime's determinism contract
 * is bit-exact losses. The kernel tests run once per SIMD width in
 * the build, not only for the one the dispatch picks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
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
