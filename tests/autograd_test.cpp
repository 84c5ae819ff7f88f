/**
 * @file
 * Tests for the autograd engine: gradient correctness against finite
 * differences, checkpointing bit-exactness and the activation-memory
 * meter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/module.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "autograd/variable.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace adapipe {
namespace {

/** Numerical gradient of f at x via central differences. */
template <typename F>
Tensor
numericalGrad(F f, Variable &x, float eps = 1e-3f)
{
    Tensor grad(x.value().shape());
    for (std::int64_t i = 0; i < x.value().numel(); ++i) {
        const float orig = x.value()[i];
        x.mutableValue()[i] = orig + eps;
        const float hi = f();
        x.mutableValue()[i] = orig - eps;
        const float lo = f();
        x.mutableValue()[i] = orig;
        grad[i] = (hi - lo) / (2 * eps);
    }
    return grad;
}

void
expectGradNear(const Tensor &analytic, const Tensor &numeric,
               float tol = 2e-2f)
{
    ASSERT_EQ(analytic.numel(), numeric.numel());
    for (std::int64_t i = 0; i < analytic.numel(); ++i) {
        EXPECT_NEAR(analytic[i], numeric[i], tol)
            << "at element " << i;
    }
}

TEST(Autograd, MatmulGradient)
{
    Rng rng(1);
    Variable a(Tensor::randn({3, 4}, rng), true);
    Variable b(Tensor::randn({4, 2}, rng), true);

    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::matmul(a, b);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i];
        return sum;
    };

    a.zeroGrad();
    b.zeroGrad();
    Variable out = ops::matmul(a, b);
    out.backward();
    expectGradNear(a.grad(), numericalGrad(loss_value, a));
    expectGradNear(b.grad(), numericalGrad(loss_value, b));
}

TEST(Autograd, GeluGradient)
{
    Rng rng(2);
    Variable x(Tensor::randn({2, 5}, rng), true);
    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::gelu(x);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i];
        return sum;
    };
    x.zeroGrad();
    ops::gelu(x).backward();
    expectGradNear(x.grad(), numericalGrad(loss_value, x));
}

TEST(Autograd, LayerNormGradient)
{
    Rng rng(3);
    Variable x(Tensor::randn({3, 6}, rng), true);
    Variable gamma(Tensor::full({6}, 1.2f), true);
    Variable beta(Tensor::full({6}, -0.1f), true);
    auto loss_value = [&]() {
        NoGradGuard guard;
        Variable out = ops::layerNorm(x, gamma, beta);
        float sum = 0;
        for (std::int64_t i = 0; i < out.value().numel(); ++i)
            sum += out.value()[i] * (i % 3 == 0 ? 1.0f : 0.5f);
        return sum;
    };
    // Weighted sum to break symmetry: re-express as explicit graph.
    x.zeroGrad();
    gamma.zeroGrad();
    beta.zeroGrad();
    Variable out = ops::layerNorm(x, gamma, beta);
    Tensor weights(out.value().shape());
    for (std::int64_t i = 0; i < weights.numel(); ++i)
        weights[i] = i % 3 == 0 ? 1.0f : 0.5f;
    Variable w(std::move(weights), false);
    Variable weighted = ops::mul(out, w);
    weighted.backward();
    expectGradNear(x.grad(), numericalGrad(loss_value, x));
    expectGradNear(gamma.grad(), numericalGrad(loss_value, gamma));
    expectGradNear(beta.grad(), numericalGrad(loss_value, beta));
}

TEST(Autograd, SoftmaxCausalRowsSumToOne)
{
    Rng rng(4);
    Variable x(Tensor::randn({5, 5}, rng), false);
    Variable p = ops::softmaxRows(x, true);
    for (int i = 0; i < 5; ++i) {
        float row = 0;
        for (int j = 0; j < 5; ++j) {
            if (j > i)
                EXPECT_EQ(p.value().at(i, j), 0.0f);
            row += p.value().at(i, j);
        }
        EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
}

TEST(Autograd, CrossEntropyGradient)
{
    Rng rng(5);
    Variable logits(Tensor::randn({4, 7}, rng), true);
    const std::vector<int> targets{1, 3, 0, 6};
    auto loss_value = [&]() {
        NoGradGuard guard;
        return ops::crossEntropy(logits, targets).value()[0];
    };
    logits.zeroGrad();
    ops::crossEntropy(logits, targets).backward();
    expectGradNear(logits.grad(), numericalGrad(loss_value, logits),
                   1e-2f);
}

TEST(Autograd, EmbeddingRoutesGradients)
{
    Variable table(Tensor::full({4, 3}, 0.5f), true);
    table.zeroGrad();
    Variable out = ops::embedding(table, {2, 2, 0});
    out.backward();
    // Row 2 selected twice, row 0 once, rows 1/3 never.
    EXPECT_FLOAT_EQ(table.grad().at(2, 0), 2.0f);
    EXPECT_FLOAT_EQ(table.grad().at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(table.grad().at(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(table.grad().at(3, 0), 0.0f);
}

TEST(Checkpoint, GradientsBitExact)
{
    // The core recomputation invariant: checkpointed and plain
    // execution produce *identical* gradients.
    Rng rng(6);
    const Tensor w_init = Tensor::randn({8, 8}, rng, 0.3f);
    const Tensor x_init = Tensor::randn({4, 8}, rng);

    auto run = [&](bool use_checkpoint) {
        Variable w(w_init, true);
        Variable x(x_init, true);
        w.zeroGrad();
        x.zeroGrad();
        auto segment = [&](const Variable &in) {
            return ops::gelu(ops::matmul(in, w));
        };
        Variable out = use_checkpoint ? checkpoint(segment, x, {w})
                                      : segment(x);
        Variable out2 = ops::gelu(out);
        out2.backward();
        return std::pair<Tensor, Tensor>(w.grad(), x.grad());
    };

    const auto [w_plain, x_plain] = run(false);
    const auto [w_ckpt, x_ckpt] = run(true);
    for (std::int64_t i = 0; i < w_plain.numel(); ++i)
        EXPECT_EQ(w_plain[i], w_ckpt[i]) << "w grad elem " << i;
    for (std::int64_t i = 0; i < x_plain.numel(); ++i)
        EXPECT_EQ(x_plain[i], x_ckpt[i]) << "x grad elem " << i;
}

TEST(Checkpoint, NestedSegments)
{
    Rng rng(7);
    const Tensor w_init = Tensor::randn({6, 6}, rng, 0.3f);
    const Tensor x_init = Tensor::randn({2, 6}, rng);

    auto run = [&](bool ckpt) {
        Variable w(w_init, true);
        Variable x(x_init, true);
        w.zeroGrad();
        x.zeroGrad();
        auto inner = [&](const Variable &in) {
            return ops::gelu(ops::matmul(in, w));
        };
        auto outer = [&](const Variable &in) {
            Variable mid =
                ckpt ? checkpoint(inner, in, {w}) : inner(in);
            return ops::matmul(mid, w);
        };
        Variable out =
            ckpt ? checkpoint(outer, x, {w}) : outer(x);
        out.backward();
        return w.grad();
    };

    const Tensor plain = run(false);
    const Tensor nested = run(true);
    for (std::int64_t i = 0; i < plain.numel(); ++i)
        EXPECT_EQ(plain[i], nested[i]);
}

TEST(Checkpoint, ReducesPeakActivationMemory)
{
    Rng rng(8);
    const int dim = 64;
    const int depth = 6;
    std::vector<Tensor> weights;
    for (int i = 0; i < depth; ++i)
        weights.push_back(Tensor::randn({dim, dim}, rng, 0.1f));
    const Tensor x_init = Tensor::randn({16, dim}, rng);

    auto peak = [&](bool ckpt) {
        std::vector<Variable> ws;
        for (const auto &w : weights)
            ws.emplace_back(w, true);
        Variable x(x_init, true);
        for (auto &w : ws)
            w.zeroGrad();
        x.zeroGrad();
        resetActivationMeter();
        Variable h = x;
        for (int i = 0; i < depth; ++i) {
            auto segment = [&, i](const Variable &in) {
                return ops::gelu(ops::matmul(in, ws[i]));
            };
            h = ckpt ? checkpoint(segment, h, {ws[i]})
                     : segment(h);
        }
        h.backward();
        return peakActivationFloats();
    };

    const auto plain = peak(false);
    const auto saved = peak(true);
    EXPECT_LT(saved, plain);
}

/** One gelu(x·w) segment over fixed random inputs. */
struct SegmentCase
{
    Tensor wInit;
    Tensor xInit;

    SegmentCase()
    {
        Rng rng(9);
        wInit = Tensor::randn({8, 8}, rng, 0.3f);
        xInit = Tensor::randn({4, 8}, rng);
    }

    /**
     * (w, x) gradients of gelu(segment(x)). @p wrap runs the segment
     * (plainly, checkpoint() or checkpointResident()); @p act gets
     * the collected handles before backward.
     */
    template <typename Wrap, typename Act>
    std::pair<Tensor, Tensor>
    grads(Wrap wrap, Act act) const
    {
        Variable w(wInit, true);
        Variable x(xInit, true);
        w.zeroGrad();
        x.zeroGrad();
        const Segment segment = [&w](const Variable &in) {
            return ops::gelu(ops::matmul(in, w));
        };
        CheckpointCollector collector;
        Variable out = ops::gelu(wrap(segment, x, w));
        std::vector<CheckpointHandle> handles = collector.take();
        act(handles);
        out.backward();
        return {w.grad(), x.grad()};
    }

    std::pair<Tensor, Tensor>
    plainGrads() const
    {
        return grads([](const Segment &seg, const Variable &x,
                        const Variable &) { return seg(x); },
                     [](std::vector<CheckpointHandle> &handles) {
                         EXPECT_TRUE(handles.empty());
                     });
    }
};

Variable
recomputed(const Segment &seg, const Variable &x, const Variable &w)
{
    return checkpoint(seg, x, {w});
}

Variable
resident(const Segment &seg, const Variable &x, const Variable &w)
{
    return checkpointResident(seg, x, {w});
}

void
expectSameGrads(const std::pair<Tensor, Tensor> &got,
                const std::pair<Tensor, Tensor> &want)
{
    EXPECT_EQ(got.first.data(), want.first.data()) << "w grad";
    EXPECT_EQ(got.second.data(), want.second.data()) << "x grad";
}

TEST(CheckpointHandle, CollectorReturnsOneHandlePerCheckpointInOrder)
{
    Rng rng(10);
    Variable w(Tensor::randn({4, 4}, rng, 0.3f), true);
    Variable h(Tensor::randn({2, 4}, rng), true);
    // Each segment logs its id whenever it runs, so warming a handle
    // shows which checkpoint it belongs to.
    std::vector<int> ran;
    const auto segment = [&](int id) -> Segment {
        return [&, id](const Variable &in) {
            ran.push_back(id);
            return ops::gelu(ops::matmul(in, w));
        };
    };
    CheckpointCollector collector;
    h = checkpoint(segment(0), h, {w});
    h = checkpointResident(segment(1), h, {w});
    h = checkpoint(segment(2), h, {w});
    {
        // A constant result can never replay: no handle.
        NoGradGuard no_grad;
        checkpoint(segment(3), h.detach(false), {});
    }
    std::vector<CheckpointHandle> handles = collector.take();
    ASSERT_EQ(handles.size(), 3u);
    EXPECT_FALSE(handles[0].offloadable());
    EXPECT_TRUE(handles[1].offloadable());
    EXPECT_FALSE(handles[2].offloadable());
    EXPECT_TRUE(collector.take().empty());

    ran.clear();
    EXPECT_TRUE(handles[2].warm());
    EXPECT_TRUE(handles[0].warm());
    EXPECT_EQ(ran, (std::vector<int>{2, 0}));
}

TEST(CheckpointHandle, WarmRunsTheReplayOnceAndKeepsGradients)
{
    const SegmentCase c;
    const auto warm_twice = [](std::vector<CheckpointHandle> &hs) {
        ASSERT_EQ(hs.size(), 1u);
        EXPECT_TRUE(hs[0].warm());
        EXPECT_FALSE(hs[0].warm());
    };
    expectSameGrads(c.grads(recomputed, warm_twice), c.plainGrads());

    const auto warm_resident = [](std::vector<CheckpointHandle> &hs) {
        ASSERT_EQ(hs.size(), 1u);
        EXPECT_FALSE(hs[0].warm());
    };
    c.grads(resident, warm_resident);
}

TEST(CheckpointHandle, RecomputeHandleMovesNoBytes)
{
    const SegmentCase c;
    const auto transfer = [](std::vector<CheckpointHandle> &hs) {
        ASSERT_EQ(hs.size(), 1u);
        EXPECT_EQ(hs[0].evict(), 0u);
        EXPECT_EQ(hs[0].fetch(), 0u);
    };
    c.grads(recomputed, transfer);
}

TEST(CheckpointHandle, EvictFetchBackwardIsBitExact)
{
    const SegmentCase c;
    const auto round_trip = [](std::vector<CheckpointHandle> &hs) {
        ASSERT_EQ(hs.size(), 1u);
        const std::size_t bytes = hs[0].evict();
        EXPECT_GT(bytes, 0u);
        EXPECT_EQ(hs[0].evict(), 0u);
        EXPECT_EQ(hs[0].fetch(), bytes);
        EXPECT_EQ(hs[0].fetch(), 0u);
    };
    expectSameGrads(c.grads(resident, round_trip), c.plainGrads());
}

TEST(CheckpointHandle, EvictedBackwardFallsBackToReplay)
{
    const SegmentCase c;
    const auto evict_only = [](std::vector<CheckpointHandle> &hs) {
        ASSERT_EQ(hs.size(), 1u);
        EXPECT_GT(hs[0].evict(), 0u);
    };
    obs::Registry metrics;
    std::pair<Tensor, Tensor> missed;
    {
        obs::ScopedRegistry scope(&metrics);
        missed = c.grads(resident, evict_only);
    }
    expectSameGrads(missed, c.plainGrads());
    EXPECT_EQ(metrics.counter("offload.fetch_miss"), 1);
}

TEST(Optim, AdamDescendsQuadratic)
{
    Variable x(Tensor::full({4}, 2.0f), true);
    Adam adam({x}, 0.05f);
    for (int step = 0; step < 400; ++step) {
        adam.zeroGrad();
        Variable loss = ops::mul(x, x);
        loss.backward();
        adam.step();
    }
    for (std::int64_t i = 0; i < x.value().numel(); ++i)
        EXPECT_NEAR(x.value()[i], 0.0f, 1e-2f);
}

TEST(Autograd, NoGradModeBuildsNoGraph)
{
    Rng rng(9);
    Variable a(Tensor::randn({2, 2}, rng), true);
    NoGradGuard guard;
    Variable out = ops::matmul(a, a);
    // Constant leaf: backward from it reaches nothing.
    a.zeroGrad();
    out.backward();
    for (std::int64_t i = 0; i < a.grad().numel(); ++i)
        EXPECT_EQ(a.grad()[i], 0.0f);
}

} // namespace
} // namespace adapipe
