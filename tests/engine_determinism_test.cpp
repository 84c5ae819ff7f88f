/**
 * @file
 * Determinism stress tests for the parallel backward engine, built to
 * run under ThreadSanitizer: a wide fan-out graph differentiated 50
 * times across worker counts with every run's gradient bits compared
 * EXPECT_EQ to the single-threaded reference; checkpoint replay
 * driven from inside a multi-threaded backward (with the replay
 * counters and spans checked for monotonicity across recompute
 * modes); the owning thread's activation meter, which must read the
 * same at 4 workers as at 1 and stay below the forward's live set
 * plus the parameter gradients during backward; and full pipeline
 * training runs whose per-step losses must be bit-identical at every
 * intra-stage thread count.
 *
 * Wide fan-out is the adversarial shape for a parallel reduction:
 * dozens of consumers finish in racy order and all deposit into one
 * leaf's buffer, so any arrival-order accumulation shows up as
 * flipped low bits within a handful of runs. The engine's preassigned
 * contribution slots must make all 50 runs produce the same floats.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/module.h"
#include "autograd/ops.h"
#include "autograd/trainer.h"
#include "autograd/variable.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "runtime/pipeline_runtime.h"
#include "util/rng.h"

namespace adapipe {
namespace {

constexpr int kDim = 8;
constexpr int kFanOut = 48; // consumers of the single hot leaf

/**
 * One leaf consumed by kFanOut cheap unary branches, folded by a
 * pairwise add tree. Rebuilt per run (grads accumulate in place).
 */
struct FanOutGraph
{
    Variable leaf;
    Variable root;
    Tensor seed;
};

FanOutGraph
buildFanOut(std::uint64_t seed)
{
    Rng rng(seed);
    FanOutGraph g;
    g.leaf = Variable(Tensor::randn({kDim, kDim}, rng, 0.5f), true);

    std::vector<Variable> branches;
    branches.reserve(kFanOut);
    for (int i = 0; i < kFanOut; ++i) {
        switch (i % 4) {
          case 0:
            branches.push_back(ops::scale(
                g.leaf, static_cast<float>(rng.uniform(0.5, 1.5))));
            break;
          case 1: branches.push_back(ops::gelu(g.leaf)); break;
          case 2: branches.push_back(ops::silu(g.leaf)); break;
          default:
            branches.push_back(ops::mul(g.leaf, g.leaf));
            break;
        }
    }
    while (branches.size() > 1) {
        std::vector<Variable> next;
        for (std::size_t i = 0; i + 1 < branches.size(); i += 2)
            next.push_back(ops::add(branches[i], branches[i + 1]));
        if (branches.size() % 2 != 0)
            next.push_back(branches.back());
        branches = std::move(next);
    }
    g.root = branches.front();
    g.seed = Tensor::randn({kDim, kDim}, rng);
    return g;
}

TEST(EngineDeterminism, WideFanOutStableAcross50RunsAndThreadCounts)
{
    const std::uint64_t seed = 777;
    FanOutGraph ref = buildFanOut(seed);
    ref.root.backward(ref.seed);
    const std::vector<float> want = ref.leaf.grad().data();

    const int thread_counts[] = {2, 4, 8};
    int run = 0;
    for (int rep = 0; rep < 50; ++rep) {
        const int threads = thread_counts[rep % 3];
        FanOutGraph g = buildFanOut(seed);
        BackwardEngine engine(EngineOptions{threads});
        engine.run(g.root, g.seed);
        const std::vector<float> &got = g.leaf.grad().data();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "run " << run << " threads " << threads
                << " element " << i;
        }
        ++run;
    }
}

/** Per-parameter gradient bits of a model, leaf order. */
std::vector<std::vector<float>>
paramGradBits(const TinyLM &model)
{
    std::vector<std::vector<float>> out;
    for (const Variable &p : model.params())
        out.push_back(p.grad().data());
    return out;
}

/**
 * Backward of one tiny-LM loss under an engine, with obs recording.
 * @return replay counter observed by the caller's registry.
 */
std::int64_t
lossBackward(int threads, BlockRecompute mode, obs::Registry &reg,
             std::vector<std::vector<float>> &grads_out)
{
    TinyLmConfig cfg;
    cfg.vocab = 17;
    cfg.dim = 12;
    cfg.blocks = 2;
    cfg.ffnHidden = 20;
    cfg.maxSeq = 8;
    cfg.seed = 5;
    TinyLM model(cfg);

    std::vector<int> tokens, targets;
    makeBigramBatch(cfg.vocab, cfg.maxSeq, /*step=*/0, /*seed=*/3,
                    tokens, targets);

    obs::ScopedRegistry scoped(&reg);
    const std::vector<BlockRecompute> modes(
        static_cast<std::size_t>(cfg.blocks), mode);
    Variable loss = model.loss(tokens, targets, modes);
    BackwardEngine engine(EngineOptions{threads});
    engine.run(loss, Tensor::full({1}, 1.0f));
    grads_out = paramGradBits(model);
    return reg.counter("checkpoint.replays");
}

TEST(EngineDeterminism, CheckpointReplayUnderParallelBackward)
{
    const BlockRecompute modes[] = {BlockRecompute::None,
                                    BlockRecompute::AttentionOnly,
                                    BlockRecompute::Full};
    std::vector<std::int64_t> replays_parallel;
    for (const BlockRecompute mode : modes) {
        obs::Registry ref_reg;
        std::vector<std::vector<float>> want;
        const std::int64_t ref_replays =
            lossBackward(1, mode, ref_reg, want);

        obs::Registry par_reg;
        std::vector<std::vector<float>> got;
        const std::int64_t par_replays =
            lossBackward(4, mode, par_reg, got);

        // Replay work is identical — the engine merges its helpers'
        // scratch registries after quiescence, so no count is lost.
        EXPECT_EQ(par_replays, ref_replays);
        // One span per replay.
        std::size_t ref_spans = 0, par_spans = 0;
        for (const obs::SpanRecord &s : ref_reg.spans())
            ref_spans += s.name == "checkpoint.replay" ? 1 : 0;
        for (const obs::SpanRecord &s : par_reg.spans())
            par_spans += s.name == "checkpoint.replay" ? 1 : 0;
        EXPECT_EQ(static_cast<std::int64_t>(ref_spans), ref_replays);
        EXPECT_EQ(static_cast<std::int64_t>(par_spans), par_replays);

        ASSERT_EQ(got.size(), want.size());
        for (std::size_t p = 0; p < want.size(); ++p) {
            ASSERT_EQ(got[p].size(), want[p].size()) << "param " << p;
            for (std::size_t i = 0; i < want[p].size(); ++i) {
                ASSERT_EQ(got[p][i], want[p][i])
                    << "param " << p << " element " << i;
            }
        }
        replays_parallel.push_back(par_replays);
    }
    // Monotone over the recompute ladder: saving everything replays
    // nothing; attention-only replays some; full replays at least as
    // much again.
    EXPECT_EQ(replays_parallel[0], 0);
    EXPECT_GT(replays_parallel[1], 0);
    EXPECT_GE(replays_parallel[2], replays_parallel[1]);
}

/** One tiny-LM backward as its owning thread's meter sees it. */
struct MeterProbe
{
    /** Floats live once the forward built the graph. */
    std::int64_t liveAfterForward = 0;
    /** Peak during backward, forward's live set included. */
    std::int64_t backwardPeak = 0;
    /** Floats live after the graph is dropped. */
    std::int64_t liveAfterDrop = 0;
    /** The model's parameter floats (= their gradients' floats). */
    std::int64_t paramFloats = 0;
};

/**
 * Forward one micro-batch of a 2-block tiny LM (dim 64, ffn 128,
 * seq 32), run its backward on a @p threads-worker engine and drop
 * the graph, all on a fresh thread, and read that thread's meter
 * relative to where it started. The parameters are created on the
 * caller, so their gradients, first allocated by this backward, are
 * all the graph leaves behind.
 */
MeterProbe
probeMeter(int threads)
{
    TinyLmConfig cfg;
    cfg.dim = 64;
    cfg.ffnHidden = 128;
    cfg.maxSeq = 32;
    cfg.blocks = 2;
    const TinyLM model(cfg);
    MeterProbe probe;
    for (const Variable &p : model.params())
        probe.paramFloats += p.value().numel();
    std::thread owner([&] {
        std::vector<int> tokens, targets;
        makeBigramBatch(cfg.vocab, cfg.maxSeq, /*step=*/0, /*seed=*/3,
                        tokens, targets);
        BackwardEngine engine(EngineOptions{threads});
        const std::int64_t base = threadLiveActivationFloats();
        {
            Variable loss = model.loss(tokens, targets, {});
            probe.liveAfterForward = threadLiveActivationFloats() - base;
            resetThreadActivationMeter();
            engine.run(loss, Tensor::full({1}, 1.0f));
            probe.backwardPeak = threadPeakActivationFloats() - base;
        }
        probe.liveAfterDrop = threadLiveActivationFloats() - base;
    });
    owner.join();
    return probe;
}

TEST(EngineDeterminism, HelpersChargeTheGraphOwnersMeter)
{
    // Helpers adopt the run() caller's meter, so which worker ran
    // which task never shows in the owner's counts: once the graph is
    // dropped the owner holds exactly the parameter gradients, at any
    // worker count.
    const MeterProbe want = probeMeter(1);
    EXPECT_EQ(want.liveAfterDrop, want.paramFloats);
    for (int rep = 0; rep < 20; ++rep) {
        const MeterProbe got = probeMeter(4);
        EXPECT_EQ(got.liveAfterForward, want.liveAfterForward)
            << "run " << rep;
        EXPECT_EQ(got.liveAfterDrop, want.liveAfterDrop)
            << "run " << rep;
    }
}

TEST(EngineDeterminism, BackwardPeakBelowForwardLiveSetPlusParamGrads)
{
    // Every activation and its gradient die at their last backward
    // reader, so backward never holds the forward's whole live set
    // and every gradient at once. Keeping them all until the end
    // would peak at the live set twice plus the parameter gradients.
    for (const int threads : {1, 4}) {
        const MeterProbe probe = probeMeter(threads);
        EXPECT_GT(probe.liveAfterForward, 0);
        EXPECT_LT(probe.backwardPeak,
                  probe.liveAfterForward + probe.paramFloats)
            << "threads " << threads;
    }
}

TEST(EngineDeterminism, PipelineLossesBitIdenticalAcrossThreadCounts)
{
    TinyLmConfig cfg;
    cfg.vocab = 19;
    cfg.dim = 12;
    cfg.blocks = 4;
    cfg.ffnHidden = 20;
    cfg.maxSeq = 8;
    cfg.seed = 11;

    RuntimeOptions opts;
    opts.steps = 2;
    opts.seqLen = 8;
    opts.microBatches = 2;

    const BlockRecompute modes[] = {BlockRecompute::None,
                                    BlockRecompute::Full};
    for (const BlockRecompute mode : modes) {
        for (const int virtual_stages : {1, 2}) {
            const std::vector<StageSpec> specs =
                evenStageSpecs(cfg.blocks, 2 * virtual_stages, mode);

            std::vector<double> want;
            for (const int threads : {1, 2, 4}) {
                TinyLM model(cfg);
                RuntimeOptions run_opts = opts;
                run_opts.virtualStages = virtual_stages;
                run_opts.intraStageThreads = threads;
                const RuntimeResult run =
                    runPipeline(model, specs, run_opts);
                ASSERT_TRUE(run.ok) << run.error;
                if (threads == 1) {
                    want = run.losses;
                    ASSERT_FALSE(want.empty());
                    continue;
                }
                ASSERT_EQ(run.losses.size(), want.size());
                for (std::size_t s = 0; s < want.size(); ++s) {
                    EXPECT_EQ(run.losses[s], want[s])
                        << "threads " << threads << " v "
                        << virtual_stages << " step " << s;
                }
            }
        }
    }
}

TEST(EngineDeterminism, ExceptionsPropagateAfterQuiescence)
{
    // A backward function that throws must surface on the caller
    // after all workers park — not crash a helper thread — and the
    // engine must stay usable for the next run.
    Rng bad_rng(1);
    Variable a(Tensor::randn({4, 4}, bad_rng, 0.5f), true);
    Variable bad = Variable::makeNode(
        Tensor(a.value()), {a},
        [](Variable::Impl &) -> autograd_detail::BackwardResult {
            throw std::runtime_error("injected backward failure");
        });

    BackwardEngine engine(EngineOptions{4});
    EXPECT_THROW(
        engine.run(bad, Tensor::full(bad.value().shape(), 1.0f)),
        std::runtime_error);

    // Engine survives: a healthy graph still differentiates.
    Rng rng(2);
    Variable x(Tensor::randn({4, 4}, rng, 0.5f), true);
    Variable y = ops::gelu(x);
    engine.run(y, Tensor::full(y.value().shape(), 1.0f));
    EXPECT_GT(x.grad().numel(), 0);
}

} // namespace
} // namespace adapipe
