/**
 * @file
 * Tests for the pipeline runtime: channel semantics, stage
 * partitioning, memory-prediction ordering, replay and op counters,
 * failure diagnostics and the plan -> stage-spec mapping. The
 * pipeline-vs-single-threaded loss equivalence (paper Fig. 10,
 * measured) over the whole knob product is
 * runtime_differential_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "autograd/trainer.h"
#include "core/planner.h"
#include "memory/memory_model.h"
#include "obs/macros.h"
#include "runtime/channel.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

TEST(BoundedChannel, FifoOrder)
{
    BoundedChannel<int> chan(4);
    EXPECT_EQ(chan.capacity(), 4u);
    chan.send(1);
    chan.send(2);
    chan.send(3);
    EXPECT_EQ(chan.size(), 3u);
    EXPECT_EQ(chan.recv(), 1);
    EXPECT_EQ(chan.recv(), 2);
    EXPECT_EQ(chan.recv(), 3);
    EXPECT_EQ(chan.size(), 0u);
}

TEST(BoundedChannel, BackpressureBlocksTheProducer)
{
    BoundedChannel<int> chan(1);
    double blocked_us = 0;
    std::thread producer([&] {
        for (int i = 0; i < 3; ++i)
            blocked_us += chan.send(i);
    });
    // Let the producer fill the single slot and block on the next
    // send, then drain slowly.
    std::vector<int> got;
    for (int i = 0; i < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        got.push_back(chan.recv());
    }
    producer.join();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
    EXPECT_GT(blocked_us, 0.0);
}

TEST(BoundedChannel, RecvReportsWaitTime)
{
    BoundedChannel<int> chan(1);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        chan.send(7);
    });
    double waited_us = 0;
    EXPECT_EQ(chan.recv(&waited_us), 7);
    producer.join();
    EXPECT_GT(waited_us, 0.0);
}

TEST(BoundedChannel, CloseWakesBlockedSender)
{
    BoundedChannel<int> chan(1);
    chan.send(0);
    std::thread sender([&] {
        // Blocks on the full channel until close() wakes it; the
        // send must fail, never silently drop the item.
        EXPECT_THROW(chan.send(1), ChannelClosedError);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    chan.close();
    sender.join();
}

TEST(BoundedChannel, CloseWakesBlockedReceiver)
{
    BoundedChannel<int> chan(1);
    std::thread receiver(
        [&] { EXPECT_THROW(chan.recv(), ChannelClosedError); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    chan.close();
    receiver.join();
}

TEST(BoundedChannel, RecvDrainsQueuedItemsAfterClose)
{
    BoundedChannel<int> chan(2);
    chan.send(1);
    chan.send(2);
    chan.close();
    EXPECT_TRUE(chan.closed());
    // In-flight tensors are still delivered so a consumer can finish
    // the work it already depends on ...
    EXPECT_EQ(chan.recv(), 1);
    EXPECT_EQ(chan.recv(), 2);
    // ... and only then does the shutdown surface.
    EXPECT_THROW(chan.recv(), ChannelClosedError);
    EXPECT_THROW(chan.send(3), ChannelClosedError);
}

TEST(EvenStageSpecs, SplitsBlocksContiguously)
{
    const auto specs =
        evenStageSpecs(6, 4, BlockRecompute::AttentionOnly);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].firstBlock, 0);
    EXPECT_EQ(specs[0].lastBlock, 1);
    EXPECT_EQ(specs[1].firstBlock, 2);
    EXPECT_EQ(specs[1].lastBlock, 3);
    EXPECT_EQ(specs[2].firstBlock, 4);
    EXPECT_EQ(specs[2].lastBlock, 4);
    EXPECT_EQ(specs[3].firstBlock, 5);
    EXPECT_EQ(specs[3].lastBlock, 5);
    EXPECT_TRUE(specs[0].embedding);
    EXPECT_FALSE(specs[3].embedding);
    EXPECT_TRUE(specs[3].head);
    EXPECT_FALSE(specs[0].head);
    for (const StageSpec &spec : specs) {
        ASSERT_EQ(static_cast<int>(spec.recompute.size()),
                  spec.numBlocks());
        for (const BlockRecompute mode : spec.recompute)
            EXPECT_EQ(mode, BlockRecompute::AttentionOnly);
    }
}

TEST(PipelineRuntime, SameSeedSameInitAcrossInstances)
{
    // --seed contract: the model a 4-stage pipeline trains starts
    // from the exact parameters of the single-stage model.
    const TinyLmConfig cfg = smallConfig();
    TinyLM a(cfg);
    TinyLM b(cfg);
    const auto pa = a.params();
    const auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const Tensor &ta = pa[i].value();
        const Tensor &tb = pb[i].value();
        ASSERT_EQ(ta.numel(), tb.numel());
        for (std::int64_t j = 0; j < ta.numel(); ++j)
            ASSERT_EQ(ta[j], tb[j]);
    }
}

TEST(PipelineRuntime, FirstStagePeaksAboveLast)
{
    // Sec. 4.2: stage s keeps p - s micro-batches in flight under
    // 1F1B, so stage 0 holds the most activations and stage p-1 the
    // fewest. The runtime measures per stage worker (its engine
    // helpers charge the worker's meter), so the ordering of the
    // memory model must show up in the measurements at any
    // intra-stage thread count.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(3);
    for (const int threads : {1, 4}) {
        opts.intraStageThreads = threads;
        for (const int p : {2, 4}) {
            ASSERT_GT(
                MemoryModel::inflightMicroBatches(0, p,
                                                  opts.microBatches),
                MemoryModel::inflightMicroBatches(p - 1, p,
                                                  opts.microBatches));
            const auto specs =
                evenStageSpecs(cfg.blocks, p, BlockRecompute::None);
            TinyLM model(cfg);
            const RuntimeResult run = runPipeline(model, specs, opts);
            ASSERT_EQ(run.stages.size(), static_cast<std::size_t>(p));
            EXPECT_GT(run.stages.front().peakActivationFloats,
                      run.stages.back().peakActivationFloats)
                << "p=" << p << " threads=" << threads;
        }
    }
}

TEST(PipelineRuntime, RecomputeOverheadMonotone)
{
    // More recomputed units => less saved memory, more replayed
    // time. Per-stage peaks are thread-local and deterministic, so
    // the memory ordering is exact; the time ordering is asserted
    // through the checkpoint replay counters/spans below.
    const TinyLmConfig cfg = smallConfig();
    const RuntimeOptions opts = smallOpts(3);

    struct Run
    {
        std::int64_t peakSum = 0;
        std::int64_t replays = 0;
        double replayUs = 0;
        double fastestReplayUs = std::numeric_limits<double>::infinity();
    };
    auto run_mode = [&](BlockRecompute mode) {
        const auto specs = evenStageSpecs(cfg.blocks, 2, mode);
        TinyLM model(cfg);
        obs::Registry metrics;
        const RuntimeResult run =
            runPipeline(model, specs, opts, &metrics);
        Run out;
        for (const StageMetrics &sm : run.stages)
            out.peakSum += sm.peakActivationFloats;
        out.replays = metrics.counter("checkpoint.replays");
        for (const obs::SpanRecord &span : metrics.spans()) {
            if (span.name == "checkpoint.replay") {
                out.replayUs += span.durUs;
                out.fastestReplayUs =
                    std::min(out.fastestReplayUs, span.durUs);
            }
        }
        return out;
    };

    const Run none = run_mode(BlockRecompute::None);
    const Run attn = run_mode(BlockRecompute::AttentionOnly);
    const Run full = run_mode(BlockRecompute::Full);

    EXPECT_GT(none.peakSum, attn.peakSum);
    EXPECT_GT(attn.peakSum, full.peakSum);

    // One replay per checkpointed segment per backward: attention
    // only checkpoints one segment per block, full recompute one
    // whole-block segment replayed per micro-batch backward.
    EXPECT_EQ(none.replays, 0);
    const std::int64_t backwards =
        static_cast<std::int64_t>(opts.steps) * opts.microBatches;
    EXPECT_EQ(attn.replays, backwards * cfg.blocks);
    EXPECT_EQ(full.replays, backwards * cfg.blocks);
    EXPECT_EQ(none.replayUs, 0.0);
    EXPECT_GT(attn.replayUs, 0.0);
    // Full-block replays rerun attention + FFN + both norms; the
    // attention-only replays are a strict subset of that work. The
    // fastest replay of each mode is compared, not the sums: a stage
    // thread preempted inside one replay span adds milliseconds to a
    // sum, more than the FFN and norms add to a replay of this model.
    EXPECT_GT(full.fastestReplayUs, attn.fastestReplayUs);
}

TEST(PipelineRuntime, MergedRegistryCountsEveryOp)
{
    const TinyLmConfig cfg = smallConfig();
    const RuntimeOptions opts = smallOpts(3);
    const int p = 3;
    const auto specs =
        evenStageSpecs(cfg.blocks, p, BlockRecompute::None);
    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run = runPipeline(model, specs, opts, &metrics);

    const std::int64_t ops = static_cast<std::int64_t>(p) *
                             opts.steps * opts.microBatches;
    EXPECT_EQ(metrics.counter("runtime.fwd_ops"), ops);
    EXPECT_EQ(metrics.counter("runtime.bwd_ops"), ops);
    // Each of the p-1 forward edges and p-1 backward edges carries
    // n tensors per step.
    EXPECT_EQ(metrics.counter("runtime.sends"),
              2 * (p - 1) * opts.steps *
                  static_cast<std::int64_t>(opts.microBatches));
    EXPECT_EQ(metrics.counter("runtime.recvs"),
              metrics.counter("runtime.sends"));

    std::int64_t fwd_spans = 0;
    for (const obs::SpanRecord &span : metrics.spans()) {
        if (span.name == "runtime.forward")
            ++fwd_spans;
    }
    EXPECT_EQ(fwd_spans, ops);

    for (int s = 0; s < p; ++s) {
        const std::string prefix =
            "runtime.stage." + std::to_string(s) + ".";
        EXPECT_GT(metrics.gauge(prefix + "fwd_us"), 0.0);
        EXPECT_GT(metrics.gauge(prefix + "peak_activation_floats"),
                  0.0);
        EXPECT_EQ(
            metrics.gauge(prefix + "peak_activation_floats"),
            static_cast<double>(
                run.stages[static_cast<std::size_t>(s)]
                    .peakActivationFloats));
    }
    EXPECT_EQ(metrics.gauge("runtime.stages"),
              static_cast<double>(p));
}

TEST(PlanMapping, TinyLmModelConfigMatchesTheTinyLm)
{
    const TinyLmConfig cfg = smallConfig();
    const ModelConfig model = tinyLmModelConfig(cfg);
    EXPECT_EQ(model.numBlocks, cfg.blocks);
    EXPECT_EQ(model.hiddenSize, cfg.dim);
    EXPECT_EQ(model.ffnHiddenSize, cfg.ffnHidden);
    EXPECT_EQ(model.vocabSize, cfg.vocab);
    EXPECT_EQ(model.numHeads, cfg.numHeads);
    EXPECT_EQ(model.dtypeBytes, 4);
}

/** Plan the tiny LM in-process for mapping tests. */
PlanResult
planTinyLm(const TinyLmConfig &cfg, int p, int n, PlanMethod method)
{
    return makePlan(profileTinyLm(cfg, p, n), method, {});
}

TEST(PlanMapping, DappleBaselinesDecodeToUniformModes)
{
    const TinyLmConfig cfg = smallConfig();
    const auto full =
        planTinyLm(cfg, 2, 4, PlanMethod::DappleFull);
    ASSERT_TRUE(full.ok);
    const StageMapping mf = stageSpecsFromPlan(full.plan, cfg);
    ASSERT_EQ(mf.stages.size(), 2u);
    int covered = 0;
    for (const StageSpec &spec : mf.stages) {
        EXPECT_EQ(spec.firstBlock, covered);
        covered = spec.lastBlock + 1;
        for (const BlockRecompute mode : spec.recompute)
            EXPECT_EQ(mode, BlockRecompute::Full);
    }
    EXPECT_EQ(covered, cfg.blocks);
    EXPECT_TRUE(mf.stages.front().embedding);
    EXPECT_TRUE(mf.stages.back().head);

    const auto none = planTinyLm(cfg, 2, 4, PlanMethod::DappleNon);
    ASSERT_TRUE(none.ok);
    const StageMapping mn = stageSpecsFromPlan(none.plan, cfg);
    for (const StageSpec &spec : mn.stages) {
        for (const BlockRecompute mode : spec.recompute)
            EXPECT_EQ(mode, BlockRecompute::None);
    }
}

TEST(PlanMapping, AdaPipePlanCoversAllBlocksAndRuns)
{
    const TinyLmConfig cfg = smallConfig();
    const auto result = planTinyLm(cfg, 2, 4, PlanMethod::AdaPipe);
    ASSERT_TRUE(result.ok);
    const StageMapping mapping =
        stageSpecsFromPlan(result.plan, cfg);
    ASSERT_EQ(mapping.stages.size(), 2u);

    RuntimeOptions opts = smallOpts(3);
    opts.steps = 2;
    TinyLM model(cfg);
    const RuntimeResult run =
        runPipeline(model, mapping.stages, opts);
    EXPECT_EQ(run.losses,
              referenceLosses(cfg, opts, mapping.stages));
}

TEST(PlanMapping, MismatchedMaskFallsBackToMethod)
{
    const TinyLmConfig cfg = smallConfig();
    auto result = planTinyLm(cfg, 2, 4, PlanMethod::DappleFull);
    ASSERT_TRUE(result.ok);
    // Simulate a plan exported for different unit shapes: the masks
    // no longer match, so the method's uniform policy applies.
    for (StagePlan &sp : result.plan.stages)
        sp.savedMask.clear();
    const StageMapping mapping =
        stageSpecsFromPlan(result.plan, cfg);
    EXPECT_FALSE(mapping.notes.empty());
    for (const StageSpec &spec : mapping.stages) {
        for (const BlockRecompute mode : spec.recompute)
            EXPECT_EQ(mode, BlockRecompute::Full);
    }
}

TEST(PipelineRuntime, InterleavedPerChunkMetricsAndGauges)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(3);
    opts.virtualStages = 2;
    const int p = 2;
    const auto specs = evenStageSpecs(
        cfg.blocks, opts.virtualStages * p, BlockRecompute::Full);
    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run =
        runPipeline(model, specs, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;

    // result.stages is in chain order: chunk g ran on worker g % p.
    ASSERT_EQ(run.stages.size(), 4u);
    const std::int64_t per_chunk_ops =
        static_cast<std::int64_t>(opts.steps) * opts.microBatches;
    for (int g = 0; g < 4; ++g) {
        const StageMetrics &sm =
            run.stages[static_cast<std::size_t>(g)];
        EXPECT_EQ(sm.chainPos, g);
        EXPECT_EQ(sm.fwdOps, per_chunk_ops);
        EXPECT_EQ(sm.bwdOps, per_chunk_ops);
        const std::int64_t blocks = sm.lastBlock - sm.firstBlock + 1;
        EXPECT_GE(blocks, 1);
        // Full recompute: one whole-block replay per block per
        // backward, counted exactly per chunk.
        EXPECT_EQ(sm.replayOps, per_chunk_ops * blocks);
    }

    EXPECT_EQ(metrics.gauge("runtime.virtual_stages"), 2.0);
    for (int r = 0; r < p; ++r) {
        for (int c = 0; c < 2; ++c) {
            const std::string prefix =
                "runtime.stage." + std::to_string(r) + ".chunk." +
                std::to_string(c) + ".";
            EXPECT_GT(metrics.gauge(prefix + "fwd_us"), 0.0)
                << prefix;
            EXPECT_GT(metrics.gauge(prefix + "bwd_us"), 0.0)
                << prefix;
        }
    }
}

TEST(PipelineRuntime, KilledWorkerTerminatesWithDiagnostic)
{
    // Regression for the shutdown deadlock: a worker dying mid-step
    // used to leave its peers blocked forever inside send()/recv().
    // Now the failure closes every channel and the run returns an
    // error naming the worker.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(3);
    RuntimeFaultSpec faults;
    faults.crash.worker = 1;
    faults.crash.afterOps = 3;
    opts.faults = &faults;
    const auto specs =
        evenStageSpecs(cfg.blocks, 3, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("worker 1"), std::string::npos)
        << run.error;
    EXPECT_NE(run.error.find("injected crash"), std::string::npos)
        << run.error;
}

TEST(PipelineRuntime, KilledInterleavedWorkerAlsoTerminates)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(3);
    opts.virtualStages = 2;
    RuntimeFaultSpec faults;
    faults.crash.worker = 0;
    faults.crash.afterOps = 2;
    opts.faults = &faults;
    const auto specs =
        evenStageSpecs(cfg.blocks, 4, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("worker 0"), std::string::npos)
        << run.error;
}

TEST(PipelineRuntime, InvalidInterleavedConfigFailsGracefully)
{
    // p = 3 does not divide micro_batches = 4: the runtime must
    // refuse with a diagnostic naming the fields, not abort.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(3);
    opts.virtualStages = 2;
    const auto specs =
        evenStageSpecs(cfg.blocks, 6, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("micro_batches"), std::string::npos)
        << run.error;
    EXPECT_NE(run.error.find("virtual_stages"), std::string::npos)
        << run.error;
    EXPECT_TRUE(run.losses.empty());
}

TEST(PlanMapping, InterleavedPlanMapsAndRunsBitExact)
{
    const TinyLmConfig cfg = smallConfig();
    const PlanResult result = makeInterleavedPlan(
        profileTinyLm(cfg, 2, 4), PlanMethod::AdaPipe, 2, {});
    ASSERT_TRUE(result.ok) << result.oomReason;
    EXPECT_EQ(result.plan.virtualStages, 2);
    ASSERT_EQ(result.plan.stages.size(), 4u);

    const StageMapping mapping =
        stageSpecsFromPlan(result.plan, cfg);
    EXPECT_EQ(mapping.virtualStages, 2);
    ASSERT_EQ(mapping.stages.size(), 4u);

    RuntimeOptions opts = smallOpts(3);
    opts.steps = 2;
    opts.virtualStages = mapping.virtualStages;
    TinyLM model(cfg);
    const RuntimeResult run =
        runPipeline(model, mapping.stages, opts);
    ASSERT_TRUE(run.ok) << run.error;
    RuntimeOptions ref_opts = opts;
    EXPECT_EQ(run.losses,
              referenceLosses(cfg, ref_opts, mapping.stages));
}

} // namespace
} // namespace adapipe
