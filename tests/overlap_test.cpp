/**
 * @file
 * Tests for overlapped checkpoint replay: the drain-all firing-order
 * determinism hook, the disjoint backward/replay time accounting,
 * the watchdog wait-accounting regression, and the bubble-discounted
 * planner producing a different knapsack solution than the lazy plan
 * on a golden workload. runtime_differential_test checks that
 * overlap keeps losses bit-identical.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "autograd/trainer.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "obs/registry.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

TEST(OverlapDeterminism, DrainAllFiringOrderIsReproducible)
{
    // With overlapDrainAll every channel wait warms *all* pending
    // replays, so the firing log is a pure function of the schedule:
    // two identical runs must log identical (pos, microBatch, unit)
    // sequences per worker.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    opts.virtualStages = 2;
    opts.overlapReplay = true;
    opts.overlapDrainAll = true;
    const int p = 2;
    const auto specs = evenStageSpecs(cfg.blocks, opts.virtualStages * p,
                                      BlockRecompute::Full);

    RuntimeResult runs[2];
    for (RuntimeResult &run : runs) {
        TinyLM model(cfg);
        run = runPipeline(model, specs, opts);
        ASSERT_TRUE(run.ok) << run.error;
        ASSERT_EQ(run.stages.size(),
                  static_cast<std::size_t>(opts.virtualStages * p));
    }
    EXPECT_EQ(runs[0].losses, runs[1].losses);

    std::int64_t total_firings = 0;
    for (std::size_t g = 0; g < runs[0].stages.size(); ++g) {
        EXPECT_EQ(runs[0].stages[g].overlapFirings,
                  runs[1].stages[g].overlapFirings)
            << "chain position " << g;
        total_firings += static_cast<std::int64_t>(
            runs[0].stages[g].overlapFirings.size());
    }
    // Full recompute on a multi-stage pipeline has both pending
    // replays and channel waits, so some replay must have been warmed
    // early.
    EXPECT_GT(total_firings, 0);
}

TEST(OverlapAccounting, BackwardAndReplayAreDisjoint)
{
    // Regression for the bwd_us double-count: backward compute and
    // replay must be reported disjointly, and the hidden share can
    // never exceed the total replay time.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    opts.overlapReplay = true;
    const auto specs =
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::Full);
    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run = runPipeline(model, specs, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_EQ(run.stages.size(), 2u);

    EXPECT_EQ(metrics.gauge("runtime.overlap.enabled"), 1.0);
    for (std::size_t s = 0; s < run.stages.size(); ++s) {
        const StageMetrics &sm = run.stages[s];
        EXPECT_GT(sm.replayOps, 0) << "stage " << s;
        EXPECT_GE(sm.replayOps, sm.replayHiddenOps) << "stage " << s;
        EXPECT_LE(sm.replayHiddenSeconds, sm.replaySeconds + 1e-9)
            << "stage " << s;
        // The decomposition identities the report columns rely on.
        EXPECT_NEAR(sm.replayCriticalSeconds(),
                    std::max(0.0, sm.replaySeconds -
                                      sm.replayHiddenSeconds),
                    1e-12);
        EXPECT_LE(sm.bwdComputeSeconds(), sm.bwdSeconds + 1e-12);
        if (sm.bwdSeconds > sm.replayCriticalSeconds()) {
            EXPECT_NEAR(sm.bwdComputeSeconds() +
                            sm.replayCriticalSeconds(),
                        sm.bwdSeconds, 1e-9)
                << "stage " << s;
        }

        const std::string prefix =
            "runtime.stage." + std::to_string(s) + ".";
        EXPECT_NEAR(metrics.gauge(prefix + "bwd_compute_us"),
                    sm.bwdComputeSeconds() * 1e6, 1.0)
            << prefix;
        EXPECT_NEAR(metrics.gauge(prefix + "replay_hidden_us"),
                    sm.replayHiddenSeconds * 1e6, 1.0)
            << prefix;
        EXPECT_NEAR(metrics.gauge(prefix + "replay_critical_us"),
                    sm.replayCriticalSeconds() * 1e6, 1.0)
            << prefix;
        EXPECT_LE(metrics.gauge(prefix + "bwd_compute_us"),
                  metrics.gauge(prefix + "bwd_us") + 1.0)
            << prefix;
    }
}

TEST(OverlapAccounting, LazyRunsReportNoHiddenReplay)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    opts.overlapReplay = false;
    const auto specs =
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::Full);
    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run = runPipeline(model, specs, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(metrics.gauge("runtime.overlap.enabled"), 0.0);
    EXPECT_EQ(metrics.counter("runtime.overlap.warms"), 0);
    for (const StageMetrics &sm : run.stages) {
        EXPECT_EQ(sm.replayHiddenOps, 0);
        EXPECT_EQ(sm.replayHiddenSeconds, 0.0);
        EXPECT_TRUE(sm.overlapFirings.empty());
    }
}

TEST(OverlapAccounting, WatchdogDoesNotSkewWaitTimes)
{
    // Regression for the heartbeat-loop wait drift: with the watchdog
    // on, recv/send waits run as repeated short timed waits, and the
    // reported waited time must still cover the whole wall-clock
    // window, not just the final beat iteration. Injected send delays
    // make the expected wait large and deterministic enough to
    // compare the two modes.
    const TinyLmConfig cfg = smallConfig();
    RuntimeFaultSpec faults;
    faults.sendDelayUs = 2000;
    faults.sendDelayJitter = 0;

    double recv_wait[2] = {0, 0};
    std::vector<double> losses[2];
    for (const bool watchdog : {false, true}) {
        RuntimeOptions opts = smallOpts(2);
        opts.faults = &faults;
        opts.watchdog.enabled = watchdog;
        opts.watchdog.stallTimeoutUs = 60e6; // never trips here
        const auto specs =
            evenStageSpecs(cfg.blocks, 2, BlockRecompute::None);
        TinyLM model(cfg);
        const RuntimeResult run = runPipeline(model, specs, opts);
        ASSERT_TRUE(run.ok) << run.error;
        for (const StageMetrics &sm : run.stages)
            recv_wait[watchdog ? 1 : 0] += sm.recvWaitSeconds;
        losses[watchdog ? 1 : 0] = run.losses;
    }
    EXPECT_EQ(losses[0], losses[1]);

    // steps * microBatches delayed sends per direction at 2 ms each:
    // both modes must see a large fraction of that as recv wait...
    EXPECT_GT(recv_wait[0], 5e-3);
    EXPECT_GT(recv_wait[1], 5e-3);
    // ...and agree with each other up to scheduling noise. Before the
    // fix the watchdog run under-reported by roughly the heartbeat
    // remainder of every wait window.
    const double hi = std::max(recv_wait[0], recv_wait[1]);
    const double lo = std::min(recv_wait[0], recv_wait[1]);
    EXPECT_LT(hi - lo, 0.6 * hi + 0.01)
        << "watchdog off: " << recv_wait[0]
        << " s, on: " << recv_wait[1] << " s";
}

TEST(OverlapPlan, MappingCarriesTheOverlapFlag)
{
    const TinyLmConfig cfg = smallConfig();
    TrainConfig train;
    train.seqLen = 16;
    train.globalBatch = 4;
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = 2;
    par.data = 1;
    const ProfiledModel pm = buildProfiledModel(
        tinyLmModelConfig(cfg), train, par, clusterA(1));
    const PlanResult result =
        makeOverlapPlan(pm, PlanMethod::AdaPipe, 1);
    ASSERT_TRUE(result.ok) << result.oomReason;
    EXPECT_TRUE(result.plan.overlap);
    const StageMapping mapping = stageSpecsFromPlan(result.plan, cfg);
    EXPECT_TRUE(mapping.overlap);
}

TEST(OverlapPlan, DiscountedKnapsackDiffersOnGoldenWorkload)
{
    // The bubble-discounted objective must actually change the saved
    // set on a paper workload: replay that hides inside the 1F1B
    // bubble stops paying for activation memory.
    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;
    const ProfiledModel pm =
        buildProfiledModel(gpt3_175b(), train, par, clusterA(8));

    const PlanResult lazy =
        makeInterleavedPlan(pm, PlanMethod::AdaPipe, 1);
    ASSERT_TRUE(lazy.ok) << lazy.oomReason;
    const PlanResult overlapped =
        makeOverlapPlan(pm, PlanMethod::AdaPipe, 1);
    ASSERT_TRUE(overlapped.ok) << overlapped.oomReason;

    EXPECT_FALSE(lazy.plan.overlap);
    EXPECT_TRUE(overlapped.plan.overlap);
    ASSERT_EQ(lazy.plan.stages.size(), overlapped.plan.stages.size());

    Seconds hidden_total = 0;
    bool saved_set_differs = false;
    for (std::size_t s = 0; s < overlapped.plan.stages.size(); ++s) {
        const StagePlan &ov = overlapped.plan.stages[s];
        hidden_total += ov.timeReplayHidden;
        EXPECT_GE(ov.overlapBubble, 0.0);
        EXPECT_GE(ov.timeReplayHidden, 0.0);
        EXPECT_GE(ov.timeReplayCritical, 0.0);
        const StagePlan &lz = lazy.plan.stages[s];
        if (ov.savedMask != lz.savedMask ||
            ov.savedUnits != lz.savedUnits)
            saved_set_differs = true;
    }
    EXPECT_GT(hidden_total, 0.0);
    EXPECT_TRUE(saved_set_differs)
        << "overlap plan saved the exact same units as the lazy plan";
    EXPECT_NE(planToJsonString(lazy.plan, 0),
              planToJsonString(overlapped.plan, 0));
}

} // namespace
} // namespace adapipe
