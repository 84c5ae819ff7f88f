/**
 * @file
 * Tests for adaptive partitioning (Algorithm 1), the stage-cost
 * calculator and the isomorphism cache.
 */

#include <gtest/gtest.h>

#include "core/partition_dp.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"

namespace adapipe {
namespace {

/** A small but realistic planning fixture. */
class PartitionTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_13b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(4);

    void
    SetUp() override
    {
        train.seqLen = 8192;
        train.globalBatch = 32;
        par.tensor = 8;
        par.pipeline = 4;
        par.data = 1;
    }

    ProfiledModel
    profiled() const
    {
        return buildProfiledModel(model, train, par, cluster);
    }
};

TEST_F(PartitionTest, EvenPartitionCoversAllLayers)
{
    for (int p : {2, 4, 5, 8}) {
        const int L = 2 * model.numBlocks + 2;
        const auto ranges = evenPartition(L, p).value();
        ASSERT_EQ(static_cast<int>(ranges.size()), p);
        EXPECT_EQ(ranges.front().first, 0);
        EXPECT_EQ(ranges.back().second, L - 1);
        for (int s = 1; s < p; ++s)
            EXPECT_EQ(ranges[s].first, ranges[s - 1].second + 1);
        // Every stage holds whole blocks (even layer counts apart
        // from embedding/head attachments).
        for (int s = 0; s < p; ++s) {
            int layers = ranges[s].second - ranges[s].first + 1;
            if (s == 0)
                layers -= 1;
            if (s == p - 1)
                layers -= 1;
            EXPECT_EQ(layers % 2, 0) << "stage " << s;
        }
    }
}

TEST_F(PartitionTest, EvenPartitionDistributesRemainderToEarlyStages)
{
    // 10 blocks over 4 stages: 3, 3, 2, 2.
    const auto ranges = evenPartition(2 * 10 + 2, 4).value();
    EXPECT_EQ(ranges[0].second - ranges[0].first + 1, 7); // embed + 3
    EXPECT_EQ(ranges[1].second - ranges[1].first + 1, 6);
    EXPECT_EQ(ranges[2].second - ranges[2].first + 1, 4);
    EXPECT_EQ(ranges[3].second - ranges[3].first + 1, 5); // 2 + head
    // Interleaved chunks split the same way: v * p chunks in order.
    EXPECT_EQ(evenPartition(2 * 10 + 2, 2, 2).value(), ranges);
}

TEST_F(PartitionTest, EvenPartitionReportsFewerBlocksThanChunks)
{
    const auto stages = evenPartition(2 * 3 + 2, 4);
    ASSERT_FALSE(stages.ok());
    EXPECT_EQ(stages.error(),
              "even partition cannot split 3 attention blocks across "
              "4 stages (needs at least one block per stage)");
    const auto chunks = evenPartition(2 * 3 + 2, 2, 2);
    ASSERT_FALSE(chunks.ok());
    EXPECT_EQ(chunks.error(),
              "interleaved partition cannot split 3 attention blocks "
              "across 4 virtual chunks (pipeline 2 * virtual_stages "
              "2)");
}

TEST_F(PartitionTest, AdaptivePartitionCoversAllLayers)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto r =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(static_cast<int>(r.ranges.size()), par.pipeline);
    EXPECT_EQ(r.ranges.front().first, 0);
    EXPECT_EQ(r.ranges.back().second, pm.numLayers() - 1);
    for (int s = 1; s < par.pipeline; ++s)
        EXPECT_EQ(r.ranges[s].first, r.ranges[s - 1].second + 1);
}

TEST_F(PartitionTest, AdaptiveNeverWorseThanEvenPartition)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto adaptive =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    const PlanResult even = makePlan(pm, PlanMethod::EvenPartition);
    ASSERT_TRUE(adaptive.feasible);
    ASSERT_TRUE(even.ok);
    // The DP optimises over all partitions including the even one.
    EXPECT_LE(adaptive.timing.total, even.plan.timing.total + 1e-9);
}

TEST_F(PartitionTest, MovesLayersFromEarlyToLateStages)
{
    // The paper's Table 4 signature: with tight memory, early stages
    // recompute more, so AdaPipe assigns them fewer layers.
    train.seqLen = 16384;
    cluster.device.memCapacity = GiB(18); // force heavy recomputation
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto r =
        solveAdaptivePartition(calc, pm.numLayers(), par.pipeline, n);
    ASSERT_TRUE(r.feasible);
    const auto span = [&](int s) {
        return r.ranges[s].second - r.ranges[s].first + 1;
    };
    EXPECT_LE(span(0), span(par.pipeline - 1) + 1);
}

TEST_F(PartitionTest, IsomorphismCacheReducesKnapsackRuns)
{
    train.seqLen = 16384;
    cluster.device.memCapacity = GiB(18); // keep the knapsack active
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);

    StageCostOptions with_iso;
    with_iso.useIsomorphism = true;
    StageCostCalculator calc_iso(pm, par.pipeline, n, with_iso);
    solveAdaptivePartition(calc_iso, pm.numLayers(), par.pipeline, n);

    StageCostOptions no_iso;
    no_iso.useIsomorphism = false;
    StageCostCalculator calc_raw(pm, par.pipeline, n, no_iso);
    solveAdaptivePartition(calc_raw, pm.numLayers(), par.pipeline, n);

    EXPECT_LT(calc_iso.knapsackRuns(), calc_raw.knapsackRuns());
    EXPECT_GT(calc_iso.cacheHits(), 0u);
}

TEST_F(PartitionTest, StragglerAndBubbleKeepIsomorphism)
{
    // The cache keys a stage's time factor and bubble by value, so a
    // straggler replan and an overlapped-recompute plan still share
    // isomorphism classes: fewer distinct costs than one per (s, i, j).
    train.seqLen = 16384;
    cluster.device.memCapacity = GiB(18); // keep the knapsack active
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    const Seconds block = pm.layers[1].timeFwdAll() +
                          pm.layers[2].timeFwdAll();

    StageCostOptions straggler;
    straggler.stageTimeFactor = {1.0, 1.7, 1.0, 1.0};
    StageCostOptions bubble;
    bubble.overlapBubblePerMb = {0.3 * block, 0.2 * block, 0.1 * block,
                                 0.0};
    for (StageCostOptions opts : {straggler, bubble}) {
        StageCostCalculator calc_iso(pm, par.pipeline, n, opts);
        solveAdaptivePartition(calc_iso, pm.numLayers(), par.pipeline,
                               n);
        opts.useIsomorphism = false;
        StageCostCalculator calc_raw(pm, par.pipeline, n, opts);
        solveAdaptivePartition(calc_raw, pm.numLayers(), par.pipeline,
                               n);

        EXPECT_GT(calc_iso.cacheHits(), 0u);
        EXPECT_LT(calc_iso.evaluations(), calc_raw.evaluations());
    }
}

TEST_F(PartitionTest, IsomorphismDoesNotChangeResult)
{
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);

    StageCostOptions with_iso;
    with_iso.useIsomorphism = true;
    StageCostCalculator calc_iso(pm, par.pipeline, n, with_iso);
    const auto a =
        solveAdaptivePartition(calc_iso, pm.numLayers(), par.pipeline,
                               n);

    StageCostOptions no_iso;
    no_iso.useIsomorphism = false;
    StageCostCalculator calc_raw(pm, par.pipeline, n, no_iso);
    const auto b =
        solveAdaptivePartition(calc_raw, pm.numLayers(), par.pipeline,
                               n);

    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_NEAR(a.timing.total, b.timing.total, 1e-9);
    EXPECT_EQ(a.ranges, b.ranges);
}

TEST_F(PartitionTest, StageCostFeasibilityMonotoneInMemory)
{
    // Shrinking the device memory can only make ranges infeasible.
    ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const StageCost &ok = calc.cost(0, 0, pm.numLayers() / 2);
    ASSERT_TRUE(ok.feasible);

    pm.memCapacity = GiB(2);
    StageCostCalculator tight(pm, par.pipeline, n);
    const StageCost &bad = tight.cost(0, 0, pm.numLayers() / 2);
    EXPECT_FALSE(bad.feasible);
}

TEST_F(PartitionTest, LaterStagesSaveMoreUnits)
{
    // Table 4's monotone saved-unit counts: later stages keep fewer
    // in-flight micro-batches, so the same range saves more.
    train.seqLen = 16384;
    const ProfiledModel pm = profiled();
    const int n = train.microBatches(par);
    StageCostCalculator calc(pm, par.pipeline, n);
    const auto ranges =
        evenPartition(pm.numLayers(), par.pipeline).value();
    // Compare interior stages with identical ranges shapes: stage 1
    // and stage 2 hold the same layer count here.
    const StageCost &s1 = calc.cost(1, ranges[1].first,
                                    ranges[1].second);
    const StageCost &s2 = calc.cost(2, ranges[2].first,
                                    ranges[2].second);
    ASSERT_TRUE(s1.feasible && s2.feasible);
    EXPECT_LE(s1.recompute.savedUnits, s2.recompute.savedUnits);
    // And the backward time shrinks accordingly.
    EXPECT_GE(s1.bwd, s2.bwd - 1e-9);
}

TEST_F(PartitionTest, FixedPartitionBaselinesOrdering)
{
    const ProfiledModel pm = profiled();
    const PlanResult adaptive = makePlan(pm, PlanMethod::EvenPartition);
    const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(adaptive.ok);
    ASSERT_TRUE(full.ok);
    // Adaptive recomputation never recomputes more than full
    // recomputation, so it cannot be slower.
    EXPECT_LE(adaptive.plan.timing.total,
              full.plan.timing.total + 1e-9);
}

TEST_F(PartitionTest, RejectsMoreStagesThanLayers)
{
    const ProfiledModel pm = profiled();
    StageCostCalculator calc(pm, 2, 4);
    EXPECT_DEATH(solveAdaptivePartition(calc, 3, 4, 8),
                 "at least one layer per stage");
}

} // namespace
} // namespace adapipe
