/**
 * @file
 * Focused tests for StageCostCalculator: budget derivation, the
 * fast path, feasibility edges and cross-model property sweeps.
 */

#include <gtest/gtest.h>

#include "core/stage_cost.h"
#include "hw/cluster.h"
#include "model/model_config.h"

namespace adapipe {
namespace {

ProfiledModel
makePm(const ModelConfig &model, int tensor, int seq, Bytes capacity,
       Bytes reserve = 0)
{
    TrainConfig train;
    train.seqLen = seq;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = tensor;
    par.pipeline = 4;
    par.data = 1;
    ClusterSpec cluster = clusterA(4);
    cluster.device.memCapacity = capacity;
    cluster.device.reservedBytes = reserve;
    return buildProfiledModel(model, train, par, cluster);
}

TEST(StageCost, FastPathSavesEverythingWhenAmple)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 4096, GiB(400));
    StageCostCalculator calc(pm, 4, 32);
    const StageCost &c = calc.cost(0, 0, pm.numLayers() / 2);
    ASSERT_TRUE(c.feasible);
    EXPECT_EQ(c.recompute.savedUnits, c.totalUnits);
    // With everything saved, backward carries no recompute penalty.
    Seconds bwd_all = 0;
    for (int l = 0; l <= pm.numLayers() / 2; ++l)
        bwd_all += pm.layers[l].timeBwdAll();
    EXPECT_NEAR(c.bwd, bwd_all, 1e-12);
}

TEST(StageCost, InfeasibleWhenStaticExceedsCapacity)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 4096, GiB(4));
    StageCostCalculator calc(pm, 4, 32);
    const StageCost &c = calc.cost(0, 0, pm.numLayers() - 4);
    EXPECT_FALSE(c.feasible);
    EXPECT_GT(c.memPeak, pm.memCapacity);
}

TEST(StageCost, TightBudgetRecomputesEverythingOptional)
{
    // Capacity just above the minimal footprint: the knapsack must
    // return only always-saved units, and bwd picks up all
    // recomputable forward time.
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 16384, GiB(400));
    StageCostCalculator calc(pm, 4, 32);
    const StageCost &rich = calc.cost(0, 0, 40);
    ASSERT_TRUE(rich.feasible);

    // Find a capacity where stage 0 fits but can save nothing.
    const ProfiledModel tight = makePm(gpt3_13b(), 8, 16384,
                                       rich.memPeak / 3);
    StageCostCalculator tight_calc(tight, 4, 32);
    const StageCost &c = tight_calc.cost(0, 0, 40);
    if (c.feasible) {
        EXPECT_GE(c.bwd, rich.bwd);
        EXPECT_LE(c.recompute.savedUnits, rich.recompute.savedUnits);
    }
}

TEST(StageCost, InflightCappedByMicroBatches)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 4096, GiB(80));
    StageCostCalculator few(pm, 4, 2); // n = 2 < p = 4
    EXPECT_EQ(few.inflight(0), 2);
    EXPECT_EQ(few.inflight(3), 1);
    StageCostCalculator many(pm, 4, 32);
    EXPECT_EQ(many.inflight(0), 4);
}

TEST(StageCost, P2pChargedToInteriorStagesOnly)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 4096, GiB(400));
    ProfiledModel no_p2p = pm;
    no_p2p.p2pTime = 0;
    StageCostCalculator c1(pm, 4, 32);
    StageCostCalculator c2(no_p2p, 4, 32);

    // Stage 0 (contains layer 0) receives token ids, not a tensor.
    EXPECT_NEAR(c1.cost(0, 0, 10).fwd, c2.cost(0, 0, 10).fwd, 1e-12);
    // Interior stages pay the transfer in both directions.
    EXPECT_NEAR(c1.cost(1, 11, 20).fwd,
                c2.cost(1, 11, 20).fwd + pm.p2pTime, 1e-12);
    EXPECT_NEAR(c1.cost(1, 11, 20).bwd,
                c2.cost(1, 11, 20).bwd + pm.p2pTime, 1e-12);
}

TEST(StageCost, BaselineFullRecomputesBlocksOnly)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 4096, GiB(400));
    StageCostCalculator calc(pm, 4, 32);
    // A stage containing the embedding: the embedding itself is not
    // recomputed under full recomputation.
    const StageCost full = calc.baselineCost(0, 0, 10, true);
    Seconds bwd_all = 0;
    Seconds fwd_blocks = 0;
    for (int l = 0; l <= 10; ++l) {
        bwd_all += pm.layers[l].timeBwdAll();
        if (pm.layers[l].kind != LayerKind::Embedding)
            fwd_blocks += pm.layers[l].timeFwdAll();
    }
    EXPECT_NEAR(full.bwd, bwd_all + fwd_blocks, 1e-12);
}

TEST(StageCostOffload, FastLinkReducesBackwardPenalty)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 16384, GiB(20));
    StageCostOptions plain;
    StageCostCalculator base(pm, 4, 32, plain);
    const StageCost &without = base.cost(0, 0, 40);
    ASSERT_TRUE(without.feasible);

    StageCostOptions hybrid = plain;
    hybrid.offload.enabled = true;
    hybrid.offload.bandwidth = 50.0e9;
    hybrid.offload.overlapFraction = 0.5;
    StageCostCalculator fast(pm, 4, 32, hybrid);
    const StageCost &with = fast.cost(0, 0, 40);
    ASSERT_TRUE(with.feasible);
    EXPECT_LE(with.bwd, without.bwd + 1e-12);
    // Forward time is unchanged: offloading only touches backward.
    EXPECT_NEAR(with.fwd, without.fwd, 1e-12);
}

TEST(StageCostOffload, SlowLinkDegeneratesToRecompute)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 16384, GiB(20));
    StageCostOptions slow;
    slow.offload.enabled = true;
    slow.offload.bandwidth = 1.0e6; // effectively unusable
    slow.offload.overlapFraction = 0.0;
    StageCostCalculator hybrid(pm, 4, 32, slow);
    StageCostCalculator plain(pm, 4, 32);
    const StageCost &a = hybrid.cost(0, 0, 40);
    const StageCost &b = plain.cost(0, 0, 40);
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_NEAR(a.bwd, b.bwd, 1e-12);
}

TEST(StageCostOffload, InfiniteLinkRemovesAllPenalty)
{
    const ProfiledModel pm = makePm(gpt3_13b(), 8, 16384, GiB(20));
    StageCostOptions free_link;
    free_link.offload.enabled = true;
    free_link.offload.bandwidth = 1.0e18;
    StageCostCalculator calc(pm, 4, 32, free_link);
    const StageCost &c = calc.cost(0, 0, 40);
    ASSERT_TRUE(c.feasible);
    Seconds bwd_all = 0;
    Seconds fixed_replay = 0;
    for (int l = 0; l <= 40; ++l) {
        bwd_all += pm.layers[l].timeBwdAll();
        for (const auto &u : pm.layers[l].units) {
            // Zero-byte units have nothing to stage to host: they
            // recompute regardless of link speed.
            if (!u.alwaysSaved && u.memSaved == 0)
                fixed_replay += u.timeFwd;
        }
    }
    // Every unit with bytes evicts for free: the only penalty left
    // is the fixed replay of non-stageable units.
    EXPECT_NEAR(c.bwd, bwd_all + fixed_replay, 1e-6);
    EXPECT_GT(c.offloadedUnits, 0);
    EXPECT_NEAR(c.offloadExposed, 0.0, 1e-6);
}

/**
 * Property over models and sequence lengths: a stage's backward
 * time under adaptive recomputation always sits between the
 * no-recompute and full-recompute backward times.
 */
class AdaptiveBwdBounds
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(AdaptiveBwdBounds, BetweenFullAndNone)
{
    const auto [model_idx, seq] = GetParam();
    const ModelConfig model =
        model_idx == 0 ? gpt3_13b() : llama2_70b();
    const ProfiledModel pm = makePm(model, 8, seq, GiB(60));
    StageCostCalculator calc(pm, 4, 32);
    const int mid = pm.numLayers() / 2;
    const StageCost &ada = calc.cost(1, 11, mid);
    const StageCost full = calc.baselineCost(1, 11, mid, true);
    const StageCost none = calc.baselineCost(1, 11, mid, false);
    if (!ada.feasible)
        GTEST_SKIP() << "range infeasible at this capacity";
    EXPECT_GE(ada.bwd, none.bwd - 1e-12);
    // Full recompute also redoes the always-saved output GEMMs, so
    // it is a strict upper bound.
    EXPECT_LE(ada.bwd, full.bwd + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveBwdBounds,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(4096, 8192, 16384)));

} // namespace
} // namespace adapipe
