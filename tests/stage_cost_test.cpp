/**
 * @file
 * Focused tests for StageCostCalculator: budget derivation, the
 * fast path, feasibility edges, cross-model property sweeps and the
 * floor contract the partition search relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stage_cost.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "util/rng.h"

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

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** @return @p pm with each unit's times scaled by its own seeded
 *  factor in [1, 1.05): no two layers stay isomorphic. */
ProfiledModel
perturbed(ProfiledModel pm)
{
    Rng rng(20);
    for (ProfiledLayer &layer : pm.layers) {
        for (UnitProfile &u : layer.units) {
            const double factor = rng.uniform(1.0, 1.05);
            u.timeFwd *= factor;
            u.timeBwd *= factor;
        }
    }
    return pm;
}

/** A calculator configuration of the floor contract test. */
struct ContractMode
{
    std::string name;
    StageCostOptions opts;
};

/**
 * GPT-3 13B cut to 5 blocks on p = 4 stages, at a capacity between
 * the even split's all-recompute and all-saved peaks: short ranges
 * take the fast path, longer ones run the knapsack, the longest do
 * not fit. @p modes receives the healthy, straggler, bubble, offload
 * and in-flight-override configurations.
 */
ProfiledModel
contractModel(std::vector<ContractMode> &modes)
{
    ModelConfig model = gpt3_13b();
    model.numBlocks = 5;
    const ProfiledModel pm = makePm(model, 2, 2048, GiB(80));
    const int L = pm.numLayers();
    StageCostCalculator probe(pm, 4, 32);
    Bytes lo = 0;
    Bytes hi = 0;
    for (int s = 0; s < 4; ++s) {
        const int i = s * L / 4;
        const int j = (s + 1) * L / 4 - 1;
        lo = std::max(lo, probe.baselineCost(s, i, j, true).memPeak);
        hi = std::max(hi, probe.baselineCost(s, i, j, false).memPeak);
    }
    const Seconds fwd = probe.baselineCost(1, 3, 6, false).fwd;

    StageCostOptions base;
    base.memCapacityOverride = lo + (hi - lo) / 2;
    base.memBudgetFraction = 0.95;
    base.maxBuckets = 256;
    modes.push_back({"healthy", base});
    StageCostOptions o = base;
    o.stageTimeFactor = {1.0, 2.5, 1.0, 1.0};
    modes.push_back({"straggler", o});
    o = base;
    o.overlapBubblePerMb = {0.3 * fwd, 0.0, 0.1 * fwd, 0.3 * fwd};
    modes.push_back({"bubble", o});
    o = base;
    o.offload.enabled = true;
    o.offload.bandwidth = 20e9;
    o.offload.overlapFraction = 0.5;
    o.offload.maxLinkBuckets = 4;
    o.offload.maxOffloadMemBuckets = 24;
    o.offload.maxHiddenBuckets = 4;
    modes.push_back({"offload", o});
    o = base;
    o.inflightOverride = {2, 3, 1, 1};
    modes.push_back({"inflight", o});
    return pm;
}

/**
 * costFloor() against cost() at every (s, i, j): the same verdict,
 * bit-equal forward times and floor.bwd <= cost.bwd, bit-equal when
 * the cost replays and exposes nothing (the fast path), in every
 * mode, with the isomorphism cache on and off, and on a perturbed
 * profile whose layers are not isomorphic. Costs are read in
 * ascending and floors in descending order, so the contract cannot
 * lean on both seeing a class through the same range first.
 */
TEST(StageCostFloor, BoundsCostAtEveryRange)
{
    std::vector<ContractMode> modes;
    const ProfiledModel pm = contractModel(modes);
    const ProfiledModel noisy = perturbed(pm);
    const int L = pm.numLayers();
    int equal = 0;
    int strict = 0;
    int infeasible = 0;
    const auto check = [&](const ProfiledModel &profile,
                           const ContractMode &mode, bool iso) {
        StageCostOptions opts = mode.opts;
        opts.useIsomorphism = iso;
        StageCostCalculator calc(profile, 4, 32, opts);
        std::vector<const StageCost *> costs;
        for (int s = 0; s < 4; ++s)
            for (int i = 0; i < L; ++i)
                for (int j = i; j < L; ++j)
                    costs.push_back(&calc.cost(s, i, j));
        std::size_t k = costs.size();
        for (int s = 3; s >= 0; --s) {
            for (int i = L - 1; i >= 0; --i) {
                for (int j = L - 1; j >= i; --j) {
                    const std::string where =
                        mode.name + (iso ? " iso" : " raw") +
                        (&profile == &pm ? "" : " perturbed") +
                        " s=" + std::to_string(s) +
                        " i=" + std::to_string(i) +
                        " j=" + std::to_string(j);
                    const StageCostFloor fl = calc.costFloor(s, i, j);
                    const StageCost &c = *costs[--k];
                    ASSERT_EQ(fl.feasible, c.feasible) << where;
                    if (!c.feasible) {
                        ++infeasible;
                        continue;
                    }
                    EXPECT_EQ(bits(fl.fwd), bits(c.fwd)) << where;
                    EXPECT_LE(fl.bwd, c.bwd) << where;
                    if (c.replayCritical == 0 && c.offloadExposed == 0) {
                        EXPECT_EQ(bits(fl.bwd), bits(c.bwd)) << where;
                        ++equal;
                    } else {
                        strict += fl.bwd < c.bwd;
                    }
                }
            }
        }
    };
    for (const ContractMode &mode : modes) {
        check(pm, mode, true);
        check(pm, mode, false);
        check(noisy, mode, true);
    }
    EXPECT_GT(equal, 0);
    EXPECT_GT(strict, 0);
    EXPECT_GT(infeasible, 0);
}

/**
 * On a perturbed profile, every cost a calculator returns is the
 * same whichever order the ranges are read in: each isomorphism
 * class is costed on its fixed representative, not on whichever
 * range reached it first.
 */
TEST(StageCostFloor, CostsDoNotDependOnReadOrder)
{
    std::vector<ContractMode> modes;
    const ProfiledModel noisy = perturbed(contractModel(modes));
    const int L = noisy.numLayers();
    for (const ContractMode &mode : modes) {
        StageCostCalculator up(noisy, 4, 32, mode.opts);
        StageCostCalculator down(noisy, 4, 32, mode.opts);
        std::vector<const StageCost *> ascending;
        for (int s = 0; s < 4; ++s)
            for (int i = 0; i < L; ++i)
                for (int j = i; j < L; ++j)
                    ascending.push_back(&up.cost(s, i, j));
        std::size_t k = ascending.size();
        for (int s = 3; s >= 0; --s) {
            for (int i = L - 1; i >= 0; --i) {
                for (int j = L - 1; j >= i; --j) {
                    const StageCost &a = *ascending[--k];
                    const StageCost &b = down.cost(s, i, j);
                    const std::string where =
                        mode.name + " s=" + std::to_string(s) +
                        " i=" + std::to_string(i) +
                        " j=" + std::to_string(j);
                    EXPECT_EQ(a.feasible, b.feasible) << where;
                    EXPECT_EQ(bits(a.fwd), bits(b.fwd)) << where;
                    EXPECT_EQ(bits(a.bwd), bits(b.bwd)) << where;
                    EXPECT_EQ(a.memPeak, b.memPeak) << where;
                    EXPECT_EQ(bits(a.replayHidden), bits(b.replayHidden))
                        << where;
                    EXPECT_EQ(bits(a.offloadExposed),
                              bits(b.offloadExposed))
                        << where;
                    EXPECT_EQ(a.recompute.saved, b.recompute.saved)
                        << where;
                    EXPECT_EQ(a.recompute.offloaded,
                              b.recompute.offloaded)
                        << where;
                }
            }
        }
        EXPECT_EQ(up.evaluations(), down.evaluations()) << mode.name;
    }
}

} // namespace
} // namespace adapipe
