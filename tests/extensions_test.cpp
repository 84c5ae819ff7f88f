/**
 * @file
 * Tests for the extension features: interleaved 1F1B (Sec. 2.1
 * background) and the selective recomputation baseline (Sec. 2.2).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/partition_dp.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "core/stage_cost.h"
#include "hw/cluster.h"
#include "memory/memory_model.h"
#include "model/model_config.h"
#include "sim/baseline_eval.h"
#include "sim/interleaved_planner.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"

namespace adapipe {
namespace {

TEST(Interleaved, VEqualsOneIsPlain1F1B)
{
    const Schedule s = tryBuildInterleaved1F1B(4, 8, 1).value();
    EXPECT_EQ(s.name, "1F1B");
}

TEST(Interleaved, OpCountsAndPositions)
{
    const int p = 4;
    const int n = 8;
    const int v = 2;
    const Schedule s = tryBuildInterleaved1F1B(p, n, v).value();
    EXPECT_EQ(s.chainLength, v * p);
    EXPECT_EQ(s.ops.size(), static_cast<std::size_t>(2 * n * v * p));
    for (const PipeOp &op : s.ops)
        EXPECT_EQ(op.device, op.pos % p);
}

/**
 * The headline property (Sec. 2.1): v virtual chunks divide the
 * bubble by v while increasing in-flight activations.
 */
class InterleavedBubble : public ::testing::TestWithParam<int>
{};

TEST_P(InterleavedBubble, BubbleShrinksByV)
{
    const int v = GetParam();
    const int p = 4;
    const int n = 8;
    // Total per-device work held constant: each chunk is 1/v of a
    // stage.
    const std::vector<StageTimes> stages(
        v * p, StageTimes{1.0 / v, 2.0 / v});
    const SimResult r = simulate(
        tryBuildInterleaved1F1B(p, n, v).value(), stages, {});
    // 1F1B idle time per device over the whole iteration is
    // (p - 1)(F + B); interleaving divides it by v.
    const double expected = (p - 1) * 3.0 / v;
    for (int d = 0; d < p; ++d) {
        EXPECT_NEAR(r.iterationTime - r.deviceBusy[d], expected, 1e-9)
            << "device " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(V, InterleavedBubble,
                         ::testing::Values(1, 2, 4));

TEST(Interleaved, MoreChunksMeansMoreInflightActivations)
{
    const int p = 4;
    const int n = 8;
    int prev = 0;
    for (int v : {1, 2, 4}) {
        const std::vector<StageTimes> stages(
            v * p, StageTimes{1.0 / v, 2.0 / v});
        const SimResult r = simulate(
            tryBuildInterleaved1F1B(p, n, v).value(), stages, {});
        EXPECT_GT(r.peakAlive[0], prev);
        prev = r.peakAlive[0];
    }
}

TEST(Interleaved, EndToEndFasterButHeavier)
{
    const ModelConfig model = gpt3_13b();
    TrainConfig train;
    train.seqLen = 4096;
    train.globalBatch = 16;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 4;
    par.data = 1;
    const ClusterSpec cluster = clusterA(4);
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);

    const EndToEndResult v1 =
        evaluateInterleaved(pm, 1, RecomputeBaseline::Full);
    const EndToEndResult v2 =
        evaluateInterleaved(pm, 2, RecomputeBaseline::Full);
    ASSERT_TRUE(v1.feasible && v2.feasible);
    EXPECT_LT(v2.iterationTime, v1.iterationTime);
    // Interleaving pins more in-flight chunk activations.
    EXPECT_GE(v2.peakAlive[0], v1.peakAlive[0]);
}

TEST(Interleaved, TryBuildNamesTheBadField)
{
    EXPECT_FALSE(tryBuildInterleaved1F1B(0, 8, 2).ok());
    EXPECT_NE(tryBuildInterleaved1F1B(0, 8, 2).error().find(
                  "parallel.pipeline"),
              std::string::npos);
    EXPECT_NE(
        tryBuildInterleaved1F1B(4, 0, 2).error().find("micro_batches"),
        std::string::npos);
    EXPECT_NE(tryBuildInterleaved1F1B(4, 8, 0).error().find(
                  "virtual_stages"),
              std::string::npos);
    // Megatron's divisibility constraint names both fields involved.
    const ParseResult<Schedule> indivisible =
        tryBuildInterleaved1F1B(3, 8, 2);
    ASSERT_FALSE(indivisible.ok());
    EXPECT_NE(indivisible.error().find("micro_batches"),
              std::string::npos);
    EXPECT_NE(indivisible.error().find("parallel.pipeline"),
              std::string::npos);
    // And the valid neighbours still build.
    EXPECT_TRUE(tryBuildInterleaved1F1B(3, 8, 1).ok());
    EXPECT_TRUE(tryBuildInterleaved1F1B(4, 8, 2).ok());
}

TEST(Interleaved, EvaluateRejectsInvalidConfigGracefully)
{
    // evaluateInterleaved used to ADAPIPE_ASSERT on these; they are
    // user-reachable through CLI sweeps and must come back as
    // infeasible results carrying the builder's diagnostic.
    const ModelConfig model = gpt3_13b();
    TrainConfig train;
    train.seqLen = 4096;
    train.globalBatch = 9; // 9 micro-batches, p = 4 -> indivisible
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 4;
    par.data = 1;
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, clusterA(4));

    const EndToEndResult bad_v =
        evaluateInterleaved(pm, 0, RecomputeBaseline::Full);
    EXPECT_FALSE(bad_v.feasible);
    EXPECT_NE(bad_v.oomReason.find("virtual_stages"),
              std::string::npos);

    const EndToEndResult indivisible =
        evaluateInterleaved(pm, 2, RecomputeBaseline::Full);
    EXPECT_FALSE(indivisible.feasible);
    EXPECT_NE(indivisible.oomReason.find("micro_batches"),
              std::string::npos);
}

/**
 * Cross-check: evaluateInterleaved's timing must equal an actual
 * event-simulator run of the interleaved schedule over the same
 * per-chunk costs — the closed-form shortcut it replaced is gone.
 */
class InterleavedCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(InterleavedCrossCheck, EvaluateMatchesDirectSimulation)
{
    const auto [p, v, n_per_p] = GetParam();
    const ModelConfig model = gpt3_13b();
    TrainConfig train;
    train.seqLen = 4096;
    train.globalBatch = n_per_p * p;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = p;
    par.data = 1;
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, clusterA(4));
    const int n = pm.train.microBatches(pm.par);
    ASSERT_EQ(n, n_per_p * p);

    const EndToEndResult eval =
        evaluateInterleaved(pm, v, RecomputeBaseline::Full);
    ASSERT_TRUE(eval.feasible) << eval.oomReason;

    // Rebuild the exact inputs evaluateInterleaved feeds the
    // simulator: an even chunk partition costed per chunk.
    const int chunks = v * p;
    const auto ranges = evenPartition(pm.numLayers(), p, v).value();
    StageCostCalculator calc(pm, p, n, {});
    std::vector<StageTimes> times(chunks);
    for (int g = 0; g < chunks; ++g) {
        const auto [i, j] = ranges[static_cast<std::size_t>(g)];
        const StageCost c =
            calc.baselineCost(0, i, j, RecomputeBaseline::Full);
        times[static_cast<std::size_t>(g)] = {c.fwd, c.bwd};
    }
    const ParseResult<Schedule> built =
        tryBuildInterleaved1F1B(p, n, v);
    ASSERT_TRUE(built.ok()) << built.error();
    const SimResult sim = simulate(built.value(), times, {});

    EXPECT_DOUBLE_EQ(eval.iterationTime, sim.iterationTime);
    EXPECT_DOUBLE_EQ(eval.bubbleTime, sim.totalBubbleTime());
    ASSERT_EQ(eval.peakAlive.size(), sim.peakAlive.size());
    for (std::size_t d = 0; d < sim.peakAlive.size(); ++d)
        EXPECT_EQ(eval.peakAlive[d], sim.peakAlive[d]) << d;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InterleavedCrossCheck,
    ::testing::Values(std::make_tuple(2, 2, 2),
                      std::make_tuple(2, 4, 3),
                      std::make_tuple(4, 2, 2),
                      std::make_tuple(4, 4, 2)));

class InterleavedPlannerTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_13b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(4);

    void
    SetUp() override
    {
        train.seqLen = 4096;
        train.globalBatch = 16;
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

TEST_F(InterleavedPlannerTest, ChunkPeaksMatchMemoryModelForV1)
{
    // For plain 1F1B the exact per-position peaks walked off the
    // schedule must reproduce the closed form min(p - s, n).
    const int p = 4;
    const int n = 16;
    const auto peaks = chunkInflightPeaks(build1F1B(p, n));
    ASSERT_EQ(peaks.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
        EXPECT_EQ(peaks[static_cast<std::size_t>(s)],
                  MemoryModel::inflightMicroBatches(s, p, n))
            << "stage " << s;
    }
}

TEST_F(InterleavedPlannerTest, ChunkPeaksDropTowardTheChainTail)
{
    const auto peaks =
        chunkInflightPeaks(tryBuildInterleaved1F1B(4, 8, 2).value());
    ASSERT_EQ(peaks.size(), 8u);
    // The chain head holds the most in-flight micro-batches, the
    // tail the fewest — same shape as 1F1B, spread over v * p
    // positions.
    EXPECT_GT(peaks.front(), peaks.back());
    for (std::size_t g = 1; g < peaks.size(); ++g)
        EXPECT_LE(peaks[g], peaks[g - 1]) << "pos " << g;
}

TEST_F(InterleavedPlannerTest, PlanHasChunkStagesAndSimTiming)
{
    const ProfiledModel pm = profiled();
    const int v = 2;
    const PlanResult result =
        makeInterleavedPlan(pm, PlanMethod::AdaPipe, v);
    ASSERT_TRUE(result.ok) << result.oomReason;
    EXPECT_EQ(result.plan.virtualStages, v);
    ASSERT_EQ(result.plan.stages.size(),
              static_cast<std::size_t>(v * par.pipeline));
    // Chunk boundaries cover the layer sequence contiguously.
    EXPECT_EQ(result.plan.stages.front().firstLayer, 0);
    EXPECT_EQ(result.plan.stages.back().lastLayer,
              pm.numLayers() - 1);
    for (std::size_t g = 1; g < result.plan.stages.size(); ++g) {
        EXPECT_EQ(result.plan.stages[g].firstLayer,
                  result.plan.stages[g - 1].lastLayer + 1);
    }
    EXPECT_GT(result.plan.timing.total, 0.0);

    // v = 1 through the same entry point degenerates to makePlan.
    const PlanResult v1 =
        makeInterleavedPlan(pm, PlanMethod::AdaPipe, 1);
    ASSERT_TRUE(v1.ok);
    EXPECT_EQ(v1.plan.virtualStages, 1);
    EXPECT_EQ(v1.plan.stages.size(),
              static_cast<std::size_t>(par.pipeline));
}

TEST_F(InterleavedPlannerTest, BestSchedulePicksTheFastestV)
{
    const ProfiledModel pm = profiled();
    const PlanResult best =
        makeBestSchedulePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(best.ok) << best.oomReason;
    for (const int v : {1, 2, 4}) {
        const PlanResult cand =
            makeInterleavedPlan(pm, PlanMethod::AdaPipe, v);
        if (cand.ok) {
            EXPECT_LE(best.plan.timing.total,
                      cand.plan.timing.total + 1e-9)
                << "v=" << v;
        }
    }
}

TEST_F(InterleavedPlannerTest, PlanJsonRoundTripsVirtualStages)
{
    const ProfiledModel pm = profiled();
    const PlanResult result =
        makeInterleavedPlan(pm, PlanMethod::AdaPipe, 2);
    ASSERT_TRUE(result.ok) << result.oomReason;
    const std::string text = planToJsonString(result.plan);
    const ParseResult<PipelinePlan> back =
        tryPlanFromJsonString(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().virtualStages, 2);
    EXPECT_EQ(back.value().stages.size(), result.plan.stages.size());
}

class BPipeTest : public ::testing::Test
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
};

TEST_F(BPipeTest, NoEvictionMeansNoOverhead)
{
    // With ample memory BPipe degenerates to plain DAPPLE.
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const auto non = evaluateBaseline(
        pm, BaselineSchedule::Dapple, RecomputeBaseline::None);
    const auto bpipe = evaluateBPipe(pm, RecomputeBaseline::None);
    ASSERT_TRUE(non.feasible && bpipe.feasible);
    EXPECT_NEAR(bpipe.iterationTime, non.iterationTime,
                1e-9 * non.iterationTime);
}

TEST_F(BPipeTest, RescuesOomWithTransferPenalty)
{
    // Pick a capacity between DAPPLE-Non's stage-0 demand and the
    // pair-balanced demand: Non OOMs, BPipe fits but pays transfers.
    train.seqLen = 16384;
    ProfiledModel pm = buildProfiledModel(model, train, par, cluster);
    const auto ample = evaluateBaseline(
        pm, BaselineSchedule::Dapple, RecomputeBaseline::None);
    ASSERT_TRUE(ample.feasible);
    Bytes worst = 0;
    Bytes total = 0;
    for (Bytes b : ample.deviceMem) {
        worst = std::max(worst, b);
        total += b;
    }
    const Bytes avg = total / ample.deviceMem.size();
    pm.memCapacity = (worst + avg) / 2;

    const auto non = evaluateBaseline(
        pm, BaselineSchedule::Dapple, RecomputeBaseline::None);
    EXPECT_FALSE(non.feasible);
    const auto bpipe = evaluateBPipe(pm, RecomputeBaseline::None);
    ASSERT_TRUE(bpipe.feasible) << bpipe.oomReason;
    // The rescue costs time relative to the unconstrained run.
    EXPECT_GT(bpipe.iterationTime, ample.iterationTime);
    // And every device now fits.
    for (Bytes b : bpipe.deviceMem)
        EXPECT_LE(b, pm.memCapacity);
}

TEST_F(BPipeTest, FailsWhenPairsJointlyOverflow)
{
    train.seqLen = 16384;
    ProfiledModel pm = buildProfiledModel(model, train, par, cluster);
    pm.memCapacity = GiB(12); // below the pair average
    const auto bpipe = evaluateBPipe(pm, RecomputeBaseline::None);
    EXPECT_FALSE(bpipe.feasible);
    EXPECT_NE(bpipe.oomReason.find("overflows its pair"),
              std::string::npos);
}

class SelectiveTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_13b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(4);

    void
    SetUp() override
    {
        train.seqLen = 4096;
        train.globalBatch = 32;
        par.tensor = 8;
        par.pipeline = 4;
        par.data = 1;
        par.flashAttention = false; // the pre-flash era
        cluster.device.memCapacity = GiB(400); // feasibility off
        cluster.device.reservedBytes = 0;
    }

    ProfiledModel
    profiled() const
    {
        return buildProfiledModel(model, train, par, cluster);
    }
};

TEST_F(SelectiveTest, TimeOrderingNonSelectiveFull)
{
    const ProfiledModel pm = profiled();
    const PlanResult non = makePlan(pm, PlanMethod::DappleNon);
    const PlanResult sel = makePlan(pm, PlanMethod::DappleSelective);
    const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(non.ok && sel.ok && full.ok);
    EXPECT_LT(non.plan.timing.total, sel.plan.timing.total);
    EXPECT_LT(sel.plan.timing.total, full.plan.timing.total);
}

TEST_F(SelectiveTest, MemoryOrderingFullSelectiveNon)
{
    const ProfiledModel pm = profiled();
    const auto full =
        evaluateBaseline(pm, BaselineSchedule::Dapple,
                         RecomputeBaseline::Full);
    const auto sel =
        evaluateBaseline(pm, BaselineSchedule::Dapple,
                         RecomputeBaseline::Selective);
    const auto non =
        evaluateBaseline(pm, BaselineSchedule::Dapple,
                         RecomputeBaseline::None);
    for (int d = 0; d < par.pipeline; ++d) {
        EXPECT_LT(full.deviceMem[d], sel.deviceMem[d]) << d;
        EXPECT_LT(sel.deviceMem[d], non.deviceMem[d]) << d;
    }
}

TEST_F(SelectiveTest, DropsTheQuadraticTensors)
{
    // At long sequences the s^2 score/softmax tensors dominate:
    // selective recomputation should remove most of the gap between
    // no-recompute and full-recompute memory.
    train.seqLen = 16384;
    const ProfiledModel pm = profiled();
    MemoryModel mm(model, train, par);
    const int last = pm.numLayers() - 1;
    const Bytes non = mm.noRecomputeSavedPerMb(pm.rawLayers, 0, last);
    const Bytes sel =
        mm.selectiveRecomputeSavedPerMb(pm.rawLayers, 0, last);
    const Bytes full =
        mm.fullRecomputeSavedPerMb(pm.rawLayers, 0, last);
    EXPECT_LT(sel, non);
    EXPECT_GT(sel, full);
    // More than half of the non-vs-full gap closed.
    EXPECT_LT(static_cast<double>(sel - full),
              0.5 * static_cast<double>(non - full));
}

TEST_F(SelectiveTest, FlashAttentionSupersedesSelective)
{
    // With flash attention there are no selective units; selective
    // equals no recomputation (Sec. 2.2: flash "supersedes the
    // selective recomputation strategy").
    par.flashAttention = true;
    const ProfiledModel pm = profiled();
    MemoryModel mm(model, train, par);
    const int last = pm.numLayers() - 1;
    EXPECT_EQ(mm.selectiveRecomputeSavedPerMb(pm.rawLayers, 0, last),
              mm.noRecomputeSavedPerMb(pm.rawLayers, 0, last));

    const PlanResult non = makePlan(pm, PlanMethod::DappleNon);
    const PlanResult sel = makePlan(pm, PlanMethod::DappleSelective);
    ASSERT_TRUE(non.ok && sel.ok);
    EXPECT_DOUBLE_EQ(non.plan.timing.total, sel.plan.timing.total);
}

TEST_F(SelectiveTest, AdaptiveMatchesOrBeatsSelective)
{
    // AdaPipe's knapsack includes "recompute exactly the attention
    // internals" in its search space, so it can only do better.
    cluster.device.memCapacity = GiB(60);
    const ProfiledModel pm = profiled();
    const PlanResult sel = makePlan(pm, PlanMethod::DappleSelective);
    const PlanResult ada = makePlan(pm, PlanMethod::EvenPartition);
    if (!sel.ok || !ada.ok)
        GTEST_SKIP() << "configuration infeasible";
    EXPECT_LE(ada.plan.timing.total, sel.plan.timing.total + 1e-9);
}

} // namespace
} // namespace adapipe
