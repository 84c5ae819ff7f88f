/**
 * @file
 * Cross-module integration tests: planner output executed in the
 * simulator, end-to-end method comparisons, and agreement between
 * the cost model's prediction and the simulated iteration time.
 */

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/strategy_search.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "sim/baseline_eval.h"

namespace adapipe {
namespace {

class EndToEndTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_175b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(8);

    void
    SetUp() override
    {
        train.seqLen = 8192;
        train.globalBatch = 64;
        par.tensor = 8;
        par.pipeline = 8;
        par.data = 1;
    }

    ProfiledModel
    profiled() const
    {
        return buildProfiledModel(model, train, par, cluster);
    }
};

TEST_F(EndToEndTest, PlanSimulationMatchesCostModel)
{
    const ProfiledModel pm = profiled();
    for (PlanMethod m :
         {PlanMethod::AdaPipe, PlanMethod::EvenPartition,
          PlanMethod::DappleFull}) {
        const PlanResult r = makePlan(pm, m);
        ASSERT_TRUE(r.ok) << planMethodName(m);
        const EndToEndResult sim = simulatePlan(pm, r.plan);
        // The closed form is exact-or-lower vs the event sim, and
        // tight for the near-balanced plans the planner emits.
        EXPECT_LE(r.plan.timing.total, sim.iterationTime + 1e-9)
            << planMethodName(m);
        EXPECT_NEAR(r.plan.timing.total, sim.iterationTime,
                    0.03 * sim.iterationTime)
            << planMethodName(m);
    }
}

TEST_F(EndToEndTest, AdaPipeBeatsDappleFullEndToEnd)
{
    const ProfiledModel pm = profiled();
    const PlanResult ada = makePlan(pm, PlanMethod::AdaPipe);
    const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(ada.ok && full.ok);
    const Seconds t_ada = simulatePlan(pm, ada.plan).iterationTime;
    const Seconds t_full = simulatePlan(pm, full.plan).iterationTime;
    const double speedup = t_full / t_ada;
    // The paper reports up to 1.32x on cluster A; anything clearly
    // above 1 and below an implausible 2x is the right shape.
    EXPECT_GT(speedup, 1.05);
    EXPECT_LT(speedup, 2.0);
}

TEST_F(EndToEndTest, DappleBaselineMatchesPlannerRoute)
{
    // evaluateBaseline(Dapple, full) and makePlan(DappleFull) are two
    // routes to the same configuration. Both charge P2P once, inside
    // the stage times, and read the same stage costs, so time and
    // memory agree bit for bit.
    const ProfiledModel pm = profiled();
    const PlanResult planned = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(planned.ok);
    const EndToEndResult via_plan = simulatePlan(pm, planned.plan);
    const EndToEndResult via_baseline =
        evaluateBaseline(pm, BaselineSchedule::Dapple, true);
    ASSERT_TRUE(via_baseline.feasible);
    EXPECT_EQ(via_plan.iterationTime, via_baseline.iterationTime);
    EXPECT_EQ(via_plan.deviceMem, via_baseline.deviceMem);
}

TEST_F(EndToEndTest, ChimeraMemoryExceedsDapple)
{
    // Fig. 8: Chimera duplicates parameters, so with full
    // recomputation it needs more memory than DAPPLE-Full.
    const ProfiledModel pm = profiled();
    const auto dapple =
        evaluateBaseline(pm, BaselineSchedule::Dapple, true);
    const auto chimera =
        evaluateBaseline(pm, BaselineSchedule::Chimera, true);
    ASSERT_FALSE(dapple.deviceMem.empty());
    ASSERT_FALSE(chimera.deviceMem.empty());
    Bytes dapple_max = 0;
    Bytes chimera_max = 0;
    for (Bytes b : dapple.deviceMem)
        dapple_max = std::max(dapple_max, b);
    for (Bytes b : chimera.deviceMem)
        chimera_max = std::max(chimera_max, b);
    EXPECT_GT(chimera_max, dapple_max);
}

TEST_F(EndToEndTest, GPipeNeedsMoreActivationMemoryThanDapple)
{
    const ProfiledModel pm = profiled();
    const auto dapple =
        evaluateBaseline(pm, BaselineSchedule::Dapple, true);
    const auto gpipe =
        evaluateBaseline(pm, BaselineSchedule::GPipe, true);
    // GPipe keeps all n micro-batches alive at every stage.
    const int n = pm.train.microBatches(pm.par);
    for (int d = 0; d < pm.par.pipeline; ++d) {
        EXPECT_EQ(gpipe.peakAlive[d], n);
        EXPECT_LE(dapple.peakAlive[d], pm.par.pipeline);
    }
}

TEST_F(EndToEndTest, LongerSequencesIncreaseAdaPipeAdvantage)
{
    // Sec. 7.2: AdaPipe's edge over DAPPLE-Full grows with sequence
    // length because unused memory shrinks.
    double prev_speedup = 1.0;
    for (int seq : {4096, 8192, 16384}) {
        TrainConfig t = train;
        t.seqLen = seq;
        t.globalBatch = 131072 / seq; // constant tokens/iteration
        const ProfiledModel pm =
            buildProfiledModel(model, t, par, cluster);
        const PlanResult ada = makePlan(pm, PlanMethod::AdaPipe);
        const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
        ASSERT_TRUE(ada.ok && full.ok) << "seq " << seq;
        const double speedup = full.plan.timing.total /
                               ada.plan.timing.total;
        EXPECT_GT(speedup, prev_speedup * 0.95) << "seq " << seq;
        prev_speedup = speedup;
    }
}

TEST_F(EndToEndTest, ClusterBHasTighterMemory)
{
    // 32 GB Ascend devices force recomputation where 80 GB A100s do
    // not: DAPPLE-Non OOMs on cluster B at seq 4096 (Sec. 7.2).
    ModelConfig llama = llama2_70b();
    TrainConfig t;
    t.seqLen = 4096;
    t.globalBatch = 256;
    ParallelConfig p;
    p.tensor = 4;
    p.pipeline = 8;
    p.data = 4;
    const ClusterSpec b = clusterB(16); // 128 NPUs

    const ProfiledModel pm = buildProfiledModel(llama, t, p, b);
    const PlanResult non = makePlan(pm, PlanMethod::DappleNon);
    EXPECT_FALSE(non.ok);
    const PlanResult ada = makePlan(pm, PlanMethod::AdaPipe);
    EXPECT_TRUE(ada.ok) << ada.oomReason;
}

} // namespace
} // namespace adapipe
