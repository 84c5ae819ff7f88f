/**
 * @file
 * Edge-case regressions for planning and plan->runtime mapping:
 * more pipeline stages than attention blocks (p = num_blocks + 1).
 *
 * The adaptive DP can express that shape — some stages own no
 * blocks and execute as pass-throughs — while the even baseline
 * partition cannot, and used to abort the process from an assert
 * deep inside evenPartition() instead of returning a PlanResult
 * failure. The baseline evaluators take the same split and must
 * return the same diagnosis.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "autograd/trainer.h"
#include "core/planner.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/baseline_eval.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

/** Two attention blocks, so p = 3 is one stage more than blocks. */
TinyLmConfig
twoBlockConfig()
{
    TinyLmConfig cfg = smallConfig();
    cfg.blocks = 2;
    return cfg;
}

PlanResult
planTinyLm(const TinyLmConfig &cfg, int p, int n, PlanMethod method)
{
    return makePlan(profileTinyLm(cfg, p, n), method, {});
}

TEST(RuntimeEdge, EvenPartitionRejectsMoreStagesThanBlocks)
{
    const TinyLmConfig cfg = twoBlockConfig();
    const int p = cfg.blocks + 1;
    for (const PlanMethod method :
         {PlanMethod::EvenPartition, PlanMethod::DappleFull,
          PlanMethod::DappleNon, PlanMethod::DappleSelective}) {
        const PlanResult result = planTinyLm(cfg, p, 4, method);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.oomReason.find("even partition"),
                  std::string::npos)
            << result.oomReason;
    }

    // The baseline evaluators take the same even split and report
    // the same diagnosis as an infeasible result.
    const ProfiledModel pm = profileTinyLm(cfg, p, 4);
    std::vector<EndToEndResult> evaluated;
    for (const BaselineSchedule sched :
         {BaselineSchedule::Dapple, BaselineSchedule::GPipe,
          BaselineSchedule::Chimera, BaselineSchedule::ChimeraD})
        evaluated.push_back(
            evaluateBaseline(pm, sched, RecomputeBaseline::Full));
    evaluated.push_back(evaluateBPipe(pm, RecomputeBaseline::Full));
    evaluated.push_back(
        evaluateInterleaved(pm, 1, RecomputeBaseline::Full));
    for (const EndToEndResult &result : evaluated) {
        EXPECT_FALSE(result.feasible);
        EXPECT_NE(result.oomReason.find("even partition"),
                  std::string::npos)
            << result.oomReason;
    }
}

TEST(RuntimeEdge, AdaPipeBlocklessStageMapsAndNotes)
{
    const TinyLmConfig cfg = twoBlockConfig();
    const int p = cfg.blocks + 1;
    const PlanResult result =
        planTinyLm(cfg, p, 4, PlanMethod::AdaPipe);
    ASSERT_TRUE(result.ok) << result.oomReason;
    ASSERT_EQ(result.plan.stages.size(),
              static_cast<std::size_t>(p));

    const StageMapping mapping =
        stageSpecsFromPlan(result.plan, cfg);
    ASSERT_EQ(mapping.stages.size(), static_cast<std::size_t>(p));

    // Every block is covered exactly once, and at least one stage
    // is block-less (p > blocks forces it).
    int covered = 0;
    int blockless = 0;
    for (const StageSpec &spec : mapping.stages) {
        if (spec.numBlocks() == 0) {
            ++blockless;
            continue;
        }
        EXPECT_EQ(spec.firstBlock, covered);
        covered = spec.lastBlock + 1;
    }
    EXPECT_EQ(covered, cfg.blocks);
    EXPECT_GE(blockless, 1);

    // The mapping explains the idle stage instead of leaving a
    // silent firstBlock > lastBlock pair.
    bool noted = false;
    for (const std::string &note : mapping.notes)
        if (note.find("pass-through") != std::string::npos)
            noted = true;
    EXPECT_TRUE(noted);
}

TEST(RuntimeEdge, BlocklessStageRunsBitIdenticalToReference)
{
    const TinyLmConfig cfg = twoBlockConfig();
    const PlanResult result =
        planTinyLm(cfg, cfg.blocks + 1, 4, PlanMethod::AdaPipe);
    ASSERT_TRUE(result.ok) << result.oomReason;
    const StageMapping mapping =
        stageSpecsFromPlan(result.plan, cfg);

    const RuntimeOptions opts = smallOpts(2);
    TinyLM model(cfg);
    const RuntimeResult run =
        runPipeline(model, mapping.stages, opts);
    EXPECT_EQ(run.losses, referenceLosses(cfg, opts, mapping.stages));
}

} // namespace
} // namespace adapipe
