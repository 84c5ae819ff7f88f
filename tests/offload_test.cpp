/**
 * @file
 * End-to-end tests for the host-offload path: the offload counters
 * and the activation-memory saving, the stager charging its
 * transfers to the stage worker's meter (also when the worker dies
 * with transfers queued), the OffloadOptions
 * degenerate-parameter diagnostics, the planner producing tri-choice
 * plans on a tight-memory paper workload, and the plan -> StageSpec
 * offload decode driving the runtime. runtime_differential_test
 * checks that offload, forced fetch misses included, keeps losses
 * bit-identical.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/ops.h"
#include "autograd/trainer.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "core/recompute_dp.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "obs/registry.h"
#include "robust/replan.h"
#include "runtime/host_stager.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

TEST(OffloadCounters, TransfersAreCountedAndMemoryDrops)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    opts.offloadSync = true; // deterministic transfer counts

    const auto plain =
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::None);
    const auto offloaded = withAlternatingOffload(plain);

    TinyLM base_model(cfg);
    obs::Registry base_metrics;
    const RuntimeResult base =
        runPipeline(base_model, plain, opts, &base_metrics);
    ASSERT_TRUE(base.ok) << base.error;
    EXPECT_EQ(base_metrics.gauge("runtime.offload.enabled"), 0.0);
    EXPECT_EQ(base_metrics.counter("offload.evictions"), 0);

    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run =
        runPipeline(model, offloaded, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.losses, base.losses);
    EXPECT_EQ(metrics.gauge("runtime.offload.enabled"), 1.0);

    std::int64_t evictions = 0;
    std::int64_t peak_plain = 0;
    std::int64_t peak_offload = 0;
    std::uint64_t bytes_evicted = 0;
    std::uint64_t bytes_fetched = 0;
    for (std::size_t s = 0; s < run.stages.size(); ++s) {
        const StageMetrics &sm = run.stages[s];
        evictions += sm.offloadEvictions;
        bytes_evicted += sm.offloadBytesEvicted;
        bytes_fetched += sm.offloadBytesFetched;
        EXPECT_EQ(sm.offloadFetchMisses, 0) << "stage " << s;
        peak_plain += base.stages[s].peakActivationFloats;
        peak_offload += sm.peakActivationFloats;

        const std::string prefix =
            "runtime.stage." + std::to_string(s) + ".";
        EXPECT_NEAR(metrics.gauge(prefix + "offload_evictions"),
                    static_cast<double>(sm.offloadEvictions), 0.5)
            << prefix;
        EXPECT_NEAR(metrics.gauge(prefix + "offload_bytes_evicted"),
                    static_cast<double>(sm.offloadBytesEvicted), 0.5)
            << prefix;
    }
    // Every offloaded (block, micro-batch, step) evicts once and is
    // fetched back before its backward.
    const std::int64_t offloaded_blocks = (cfg.blocks + 1) / 2;
    EXPECT_EQ(evictions, offloaded_blocks * opts.microBatches *
                             opts.steps);
    EXPECT_GT(bytes_evicted, 0u);
    EXPECT_EQ(bytes_fetched, bytes_evicted);
    EXPECT_EQ(metrics.counter("offload.evictions"), evictions);
    EXPECT_EQ(
        static_cast<std::uint64_t>(
            metrics.counter("offload.bytes_evicted")),
        bytes_evicted);
    // The point of the exercise: device-resident activation peak
    // drops when interior activations live on the host.
    EXPECT_LT(peak_offload, peak_plain);
}

TEST(OffloadCounters, TransfersChargeTheStagersMeter)
{
    // Every transfer charges the meter the stager was given, not the
    // meter of whichever thread runs it: here the eviction runs on
    // the transfer thread and the backward's fetch inline on this
    // thread, which charges its own meter otherwise.
    autograd_detail::ActivationMeter stage;
    Rng rng(5);
    Variable w(Tensor::randn({8, 8}, rng, 0.3f), true);
    Variable x(Tensor::randn({4, 8}, rng), true);
    CheckpointCollector collector;
    Variable out;
    {
        autograd_detail::AdoptMeter adopt(stage);
        out = checkpointResident(
            [&w](const Variable &in) {
                return ops::gelu(ops::matmul(in, w));
            },
            x, {w});
    }
    std::vector<CheckpointHandle> handles = collector.take();
    ASSERT_EQ(handles.size(), 1u);

    const std::int64_t own = threadLiveActivationFloats();
    const std::int64_t before = stage.live.load();
    HostStager stager(HostStager::Options{}, stage);
    stager.submitEvict(0, std::move(handles));
    stager.drain();
    const std::int64_t evicted = before - stage.live.load();
    EXPECT_GT(evicted, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(evicted) * sizeof(float),
              stager.bytesEvicted());
    stager.advance(0, /*forward=*/false);
    EXPECT_EQ(stage.live.load(), before);
    EXPECT_EQ(stager.bytesFetched(), stager.bytesEvicted());
    EXPECT_EQ(threadLiveActivationFloats(), own);
}

TEST(OffloadCounters, CrashWithTransfersQueuedUnwinds)
{
    // Worker 0 of a 2-stage run (device order F0 F1 B0 F2 B1 ...)
    // throws just after queuing, at F2, the fetch for B1's staged
    // block, so its transfer thread can still be running when the
    // worker thread is gone. The transfers charge the worker object's
    // meter, which outlives the stager, and the run ends with the
    // crash diagnostic.
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    RuntimeFaultSpec faults;
    faults.crash.worker = 0;
    faults.crash.afterOps = 3;
    opts.faults = &faults;
    const auto specs = withAlternatingOffload(
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::None));
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("worker 0"), std::string::npos)
        << run.error;
    EXPECT_NE(run.error.find("injected crash"), std::string::npos)
        << run.error;
}

TEST(OffloadOptionsValidation, DegenerateParametersAreRejected)
{
    OffloadOptions ok;
    EXPECT_TRUE(ok.validate().empty()) << ok.validate();

    OffloadOptions zero_bw;
    zero_bw.bandwidth = 0;
    EXPECT_NE(zero_bw.validate().find("bandwidth must be > 0"),
              std::string::npos)
        << zero_bw.validate();
    OffloadOptions neg_bw;
    neg_bw.bandwidth = -25e9;
    EXPECT_FALSE(neg_bw.validate().empty());

    OffloadOptions wild_frac;
    wild_frac.overlapFraction = 1.5;
    EXPECT_NE(
        wild_frac.validate().find("overlap_fraction must be in"),
        std::string::npos)
        << wild_frac.validate();

    // The cost model itself clamps: a fraction above 1 can never
    // produce a negative penalty, below 0 never a discount.
    OffloadOptions clamped;
    clamped.bandwidth = 2.0;
    clamped.overlapFraction = 1.5;
    EXPECT_DOUBLE_EQ(clamped.evictCost(512), 0.0);
    clamped.overlapFraction = -0.5;
    EXPECT_DOUBLE_EQ(clamped.evictCost(512),
                     clamped.linkTime(512));
    EXPECT_DOUBLE_EQ(clamped.linkTime(512), 512.0);

    OffloadOptions neg_link;
    neg_link.linkBudgetPerMb = -1.0;
    EXPECT_NE(neg_link.validate().find("link budget"),
              std::string::npos)
        << neg_link.validate();
}

TEST(OffloadPlan, TightBudgetTriChoiceOffloadsOnGpt3)
{
    // The acceptance workload: GPT-3 175B on a tight memory budget.
    // The recompute-only knapsack must recompute aggressively; the
    // tri-choice solver instead moves units onto the host link and
    // ends with less exposed time, never more.
    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;
    const ProfiledModel pm =
        buildProfiledModel(gpt3_175b(), train, par, clusterA(8));

    StageCostOptions recompute_only;
    recompute_only.memBudgetFraction = 0.4;
    const PlanResult base =
        makePlan(pm, PlanMethod::AdaPipe, recompute_only);
    ASSERT_TRUE(base.ok) << base.oomReason;
    EXPECT_FALSE(base.plan.offload);

    StageCostOptions tri = recompute_only;
    tri.offload.enabled = true;
    const PlanResult off = makePlan(pm, PlanMethod::AdaPipe, tri);
    ASSERT_TRUE(off.ok) << off.oomReason;
    EXPECT_TRUE(off.plan.offload);

    int offloaded_units = 0;
    int previously_recomputed = 0;
    Bytes offload_bytes = 0;
    ASSERT_EQ(off.plan.stages.size(), base.plan.stages.size());
    for (std::size_t s = 0; s < off.plan.stages.size(); ++s) {
        const StagePlan &sp = off.plan.stages[s];
        offload_bytes += sp.offloadBytes;
        if (sp.offloadMask.empty())
            continue;
        ASSERT_EQ(sp.offloadMask.size(), sp.savedMask.size());
        for (std::size_t u = 0; u < sp.offloadMask.size(); ++u) {
            if (!sp.offloadMask[u])
                continue;
            ++offloaded_units;
            EXPECT_FALSE(sp.savedMask[u])
                << "stage " << s << " unit " << u
                << " both saved and offloaded";
            // Same partition => comparable unit index: the unit the
            // tri-choice solver offloads was recomputed (or saved)
            // by the recompute-only plan, never nonexistent.
            if (sp.firstLayer == base.plan.stages[s].firstLayer &&
                u < base.plan.stages[s].savedMask.size() &&
                !base.plan.stages[s].savedMask[u])
                ++previously_recomputed;
        }
    }
    EXPECT_GE(offloaded_units, 1)
        << "tight budget produced no offloaded unit";
    EXPECT_GT(offload_bytes, 0u);
    EXPECT_GE(previously_recomputed, 1)
        << "offload only absorbed units the baseline kept on device";
    EXPECT_LE(off.plan.timing.total,
              base.plan.timing.total * (1.0 + 1e-9));

    // The wire round-trip preserves every offload annotation.
    const std::string text = planToJsonString(off.plan, 2);
    const ParseResult<PipelinePlan> back =
        tryPlanFromJsonString(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(planToJsonString(back.value(), 2), text);

    // The schedule sweep considers offload alongside v and never
    // returns something worse than the plain tri-choice 1F1B plan.
    const PlanResult best =
        makeBestSchedulePlan(pm, PlanMethod::AdaPipe, tri);
    ASSERT_TRUE(best.ok) << best.oomReason;
    EXPECT_LE(best.plan.timing.total,
              off.plan.timing.total * (1.0 + 1e-9));
}

TEST(OffloadPlanMapping, MaskDecodesAndRuntimeExecutesIt)
{
    // Plan -> StageSpec decode: an offloaded unit turns its whole
    // block into a host-offloaded block (with a rounding note when
    // the plan offloaded only part of the block), and the mapped
    // specs still train bit-identically.
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
    PlanResult planned = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(planned.ok) << planned.oomReason;
    PipelinePlan plan = planned.plan;

    // Mark stage 0, unit 1 (block 0's first Attention unit) as
    // offloaded instead of saved.
    ASSERT_GE(plan.stages[0].savedMask.size(), 2u);
    plan.offload = true;
    plan.stages[0].savedMask[1] = false;
    plan.stages[0].offloadMask.assign(
        plan.stages[0].savedMask.size(), false);
    plan.stages[0].offloadMask[1] = true;

    const StageMapping mapping = stageSpecsFromPlan(plan, cfg);
    ASSERT_FALSE(mapping.stages.empty());
    ASSERT_FALSE(mapping.stages[0].offload.empty());
    EXPECT_TRUE(mapping.stages[0].offload[0])
        << "block 0 should decode as offloaded";
    EXPECT_EQ(mapping.stages[0].recompute[0], BlockRecompute::None);
    bool partial_note = false;
    for (const std::string &note : mapping.notes)
        partial_note |=
            note.find("whole-block host offload") !=
            std::string::npos;
    EXPECT_TRUE(partial_note) << "partial offload note missing";

    RuntimeOptions opts = smallOpts(2);
    opts.offloadSync = true;
    const std::vector<double> ref =
        referenceLosses(cfg, opts, mapping.stages);
    TinyLM model(cfg);
    obs::Registry metrics;
    const RuntimeResult run =
        runPipeline(model, mapping.stages, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.losses, ref);
    EXPECT_GT(metrics.counter("offload.evictions"), 0);
}

TEST(OffloadReplan, DegradedHostLinkShiftsUnitsBackToRecompute)
{
    // A degraded PCIe link makes offload expensive: replanning under
    // hostLinkFactor must offload no more than the healthy plan, and
    // a severe degradation on a tight budget should shift at least
    // one unit back to recomputation.
    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;
    const ProfiledModel pm =
        buildProfiledModel(gpt3_175b(), train, par, clusterA(8));
    StageCostOptions opts;
    opts.memBudgetFraction = 0.4;
    opts.offload.enabled = true;

    auto offloaded_units = [](const PipelinePlan &plan) {
        int n = 0;
        for (const StagePlan &sp : plan.stages)
            for (const bool off : sp.offloadMask)
                n += off ? 1 : 0;
        return n;
    };

    DegradedScenario healthy;
    const ReplanResult base = replanDegraded(pm, healthy, opts);
    ASSERT_TRUE(base.ok) << base.reason;
    const int healthy_offloaded = offloaded_units(base.plan);
    ASSERT_GE(healthy_offloaded, 1)
        << "healthy tight-budget plan offloads nothing";

    DegradedScenario slow_link;
    slow_link.hostLinkFactor = 0.01; // two orders of magnitude
    const ReplanResult degraded =
        replanDegraded(pm, slow_link, opts);
    ASSERT_TRUE(degraded.ok) << degraded.reason;
    EXPECT_LT(offloaded_units(degraded.plan), healthy_offloaded);

    DegradedScenario bad;
    bad.hostLinkFactor = 0.0;
    EXPECT_FALSE(replanDegraded(pm, bad, opts).ok);
    bad.hostLinkFactor = 1.5;
    const ReplanResult over = replanDegraded(pm, bad, opts);
    EXPECT_FALSE(over.ok);
    EXPECT_NE(over.reason.find("host link factor"),
              std::string::npos)
        << over.reason;
}

} // namespace
} // namespace adapipe
