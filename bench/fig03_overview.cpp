/**
 * @file
 * Figure 3: the walkthrough of AdaPipe's two optimisations (the
 * paper draws it with two stages; we use four so the layer moves
 * are visible at layer granularity).
 *
 * Starting from full recomputation everywhere, Opt. 1 (adaptive
 * recomputation) shortens backward passes within the memory budget;
 * Opt. 2 (adaptive partitioning) moves layers from early to late
 * stages to re-balance the steady phase. The bench prints the per-stage
 * F/B, the warmup/steady/ending decomposition and a timeline per
 * step.
 */

#include <iostream>

#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "sim/baseline_eval.h"
#include "sim/schedule.h"
#include "sim/timeline.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

namespace {

void
showStep(const char *label, const ProfiledModel &pm,
         const PipelinePlan &plan)
{
    std::cout << label << "\n";
    Table t({"Stage", "Layers", "Saved units", "F", "B", "Mem"});
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
        const StagePlan &sp = plan.stages[s];
        t.addRow({std::to_string(s),
                  std::to_string(sp.numLayers()),
                  std::to_string(sp.savedUnits) + "/" +
                      std::to_string(sp.totalUnits),
                  formatSeconds(sp.timeFwd), formatSeconds(sp.timeBwd),
                  formatBytes(sp.memPeak)});
    }
    t.print(std::cout);
    std::cout << "warmup " << formatSeconds(plan.timing.warmup)
              << ", steady/mb " << formatSeconds(plan.timing.steadyPerMb)
              << ", ending " << formatSeconds(plan.timing.ending)
              << ", total " << formatSeconds(plan.timing.total) << "\n";
    const Schedule sched =
        build1F1B(static_cast<int>(plan.stages.size()),
                  plan.microBatches);
    std::cout << renderTimeline(
                     sched, simulate(sched, planStageTimes(plan)), 90)
              << "\n";
}

} // namespace

int
main()
{
    // The figure's walkthrough, scaled to four stages so the layer
    // moves are visible at layer granularity: GPT-3 13B on small
    // devices so that recomputation decisions actually matter.
    const ModelConfig model = gpt3_13b();
    ClusterSpec cluster = clusterA(1);
    cluster.device = genericDevice24gb();
    // Tight enough that early stages must recompute much more than
    // late ones, making the partitioning step visible.
    cluster.device.memCapacity = GiB(12);

    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;

    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 4;
    par.data = 1;

    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);

    std::cout << "Figure 3: " << model.name << " on "
              << par.pipeline << "x "
              << cluster.device.name << " stages, seq " << train.seqLen
              << ", n = " << train.microBatches(par) << "\n\n";

    const PlanResult full = makePlan(pm, PlanMethod::DappleFull);
    const PlanResult even = makePlan(pm, PlanMethod::EvenPartition);
    const PlanResult ada = makePlan(pm, PlanMethod::AdaPipe);
    if (!full.ok || !even.ok || !ada.ok) {
        std::cout << "configuration infeasible: " << full.oomReason
                  << even.oomReason << ada.oomReason << "\n";
        return 1;
    }

    showStep("Original: full recomputation for all stages",
             pm, full.plan);
    showStep("Opt. 1: adaptive recomputation (reduces backward time; "
             "later stages save more)",
             pm, even.plan);
    showStep("Opt. 2: + adaptive partitioning (moves layers toward "
             "later stages, removes the imbalance bubble)",
             pm, ada.plan);

    std::cout << "Speedup: Opt1 "
              << formatDouble(full.plan.timing.total /
                                  even.plan.timing.total,
                              3)
              << "x, Opt1+Opt2 "
              << formatDouble(full.plan.timing.total /
                                  ada.plan.timing.total,
                              3)
              << "x over full recomputation; steady phase "
              << formatSeconds(even.plan.timing.steadyPerMb) << " -> "
              << formatSeconds(ada.plan.timing.steadyPerMb)
              << " per micro-batch\n";
    return 0;
}
