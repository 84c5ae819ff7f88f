#include "core/planner.h"

#include <sstream>

#include "core/cost_model.h"
#include "core/partition_dp.h"
#include "obs/macros.h"
#include "util/logging.h"
#include "util/units.h"

namespace adapipe {

StageAssembly
assembleStages(const ProfiledModel &pm, PlanMethod method,
               StageCostCalculator &calc,
               const std::vector<std::pair<int, int>> &ranges)
{
    StageAssembly out;
    PipelinePlan &plan = out.plan;
    plan.method = method;
    plan.par = pm.par;
    plan.train = pm.train;
    plan.microBatches = pm.train.microBatches(pm.par);

    const std::optional<RecomputeBaseline> policy = uniformPolicy(method);
    const int p = static_cast<int>(ranges.size());
    for (int s = 0; s < p; ++s) {
        const auto [i, j] = ranges[s];
        const StageCost c = policy
                                ? calc.baselineCost(s, i, j, *policy)
                                : calc.cost(s, i, j);
        if (!c.feasible) {
            out.failedStage = s;
            out.failedCost = c;
            return out;
        }
        StagePlan sp;
        sp.firstLayer = i;
        sp.lastLayer = j;
        sp.timeFwd = c.fwd;
        sp.timeBwd = c.bwd;
        sp.memPeak = c.memPeak;
        sp.savedUnits = c.recompute.savedUnits;
        sp.totalUnits = c.totalUnits;
        sp.savedMask = c.recompute.saved;
        sp.overlapBubble = calc.overlapBubble(s);
        sp.timeReplayHidden = c.replayHidden;
        sp.timeReplayCritical = c.replayCritical;
        sp.offloadMask = c.recompute.offloaded;
        sp.offloadBytes = c.offloadBytes;
        sp.offloadFetchUs = c.offloadExposed * 1e6;
        if (c.offloadedUnits > 0)
            plan.offload = true;
        plan.stages.push_back(std::move(sp));
    }
    return out;
}

PlanResult
makePlan(const ProfiledModel &pm, PlanMethod method,
         StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "planner.make_plan");
    ADAPIPE_OBS_COUNT("planner.plans", 1);
    const int p = pm.par.pipeline;
    const int L = pm.numLayers();
    ADAPIPE_ASSERT(p >= 1 && p <= L, "pipeline size ", p,
                   " out of range for ", L, " layers");
    const int n = pm.train.microBatches(pm.par);

    StageCostCalculator calc(pm, p, n, opts);
    PlanResult result;
    const auto fail = [&](std::string reason) {
        ADAPIPE_OBS_COUNT("planner.infeasible", 1);
        result.oomReason = std::move(reason);
        return result;
    };

    // AdaPipe searches the partition; the other methods take the
    // even split, which cannot express p > blocks (the adaptive DP
    // can: it emits block-less pass-through stages).
    std::vector<std::pair<int, int>> ranges;
    if (method == PlanMethod::AdaPipe) {
        PartitionDpResult dp = solveAdaptivePartition(calc, L, p, n);
        if (!dp.feasible)
            return fail("no memory-feasible partition");
        ranges = std::move(dp.ranges);
    } else {
        auto even = evenPartition(L, p);
        if (!even.ok())
            return fail(even.error());
        ranges = std::move(even).value();
    }

    StageAssembly assembled = assembleStages(pm, method, calc, ranges);
    if (assembled.failedStage >= 0) {
        const auto [i, j] = ranges[assembled.failedStage];
        std::ostringstream oss;
        oss << "stage " << assembled.failedStage << " (layers " << i
            << "-" << j << ") needs "
            << formatBytes(assembled.failedCost.memPeak) << " of "
            << formatBytes(calc.capacity());
        return fail(oss.str());
    }
    result.ok = true;
    result.plan = std::move(assembled.plan);
    result.plan.timing = evaluate1F1B(planStageTimes(result.plan), n);
    return result;
}

} // namespace adapipe
