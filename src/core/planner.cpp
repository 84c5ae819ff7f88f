#include "core/planner.h"

#include <sstream>

#include "core/cost_model.h"
#include "core/partition_dp.h"
#include "obs/macros.h"
#include "util/logging.h"
#include "util/units.h"

namespace adapipe {

namespace {

/** Assemble StagePlan entries for the chosen ranges. */
PipelinePlan
assemblePlan(const ProfiledModel &pm, PlanMethod method,
             StageCostCalculator &calc,
             const std::vector<std::pair<int, int>> &ranges, int n,
             std::optional<RecomputeBaseline> baseline)
{
    PipelinePlan plan;
    plan.method = method;
    plan.par = pm.par;
    plan.train = pm.train;
    plan.microBatches = n;

    std::vector<StageTimes> times;
    const int p = static_cast<int>(ranges.size());
    for (int s = 0; s < p; ++s) {
        const auto [i, j] = ranges[s];
        const StageCost c = baseline
                                ? calc.baselineCost(s, i, j, *baseline)
                                : calc.cost(s, i, j);
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
        times.push_back({c.fwd, c.bwd});
    }
    plan.timing = evaluate1F1B(times, n);
    return plan;
}

/** Diagnose the first infeasible stage of a fixed partition. */
std::string
diagnoseOom(StageCostCalculator &calc,
            const std::vector<std::pair<int, int>> &ranges,
            std::optional<RecomputeBaseline> baseline)
{
    const int p = static_cast<int>(ranges.size());
    for (int s = 0; s < p; ++s) {
        const auto [i, j] = ranges[s];
        const StageCost c = baseline
                                ? calc.baselineCost(s, i, j, *baseline)
                                : calc.cost(s, i, j);
        if (!c.feasible) {
            std::ostringstream oss;
            oss << "stage " << s << " (layers " << i << "-" << j
                << ") needs " << formatBytes(c.memPeak)
                << " of " << formatBytes(calc.capacity());
            return oss.str();
        }
    }
    return "no memory-feasible partition";
}

} // namespace

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

    if (method == PlanMethod::AdaPipe) {
        const PartitionDpResult dp =
            solveAdaptivePartition(calc, L, p, n);
        if (!dp.feasible) {
            ADAPIPE_OBS_COUNT("planner.infeasible", 1);
            result.oomReason = "no memory-feasible partition";
            return result;
        }
        result.ok = true;
        result.plan =
            assemblePlan(pm, method, calc, dp.ranges, n, {});
        return result;
    }

    // evenPartition() gives every stage at least one attention
    // block, so it cannot express p > blocks (the adaptive DP can:
    // it emits block-less pass-through stages). Fail the plan
    // gracefully instead of tripping the partitioner's assert.
    const int blocks = (L - 2) / 2;
    if (blocks < p) {
        ADAPIPE_OBS_COUNT("planner.infeasible", 1);
        std::ostringstream oss;
        oss << "even partition cannot split " << blocks
            << " attention blocks across " << p
            << " stages (needs at least one block per stage)";
        result.oomReason = oss.str();
        return result;
    }
    const std::vector<std::pair<int, int>> ranges =
        evenPartition(L, p);
    std::optional<RecomputeBaseline> baseline;
    if (method == PlanMethod::DappleFull)
        baseline = RecomputeBaseline::Full;
    else if (method == PlanMethod::DappleNon)
        baseline = RecomputeBaseline::None;
    else if (method == PlanMethod::DappleSelective)
        baseline = RecomputeBaseline::Selective;

    const PartitionDpResult fixed =
        evaluateFixedPartition(calc, ranges, n, baseline);
    if (!fixed.feasible) {
        ADAPIPE_OBS_COUNT("planner.infeasible", 1);
        result.oomReason = diagnoseOom(calc, ranges, baseline);
        return result;
    }
    result.ok = true;
    result.plan = assemblePlan(pm, method, calc, ranges, n, baseline);
    return result;
}

} // namespace adapipe
