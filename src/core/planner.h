/**
 * @file
 * Planner facade: produce a complete PipelinePlan for one method
 * (AdaPipe, Even Partitioning, DAPPLE-Full, DAPPLE-Non,
 * DAPPLE-Selective) on one profiled model, and the stage assembler
 * the plain and the interleaved planner share.
 */

#ifndef ADAPIPE_CORE_PLANNER_H
#define ADAPIPE_CORE_PLANNER_H

#include <utility>
#include <vector>

#include "core/plan.h"
#include "core/profiled_model.h"
#include "core/stage_cost.h"

namespace adapipe {

/**
 * Build the plan of @p method for @p pm.
 *
 * AdaPipe runs both DP levels; Even Partitioning runs only the
 * recomputation DP on the baseline layer split; the DAPPLE baselines
 * use the same split with their uniformPolicy(). All of them go
 * through the identical Sec. 5.1 cost model so their iteration times
 * are comparable.
 *
 * @param pm profiled model (carries t, p, d and the workload)
 * @param method planning method
 * @param opts stage-cost options (memory budget fraction, knobs)
 * @return a feasible plan or an OOM diagnosis
 */
PlanResult makePlan(const ProfiledModel &pm, PlanMethod method,
                    StageCostOptions opts = {});

/**
 * A fixed partition costed stage by stage, up to the first stage
 * that does not fit.
 */
struct StageAssembly
{
    /**
     * Method, configuration, micro-batches and one StagePlan per
     * stage that fits, in order; the timing is the caller's (closed
     * form or simulator).
     */
    PipelinePlan plan;
    /** Index of the first infeasible stage; -1 when all fit. */
    int failedStage = -1;
    /** That stage's cost (its memPeak is what it would need). */
    StageCost failedCost;
};

/**
 * Cost each range of @p ranges as stage 0, 1, ... on @p calc: with
 * the knapsack (StageCostCalculator::cost()) or, for a baseline
 * method, under its uniformPolicy() (baselineCost()). Each range is
 * costed once; the walk stops at the first infeasible stage.
 *
 * @param pm profiled model @p calc was built for
 * @param method planning method, which picks the costing
 * @param calc stage cost oracle
 * @param ranges inclusive layer range per stage, stage 0 first
 */
StageAssembly
assembleStages(const ProfiledModel &pm, PlanMethod method,
               StageCostCalculator &calc,
               const std::vector<std::pair<int, int>> &ranges);

} // namespace adapipe

#endif // ADAPIPE_CORE_PLANNER_H
