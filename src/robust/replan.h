/**
 * @file
 * Degraded-mode replanning and robustness reporting.
 *
 * When the cluster degrades mid-training — a device straggles, loses
 * part of its memory, or a node drops out — the original AdaPipe
 * plan stops being optimal (or feasible). The replanner re-runs both
 * DP levels against the degraded cluster: the recomputation knapsack
 * under the reduced memory budget and the partition DP over the
 * surviving stages, with the straggler's slowdown folded into its
 * stage costs so the DP shifts layers away from the slow device.
 *
 * The sensitivity report quantifies the payoff: for a sweep of
 * straggler severities it simulates the original plan and the
 * replanned plan under the *same* seeded fault scenario and tabulates
 * the iteration-time degradation of each.
 */

#ifndef ADAPIPE_ROBUST_REPLAN_H
#define ADAPIPE_ROBUST_REPLAN_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/plan.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "robust/fault_spec.h"
#include "util/json.h"

namespace adapipe {

/**
 * A degraded cluster: what changed relative to the profiled healthy
 * cluster.
 */
struct DegradedScenario
{
    /** Stage whose device straggles, or -1 for none. */
    int stragglerStage = -1;
    /** Execution-time multiplier of the straggler (>= 1). */
    double stragglerFactor = 1.0;
    /** Usable-memory multiplier applied to every device (<= 1). */
    double memFactor = 1.0;
    /** Pipeline stages lost to node failure (shrinks the pipeline). */
    int lostStages = 0;
    /**
     * Host-link (PCIe) bandwidth multiplier in (0, 1]: a degraded
     * offload path. Replanning scales OffloadOptions::bandwidth by
     * this factor, so the tri-choice knapsack shifts units from
     * host offload back to recomputation when the link slows down.
     * Ignored when the baseline options do not enable offload.
     */
    double hostLinkFactor = 1.0;
};

/**
 * Outcome of degraded-mode replanning.
 */
struct ReplanResult
{
    bool ok = false;
    /** Why replanning failed (invalid scenario or OOM). */
    std::string reason;
    /**
     * The degraded plan. Its stage times are *wall-clock under the
     * fault*: the straggler stage's F/B include the slowdown factor.
     */
    PipelinePlan plan;
    /**
     * Per-stage times with the slowdown divided back out — what a
     * healthy device would take, i.e. the durations to feed a
     * simulator that applies the fault itself.
     */
    std::vector<StageTimes> healthyTimes;
    /** Effective per-device capacity the plan was solved against. */
    Bytes degradedCapacity = 0;
};

/**
 * Re-plan @p pm for @p scenario with the AdaPipe method.
 *
 * @param pm healthy profiled model
 * @param scenario the degradation
 * @param opts baseline stage-cost options; the scenario's slowdown
 *        and capacity reduction are layered on top
 */
ReplanResult replanDegraded(const ProfiledModel &pm,
                            const DegradedScenario &scenario,
                            StageCostOptions opts = {});

/**
 * Incremental variant for services holding a cached healthy plan.
 *
 * A neutral scenario (no straggler slowdown, full memory, no lost
 * stages) short-circuits: @p base is returned as-is without re-running
 * either DP, with healthyTimes read off the base plan. Any real
 * degradation delegates to replanDegraded(), so the result is
 * identical to a direct call — the speedup for repeated fault reports
 * comes from the shared knapsack memo in @p opts, not from a weaker
 * solve. The short-circuit requires @p base to be a plain (v = 1)
 * AdaPipe plan for @p pm; anything else also delegates.
 */
ReplanResult replanDegradedIncremental(const ProfiledModel &pm,
                                       const DegradedScenario &scenario,
                                       const PipelinePlan &base,
                                       StageCostOptions opts = {});

/**
 * Simulate one 1F1B iteration of a plan under @p faults.
 *
 * @param healthy_times per-stage durations on healthy devices (the
 *        simulator applies the fault's slowdowns itself)
 * @param micro_batches micro-batches per pipeline
 * @param faults seeded fault scenario
 * @return simulated iteration time
 */
Seconds simulateUnderFault(const std::vector<StageTimes> &healthy_times,
                           int micro_batches, const FaultSpec &faults);

/** One severity step of the sensitivity sweep. */
struct SensitivityRow
{
    /** Straggler slowdown factor of this step. */
    double severity = 1.0;
    /** Original plan's simulated iteration time under the fault. */
    Seconds originalTime = 0;
    /** Replanned plan's simulated iteration time under the fault. */
    Seconds replannedTime = 0;
    /** False when replanning failed (row keeps the original time). */
    bool replanOk = false;
    /** originalTime / replannedTime (1 when replanning failed). */
    double speedup = 1.0;
};

/**
 * Robustness report: iteration-time degradation vs. straggler
 * severity, original vs. replanned.
 */
struct RobustnessReport
{
    /** Model the plans were built for. */
    std::string model;
    /** Device/stage hit by the straggler. */
    int stragglerStage = 0;
    /** Seed of the injected fault scenarios. */
    std::uint64_t seed = 0;
    /** Fault-free iteration time of the original plan. */
    Seconds healthyTime = 0;
    /** One row per severity, ascending. */
    std::vector<SensitivityRow> rows;
};

/**
 * Build the sensitivity report for @p original on @p pm.
 *
 * @param pm healthy profiled model the plan was built from
 * @param original the healthy AdaPipe plan
 * @param straggler_stage stage whose device straggles
 * @param severities slowdown factors to sweep (each >= 1)
 * @param seed fault-scenario seed (stalls/jitter determinism)
 * @param opts stage-cost options used for replanning
 */
RobustnessReport
buildSensitivityReport(const ProfiledModel &pm,
                       const PipelinePlan &original,
                       int straggler_stage,
                       const std::vector<double> &severities,
                       std::uint64_t seed,
                       StageCostOptions opts = {});

/** Serialize a report to JSON. */
JsonValue reportToJson(const RobustnessReport &report);

/** Print a human-readable sensitivity table. */
void printReport(const RobustnessReport &report, std::ostream &os);

} // namespace adapipe

#endif // ADAPIPE_ROBUST_REPLAN_H
