/**
 * @file
 * Replan-and-resume recovery around the pipeline runtime.
 *
 * runPipelineWithRecovery() runs a normal pipeline training job and,
 * when a fault is detected (a worker dies or the watchdog reports a
 * silent one), treats the failed worker's device as lost: it replans
 * the job onto one fewer pipeline stage with replanDegraded(),
 * rebuilds the stage specs, restores the latest training-state
 * snapshot and resumes from the snapshot's step until the requested
 * number of iterations completes.
 *
 * Because the runtime computes bit-identical losses for any stage
 * partition and the data stream is keyed by the global step, a
 * recovered run's stitched loss curve is bit-identical to an
 * uninterrupted run — degradation costs wall-clock (detection +
 * replan + restore + lost iterations), never training fidelity.
 *
 * Snapshot handling is deliberately asymmetric: a *missing* snapshot
 * file falls back to a fresh restart from step 0 (nothing was ever
 * written — e.g. the fault hit before the first cadence boundary),
 * but a *corrupt* snapshot is a hard error. Silently training on
 * garbage state would be worse than stopping.
 */

#ifndef ADAPIPE_RUNTIME_RECOVERY_H
#define ADAPIPE_RUNTIME_RECOVERY_H

#include <string>
#include <vector>

#include "core/profiled_model.h"
#include "core/stage_cost.h"
#include "runtime/pipeline_runtime.h"

namespace adapipe {

/** Recovery policy on top of RuntimeOptions' fault/watchdog/snapshot
 *  configuration. */
struct RecoveryOptions
{
    /** Maximum replan-and-resume rounds before giving up. */
    int maxRecoveries = 1;
    /**
     * Healthy profiled model to replan against (required for a
     * recovery round). Its par.pipeline is overridden with the
     * current surviving stage count on every recovery round.
     */
    const ProfiledModel *pm = nullptr;
    /** Stage-cost options the replan layers the degradation onto. */
    StageCostOptions costOpts;
    /**
     * When non-empty, each recovery round writes its degraded plan
     * (with scenario + original-plan fingerprint provenance) to this
     * path via robust/replan_io.
     */
    std::string degradedPlanOut;
    /** Healthy plan the job started from; fingerprinted into the
     *  degraded-plan document (may be null). */
    const PipelinePlan *originalPlan = nullptr;
};

/** One detected fault and what recovery did about it. */
struct RecoveryAttempt
{
    /** Worker the failure was attributed to. */
    int failedWorker = -1;
    /** How the fault was detected. */
    RuntimeFailureKind kind = RuntimeFailureKind::None;
    /** The failed run's diagnostic. */
    std::string error;
    /** Watchdog detection latency of this fault (0 for a clean
     *  worker error). */
    double detectSeconds = 0;
    /** Whether the latest snapshot was restored (false = fresh
     *  restart because no snapshot existed yet). */
    bool restoredFromSnapshot = false;
    /** Global step training resumed from. */
    int resumedFromStep = 0;
    /** Completed iterations discarded (progress past the snapshot
     *  the failed run had already made). */
    int lostIterations = 0;
    /** Pipeline stages after the replan. */
    int newStages = 0;
    /** Virtual stages after the replan. */
    int newVirtualStages = 1;
    /** Time spent in replanDegraded + stage mapping. */
    double replanSeconds = 0;
    /** Time spent loading + restoring the snapshot. */
    double restoreSeconds = 0;
};

/** Outcome of a recovery-supervised training job. */
struct RecoveryResult
{
    bool ok = false;
    /** Terminal diagnostic when !ok. */
    std::string error;
    /**
     * Stitched per-step losses over the whole job (one entry per
     * requested step): each run's losses at its global-step offset,
     * later runs overwriting the failed run's tail. Bit-identical to
     * an uninterrupted run when every resume restored a snapshot.
     */
    std::vector<double> losses;
    /** The final (successful or last-failed) runPipeline result. */
    RuntimeResult finalRun;
    /** Stage specs the job finished on. */
    std::vector<StageSpec> finalSpecs;
    /** Pipeline stages the job finished on. */
    int finalStages = 0;
    /** Virtual stages the job finished on. */
    int finalVirtualStages = 1;
    /** One entry per detected fault, in order. */
    std::vector<RecoveryAttempt> attempts;
    /** End-to-end wall time including all recovery rounds. */
    double wallSeconds = 0;
};

/**
 * Run pipeline training with fault detection and replan-and-resume
 * recovery.
 *
 * Fault injection, the watchdog and the snapshot cadence come from
 * @p opts (RuntimeOptions::faults / watchdog / snapshot); @p rec
 * adds the recovery policy. The injected one-shot crash is cleared
 * on resume (it fired); environmental faults (slowdowns, stalls,
 * send delays) keep applying to resumed runs.
 *
 * @param model the model; updated in place across all rounds
 * @param stages initial stage specs (chain order)
 * @param opts runtime options of the initial run; opts.steps counts
 *        from opts.firstStep and is the job's total step budget
 * @param rec recovery policy
 * @param metrics optional registry; per-run metrics merge and
 *        recovery.* counters/gauges are added on top
 */
RecoveryResult
runPipelineWithRecovery(TinyLM &model,
                        const std::vector<StageSpec> &stages,
                        const RuntimeOptions &opts,
                        const RecoveryOptions &rec,
                        obs::Registry *metrics = nullptr);

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_RECOVERY_H
