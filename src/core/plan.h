/**
 * @file
 * Plan data structures produced by the AdaPipe search engine.
 */

#ifndef ADAPIPE_CORE_PLAN_H
#define ADAPIPE_CORE_PLAN_H

#include <optional>
#include <string>
#include <vector>

#include "model/parallel.h"
#include "util/units.h"

namespace adapipe {

/** Planning method: AdaPipe, its ablation, or a baseline. */
enum class PlanMethod {
    AdaPipe,         ///< adaptive recomputation + adaptive partitioning
    EvenPartition,   ///< adaptive recomputation, baseline partitioning
    DappleFull,      ///< 1F1B with full recomputation
    DappleNon,       ///< 1F1B with no recomputation
    DappleSelective, ///< 1F1B with selective recomputation (Sec. 2.2)
};

/** @return the display name used in the paper's figures. */
const char *planMethodName(PlanMethod method);

/**
 * Uniform per-stage recomputation policy of the baselines.
 *
 * Selective recomputation (Korthikanti et al., Sec. 2.2) recomputes
 * only the attention score / softmax / context operators whose
 * O(s^2) activations dominate memory; it only exists on the unfused
 * attention path — flash attention removes those tensors and
 * supersedes it.
 */
enum class RecomputeBaseline {
    Full,
    None,
    Selective,
};

/**
 * @return the uniform policy a baseline method applies to every
 *         stage, or none for the methods that run the knapsack
 *         (AdaPipe, Even Partitioning)
 */
std::optional<RecomputeBaseline> uniformPolicy(PlanMethod method);

/** Forward/backward time of one stage for one micro-batch. */
struct StageTimes
{
    Seconds fwd = 0;
    Seconds bwd = 0;
};

/**
 * Closed-form 1F1B iteration timing (Sec. 5.1): warmup W, ending E,
 * steady per-micro-batch bottleneck M and total T = W + E + (n-p)M.
 */
struct PipelineTiming
{
    Seconds warmup = 0;
    Seconds ending = 0;
    Seconds steadyPerMb = 0;
    Seconds total = 0;
};

/**
 * One stage of a finished plan.
 */
struct StagePlan
{
    /** First layer index (inclusive) of the stage's sub-sequence. */
    int firstLayer = 0;
    /** Last layer index (inclusive). */
    int lastLayer = 0;
    /** Forward time of one micro-batch, F_s. */
    Seconds timeFwd = 0;
    /** Backward (incl. recomputation) time of one micro-batch, B_s. */
    Seconds timeBwd = 0;
    /** Predicted peak memory of the stage's ranks. */
    Bytes memPeak = 0;
    /** Number of saved computation units (Table 4's metric). */
    int savedUnits = 0;
    /** Total computation units in the stage. */
    int totalUnits = 0;
    /**
     * Saved/recomputed decision per unit, flattened over the stage's
     * layers in execution order (always-saved units are true).
     */
    std::vector<bool> savedMask;
    /**
     * Overlapped-recomputation annotation (PipelinePlan::overlap):
     * idle seconds per micro-batch the planner budgeted for hiding
     * this stage's checkpoint replay inside recv/send waits. 0 on
     * lazy plans.
     */
    Seconds overlapBubble = 0;
    /** Replay seconds per micro-batch expected to hide in the bubble. */
    Seconds timeReplayHidden = 0;
    /**
     * Replay seconds per micro-batch left on the backward critical
     * path; timeBwd includes exactly this much recomputation.
     */
    Seconds timeReplayCritical = 0;
    /**
     * Host-offload decision per unit, same flattening as
     * @ref savedMask and disjoint from it: an offloaded unit is
     * staged to host after forward and fetched back before backward
     * (neither kept on device nor recomputed). Empty when the plan
     * was produced without offload.
     */
    std::vector<bool> offloadMask;
    /** Bytes per micro-batch staged to host by this stage. */
    Bytes offloadBytes = 0;
    /**
     * Non-overlapped offload transfer micro-seconds per micro-batch
     * on the backward critical path; timeBwd includes exactly this
     * much (on top of timeReplayCritical). Micro-seconds, not
     * seconds, to keep the JSON field human-readable.
     */
    double offloadFetchUs = 0;

    /** @return number of layers assigned to this stage. */
    int numLayers() const { return lastLayer - firstLayer + 1; }
};

/**
 * Complete plan for one (model, cluster, strategy) combination.
 */
struct PipelinePlan
{
    PlanMethod method = PlanMethod::AdaPipe;
    ParallelConfig par;
    TrainConfig train;
    /** Number of micro-batches n per pipeline per iteration. */
    int microBatches = 0;
    /**
     * Virtual model chunks per device (Megatron's interleaved 1F1B,
     * Sec. 2.1). 1 = plain 1F1B. When > 1, @ref stages holds
     * par.pipeline * virtualStages entries in chain order: chunk g
     * runs on device g % par.pipeline.
     */
    int virtualStages = 1;
    /** Per-stage sub-plans, stage 0 first (chunk order when
     *  virtualStages > 1). */
    std::vector<StagePlan> stages;
    /**
     * Predicted timing. For virtualStages = 1 this is the closed-form
     * Sec. 5.1 decomposition; for virtualStages > 1 warmup/ending are
     * folded into total, which comes from the event-driven simulator
     * (the interleaved schedule has no closed form here).
     */
    PipelineTiming timing;
    /**
     * True when the plan was produced with the overlapped-replay
     * discount: the runtime should enable eager replay inside
     * recv/send waits, and each stage's timeBwd already excludes the
     * replay share budgeted to hide (StagePlan::timeReplayHidden).
     */
    bool overlap = false;
    /**
     * True when the plan was produced with the tri-choice
     * keep/recompute/offload solver: the runtime should start the
     * host-staging tier and honour each stage's
     * StagePlan::offloadMask.
     */
    bool offload = false;
};

/**
 * Outcome of planning: either a plan or an out-of-memory diagnosis,
 * mirroring the OOM columns of the paper's figures.
 */
struct PlanResult
{
    bool ok = false;
    /** Human-readable reason when !ok (e.g. which stage OOMs). */
    std::string oomReason;
    PipelinePlan plan;

    /** @return a feasible plan or panics (for callers that checked). */
    const PipelinePlan &value() const;
};

/** @return per-stage F/B times of @p plan, stage 0 first. */
std::vector<StageTimes> planStageTimes(const PipelinePlan &plan);

} // namespace adapipe

#endif // ADAPIPE_CORE_PLAN_H
