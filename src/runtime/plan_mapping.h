/**
 * @file
 * Bridge from planner output (core/plan.h) to runtime stage specs.
 *
 * The planner partitions the layer sequence
 * [Embedding, (Attention, FeedForward) x B, DecodingHead] and decides
 * saved/recomputed per computation unit. The tiny-LM runtime executes
 * whole transformer blocks with a per-block recompute mode, so this
 * mapping (a) assigns each block to the stage owning its Attention
 * layer, and (b) collapses the plan's per-unit saved mask into the
 * closest BlockRecompute mode. Both roundings are reported in
 * StageMapping::notes so CLIs can surface them.
 */

#ifndef ADAPIPE_RUNTIME_PLAN_MAPPING_H
#define ADAPIPE_RUNTIME_PLAN_MAPPING_H

#include <string>
#include <vector>

#include "core/plan.h"
#include "model/model_config.h"
#include "runtime/pipeline_runtime.h"

namespace adapipe {

/**
 * Planner-side description of the tiny LM, so plans can be searched
 * for the exact model the runtime trains. dtypeBytes is 4: the
 * autograd engine computes in fp32.
 */
ModelConfig tinyLmModelConfig(const TinyLmConfig &config);

/** Result of mapping a plan onto runtime stages. */
struct StageMapping
{
    /**
     * Per-chain-position ownership + recompute, ready for
     * runPipeline: one entry per stage for virtualStages == 1, one
     * per model chunk (pipeline * virtualStages entries, chunk g on
     * worker g % pipeline) otherwise.
     */
    std::vector<StageSpec> stages;
    /** Copied from the plan; pass to RuntimeOptions::virtualStages. */
    int virtualStages = 1;
    /**
     * Copied from PipelinePlan::overlap; pass to
     * RuntimeOptions::overlapReplay so the runtime hides checkpoint
     * replay the way the plan budgeted it.
     */
    bool overlap = false;
    /**
     * Human-readable notes about roundings applied (block split
     * across a layer boundary, per-unit mask collapsed, fallback
     * recompute used). Empty when the plan mapped exactly.
     */
    std::vector<std::string> notes;
};

/**
 * Map @p plan onto the tiny LM described by @p config.
 *
 * The plan must have been produced for a model with
 * @p config .blocks blocks (layer sequence length 2*blocks + 2);
 * fatal on a stage/layer mismatch. The per-unit saved mask is decoded
 * when its shape matches the layer sequence built from
 * tinyLmModelConfig(); otherwise the plan's method picks a uniform
 * fallback mode (DappleFull -> Full, DappleNon -> None,
 * DappleSelective -> AttentionOnly, else None).
 */
StageMapping stageSpecsFromPlan(const PipelinePlan &plan,
                                const TinyLmConfig &config);

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_PLAN_MAPPING_H
