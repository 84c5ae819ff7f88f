/**
 * @file
 * Per-stage memory accounting (Sec. 4.2's three-part model).
 *
 * Part 1 (static): parameters, gradients and ZeRO-1-sharded optimizer
 * states (the paper's FP32 Adam with FP32 master parameters and
 * gradients) — depends only on the parallel strategy.
 * Part 2 (buffer): space to rematerialise one decoder layer's
 * intermediates during backward; reused across layers.
 * Part 3 (intermediates): saved activations, weighted by the number
 * of in-flight micro-batches (p - s) of the 1F1B schedule.
 */

#ifndef ADAPIPE_MEMORY_MEMORY_MODEL_H
#define ADAPIPE_MEMORY_MEMORY_MODEL_H

#include <cstdint>
#include <vector>

#include "model/model_config.h"
#include "model/parallel.h"
#include "model/units.h"
#include "util/units.h"

namespace adapipe {

/**
 * Static (recomputation-independent) memory of one pipeline stage.
 */
struct StaticMemory
{
    /** Half-precision parameter bytes per rank. */
    Bytes params = 0;
    /** FP32 gradient bytes per rank. */
    Bytes grads = 0;
    /** Adam moments plus the FP32 master parameters, per rank
     *  (ZeRO-1: divided by t*d). */
    Bytes optimizer = 0;

    /** @return sum of the three components. */
    Bytes total() const { return params + grads + optimizer; }
};

/**
 * Memory model of one training configuration; all query methods are
 * per-rank quantities.
 */
class MemoryModel
{
  public:
    /**
     * @param model architecture (for dtype and hidden size)
     * @param train micro-batch and sequence length
     * @param par parallel strategy (t, d and sequence parallelism)
     */
    MemoryModel(const ModelConfig &model, const TrainConfig &train,
                const ParallelConfig &par);

    /**
     * Static memory of a stage holding @p stage_params unsharded
     * parameters.
     */
    StaticMemory staticMemory(std::uint64_t stage_params) const;

    /**
     * Bytes of the residual-stream activation entering a stage (one
     * micro-batch). This tensor is pinned per in-flight micro-batch
     * regardless of the recomputation strategy.
     */
    Bytes stageInputBytes() const;

    /**
     * Saved activation bytes of one micro-batch under Megatron-style
     * *full recomputation*: only the input of each decoder layer is
     * kept (one residual tensor per Attention layer; Embedding and
     * DecodingHead layers keep their own saved tensors since they
     * are never recomputed).
     */
    Bytes fullRecomputeSavedPerMb(const std::vector<Layer> &layers,
                                  int first, int last) const;

    /**
     * Saved activation bytes of one micro-batch with *no
     * recomputation*: every unit's children stay alive.
     */
    Bytes noRecomputeSavedPerMb(const std::vector<Layer> &layers,
                                int first, int last) const;

    /**
     * Saved activation bytes of one micro-batch under *selective
     * recomputation* (Sec. 2.2): the attention score / softmax /
     * context units are recomputed, everything else is saved. On
     * the flash-attention path those units do not exist and this
     * equals noRecomputeSavedPerMb.
     */
    Bytes selectiveRecomputeSavedPerMb(const std::vector<Layer> &layers,
                                       int first, int last) const;

    /**
     * Recomputation buffer bound: the largest per-layer sum of unit
     * activations among layers [first, last] (Sec. 4.2 restricts
     * layer outputs to be saved, so rematerialisation never needs
     * more than one layer's intermediates at a time).
     */
    Bytes recomputeBufferBytes(const std::vector<Layer> &layers,
                               int first, int last) const;

    /** @return in-flight micro-batches of stage @p s (p - s). */
    static int inflightMicroBatches(int s, int p, int n);

  private:
    const ModelConfig &model_;
    TrainConfig train_;
    ParallelConfig par_;
};

} // namespace adapipe

#endif // ADAPIPE_MEMORY_MEMORY_MODEL_H
