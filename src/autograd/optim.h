/**
 * @file
 * Optimizers for the autograd engine.
 */

#ifndef ADAPIPE_AUTOGRAD_OPTIM_H
#define ADAPIPE_AUTOGRAD_OPTIM_H

#include <vector>

#include "autograd/variable.h"

namespace adapipe {

/**
 * Rescale gradients so their global L2 norm does not exceed
 * @p max_norm (the standard stabiliser in LLM training loops).
 *
 * @param params parameters whose gradients participate
 * @param max_norm clipping threshold (> 0)
 * @return the pre-clip global norm
 */
float clipGradNorm(const std::vector<Variable> &params,
                   float max_norm);

/** Adam / AdamW (the paper trains with FP32 Adam). */
class Adam
{
  public:
    /**
     * @param params trainable parameters
     * @param lr learning rate
     * @param beta1 first-moment decay
     * @param beta2 second-moment decay
     * @param eps numerical floor
     * @param weight_decay decoupled (AdamW-style) weight decay
     */
    Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f,
         float weight_decay = 0.0f);

    /** Apply one update from the accumulated gradients. */
    void step();

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** @name Training-state export/import (checkpoints)
     *
     * Adam's update depends on the moment tensors and the step
     * counter (bias correction), so a bit-exact restore must carry
     * all three. Indices follow the construction-order params()
     * vector.
     *  @{
     */

    /** @return the parameters in construction order. */
    const std::vector<Variable> &params() const { return params_; }

    /** @return completed step() calls (bias-correction t). */
    int stepCount() const { return t_; }

    /** Set the step counter (restore); @p t must be >= 0. */
    void setStepCount(int t);

    /** @return first moment of parameter @p i. */
    const Tensor &moment1(std::size_t i) const;

    /** @return second moment of parameter @p i. */
    const Tensor &moment2(std::size_t i) const;

    /**
     * Overwrite both moments of parameter @p i (restore); shapes
     * must match the parameter's.
     */
    void setMoments(std::size_t i, const Tensor &m, const Tensor &v);
    /** @} */

  private:
    std::vector<Variable> params_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    float lr_;
    float beta1_;
    float beta2_;
    float eps_;
    float weightDecay_;
    int t_ = 0;
};

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_OPTIM_H
