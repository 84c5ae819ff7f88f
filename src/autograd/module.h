/**
 * @file
 * Neural-network modules on top of the autograd engine: enough of a
 * transformer to run the paper's convergence validation (Fig. 10)
 * with real recomputation.
 */

#ifndef ADAPIPE_AUTOGRAD_MODULE_H
#define ADAPIPE_AUTOGRAD_MODULE_H

#include <optional>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace adapipe {

/** Recomputation strategy of one transformer block. */
enum class BlockRecompute {
    None,          ///< save everything
    AttentionOnly, ///< checkpoint the attention sub-layer
    Full,          ///< checkpoint the whole block
};

/** Dense layer y = x W + b. */
class Linear
{
  public:
    /**
     * @param in input width
     * @param out output width
     * @param rng initialiser (N(0, 0.02) weights, zero bias)
     */
    Linear(int in, int out, Rng &rng);

    /** Apply to [rows, in]. */
    Variable forward(const Variable &x) const;

    /**
     * Apply followed by GELU as one fused graph node (bit-identical
     * to gelu(forward(x))).
     */
    Variable forwardGelu(const Variable &x) const;

    /** @return trainable parameters. */
    std::vector<Variable> params() const { return {w_, b_}; }

  private:
    Variable w_;
    Variable b_;
};

/** Layer normalisation with affine parameters. */
class LayerNormModule
{
  public:
    /**
     * @param dim normalised width
     * @param rms use RMSNorm (scale only, Llama-style) instead of
     *        LayerNorm
     */
    explicit LayerNormModule(int dim, bool rms = false);

    Variable forward(const Variable &x) const;

    std::vector<Variable> params() const;

  private:
    bool rms_;
    Variable gamma_;
    Variable beta_; // undefined when rms_
};

/** Multi-head causal self-attention. */
class CausalSelfAttention
{
  public:
    /**
     * @param dim model width
     * @param num_heads attention heads (dim % num_heads == 0)
     * @param rng parameter initialiser
     */
    CausalSelfAttention(int dim, int num_heads, Rng &rng);

    /** Apply to [T, dim]. */
    Variable forward(const Variable &x) const;

    std::vector<Variable> params() const;

  private:
    int dim_;
    int numHeads_;
    Linear q_;
    Linear k_;
    Linear v_;
    Linear out_;
};

/** Feed-forward network: GELU MLP or gated SwiGLU (Llama-style). */
class FeedForwardModule
{
  public:
    /**
     * @param dim model width
     * @param hidden inner width
     * @param gated use silu(gate(x)) * up(x) instead of gelu(up(x))
     * @param rng parameter initialiser
     */
    FeedForwardModule(int dim, int hidden, bool gated, Rng &rng);

    Variable forward(const Variable &x) const;

    std::vector<Variable> params() const;

  private:
    bool gated_;
    Linear up_;
    Linear down_;
    std::optional<Linear> gate_;
};

/** Architecture knobs of one block (GPT-style vs Llama-style). */
struct BlockConfig
{
    int dim = 32;
    int ffnHidden = 64;
    int numHeads = 1;
    bool gatedFfn = false;
    bool rmsNorm = false;
};

/** Pre-norm transformer block with selectable recomputation. */
class TransformerBlock
{
  public:
    TransformerBlock(const BlockConfig &config, Rng &rng);

    /**
     * @param x [T, dim] input
     * @param recompute which sub-layers to checkpoint
     */
    Variable forward(const Variable &x, BlockRecompute recompute) const;

    /**
     * Forward with the whole block recorded as one resident
     * checkpoint whose interior activations can be staged to host
     * (checkpointResident / CheckpointHandle). Bit-identical floats to
     * forward(x, BlockRecompute::None).
     */
    Variable forwardOffload(const Variable &x) const;

    std::vector<Variable> params() const;

  private:
    Variable attnPart(const Variable &x) const;
    Variable ffnPart(const Variable &x) const;

    LayerNormModule ln1_;
    CausalSelfAttention attn_;
    LayerNormModule ln2_;
    FeedForwardModule ffn_;
};

/** Tiny decoder-only language model. */
struct TinyLmConfig
{
    int vocab = 64;
    int dim = 32;
    int blocks = 2;
    int ffnHidden = 64;
    int maxSeq = 64;
    /** Attention heads per block (dim % numHeads == 0). */
    int numHeads = 1;
    /** SwiGLU feed-forward (Llama-style). */
    bool gatedFfn = false;
    /** RMSNorm instead of LayerNorm (Llama-style). */
    bool rmsNorm = false;
    std::uint64_t seed = 42;
};

class TinyLM
{
  public:
    explicit TinyLM(const TinyLmConfig &config);

    /**
     * @param tokens input token ids, |tokens| <= maxSeq
     * @param targets next-token targets, same length
     * @param recompute per-block strategy (empty = no recompute)
     * @return scalar mean cross-entropy loss
     */
    Variable loss(const std::vector<int> &tokens,
                  const std::vector<int> &targets,
                  const std::vector<BlockRecompute> &recompute) const;

    /** @name Stage-partial execution (pipeline runtime)
     *
     * loss() composes exactly these three pieces, so a pipeline of
     * stages running embed -> blockForward... -> headLoss over the
     * same block ranges computes bit-identical floats to the
     * monolithic forward.
     *  @{
     */

    /** Token + position embedding: the stream entering block 0. */
    Variable embed(const std::vector<int> &tokens) const;

    /** Forward of block @p b on activation @p h. */
    Variable blockForward(int b, const Variable &h,
                          BlockRecompute recompute) const;

    /** Forward of block @p b as a host-offloadable resident
     *  checkpoint (see TransformerBlock::forwardOffload). */
    Variable blockForwardOffload(int b, const Variable &h) const;

    /** Final norm + vocabulary head + mean cross-entropy. */
    Variable headLoss(const Variable &h,
                      const std::vector<int> &targets) const;

    /** Parameters of the embedding partition (token + pos tables). */
    std::vector<Variable> embedParams() const;

    /** Parameters of block @p b. */
    std::vector<Variable> blockParams(int b) const;

    /** Parameters of the head partition (final norm + projection). */
    std::vector<Variable> headParams() const;
    /** @} */

    /** @return all trainable parameters. */
    std::vector<Variable> params() const;

    const TinyLmConfig &config() const { return config_; }

  private:
    TinyLmConfig config_;
    Variable tokenTable_;
    Variable posTable_;
    std::vector<TransformerBlock> blocks_;
    LayerNormModule finalNorm_;
    Variable headW_;
};

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_MODULE_H
