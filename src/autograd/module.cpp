#include "autograd/module.h"

#include <cmath>

#include "util/logging.h"

namespace adapipe {

namespace {

/** Collect parameter vectors. */
void
append(std::vector<Variable> &into, const std::vector<Variable> &from)
{
    into.insert(into.end(), from.begin(), from.end());
}

} // namespace

Linear::Linear(int in, int out, Rng &rng)
    : w_(Tensor::randn({in, out}, rng, 0.02f), true),
      b_(Tensor({out}), true)
{}

Variable
Linear::forward(const Variable &x) const
{
    return ops::linearBias(x, w_, b_);
}

Variable
Linear::forwardGelu(const Variable &x) const
{
    return ops::linearBiasGelu(x, w_, b_);
}

LayerNormModule::LayerNormModule(int dim, bool rms)
    : rms_(rms), gamma_(Tensor::full({dim}, 1.0f), true)
{
    if (!rms_)
        beta_ = Variable(Tensor({dim}), true);
}

Variable
LayerNormModule::forward(const Variable &x) const
{
    if (rms_)
        return ops::rmsNorm(x, gamma_);
    return ops::layerNorm(x, gamma_, beta_);
}

std::vector<Variable>
LayerNormModule::params() const
{
    if (rms_)
        return {gamma_};
    return {gamma_, beta_};
}

CausalSelfAttention::CausalSelfAttention(int dim, int num_heads,
                                         Rng &rng)
    : dim_(dim), numHeads_(num_heads), q_(dim, dim, rng),
      k_(dim, dim, rng), v_(dim, dim, rng), out_(dim, dim, rng)
{
    ADAPIPE_ASSERT(num_heads >= 1 && dim % num_heads == 0,
                   "dim ", dim, " not divisible by heads ", num_heads);
}

Variable
CausalSelfAttention::forward(const Variable &x) const
{
    const Variable q = q_.forward(x);
    const Variable k = k_.forward(x);
    const Variable v = v_.forward(x);

    const int head_dim = dim_ / numHeads_;
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(head_dim));

    std::vector<Variable> contexts;
    contexts.reserve(numHeads_);
    for (int h = 0; h < numHeads_; ++h) {
        const int off = h * head_dim;
        Variable qh = numHeads_ == 1
                          ? q
                          : ops::sliceCols(q, off, head_dim);
        Variable kh = numHeads_ == 1
                          ? k
                          : ops::sliceCols(k, off, head_dim);
        Variable vh = numHeads_ == 1
                          ? v
                          : ops::sliceCols(v, off, head_dim);
        Variable scores =
            ops::scale(ops::matmul(qh, ops::transpose(kh)), inv_sqrt_d);
        Variable probs = ops::softmaxRows(scores, /*causal=*/true);
        contexts.push_back(ops::matmul(probs, vh));
    }
    Variable ctx = numHeads_ == 1 ? contexts.front()
                                  : ops::concatCols(contexts);
    return out_.forward(ctx);
}

std::vector<Variable>
CausalSelfAttention::params() const
{
    std::vector<Variable> p;
    append(p, q_.params());
    append(p, k_.params());
    append(p, v_.params());
    append(p, out_.params());
    return p;
}

FeedForwardModule::FeedForwardModule(int dim, int hidden, bool gated,
                                     Rng &rng)
    : gated_(gated), up_(dim, hidden, rng), down_(hidden, dim, rng)
{
    if (gated_)
        gate_.emplace(dim, hidden, rng);
}

Variable
FeedForwardModule::forward(const Variable &x) const
{
    if (gated_) {
        return down_.forward(
            ops::mul(ops::silu(gate_->forward(x)), up_.forward(x)));
    }
    return down_.forward(up_.forwardGelu(x));
}

std::vector<Variable>
FeedForwardModule::params() const
{
    std::vector<Variable> p;
    append(p, up_.params());
    append(p, down_.params());
    if (gated_)
        append(p, gate_->params());
    return p;
}

TransformerBlock::TransformerBlock(const BlockConfig &config, Rng &rng)
    : ln1_(config.dim, config.rmsNorm),
      attn_(config.dim, config.numHeads, rng),
      ln2_(config.dim, config.rmsNorm),
      ffn_(config.dim, config.ffnHidden, config.gatedFfn, rng)
{}

Variable
TransformerBlock::attnPart(const Variable &x) const
{
    return ops::add(x, attn_.forward(ln1_.forward(x)));
}

Variable
TransformerBlock::ffnPart(const Variable &x) const
{
    return ops::add(x, ffn_.forward(ln2_.forward(x)));
}

Variable
TransformerBlock::forward(const Variable &x,
                          BlockRecompute recompute) const
{
    switch (recompute) {
      case BlockRecompute::None:
        return ffnPart(attnPart(x));
      case BlockRecompute::AttentionOnly: {
        Variable h = checkpoint(
            [this](const Variable &in) { return attnPart(in); }, x,
            params());
        return ffnPart(h);
      }
      case BlockRecompute::Full:
        return checkpoint(
            [this](const Variable &in) {
                return ffnPart(attnPart(in));
            },
            x, params());
    }
    ADAPIPE_PANIC("unreachable recompute mode");
}

Variable
TransformerBlock::forwardOffload(const Variable &x) const
{
    return checkpointResident(
        [this](const Variable &in) { return ffnPart(attnPart(in)); },
        x, params());
}

std::vector<Variable>
TransformerBlock::params() const
{
    std::vector<Variable> p;
    append(p, ln1_.params());
    append(p, attn_.params());
    append(p, ln2_.params());
    append(p, ffn_.params());
    return p;
}

TinyLM::TinyLM(const TinyLmConfig &config)
    : config_(config), finalNorm_(config.dim, config.rmsNorm)
{
    Rng rng(config.seed);
    tokenTable_ =
        Variable(Tensor::randn({config.vocab, config.dim}, rng, 0.02f),
                 true);
    posTable_ =
        Variable(Tensor::randn({config.maxSeq, config.dim}, rng, 0.02f),
                 true);
    BlockConfig block;
    block.dim = config.dim;
    block.ffnHidden = config.ffnHidden;
    block.numHeads = config.numHeads;
    block.gatedFfn = config.gatedFfn;
    block.rmsNorm = config.rmsNorm;
    blocks_.reserve(config.blocks);
    for (int i = 0; i < config.blocks; ++i)
        blocks_.emplace_back(block, rng);
    headW_ = Variable(
        Tensor::randn({config.dim, config.vocab}, rng, 0.02f), true);
}

Variable
TinyLM::loss(const std::vector<int> &tokens,
             const std::vector<int> &targets,
             const std::vector<BlockRecompute> &recompute) const
{
    ADAPIPE_ASSERT(tokens.size() == targets.size(),
                   "tokens/targets length mismatch");
    ADAPIPE_ASSERT(recompute.empty() ||
                       recompute.size() == blocks_.size(),
                   "one recompute mode per block required");

    Variable h = embed(tokens);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const BlockRecompute mode =
            recompute.empty() ? BlockRecompute::None : recompute[b];
        h = blockForward(static_cast<int>(b), h, mode);
    }
    return headLoss(h, targets);
}

Variable
TinyLM::embed(const std::vector<int> &tokens) const
{
    ADAPIPE_ASSERT(static_cast<int>(tokens.size()) <= config_.maxSeq,
                   "sequence longer than maxSeq");
    std::vector<int> positions(tokens.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = static_cast<int>(i);
    return ops::add(ops::embedding(tokenTable_, tokens),
                    ops::embedding(posTable_, positions));
}

Variable
TinyLM::blockForward(int b, const Variable &h,
                     BlockRecompute recompute) const
{
    ADAPIPE_ASSERT(b >= 0 && b < static_cast<int>(blocks_.size()),
                   "block index ", b, " out of range");
    return blocks_[static_cast<std::size_t>(b)].forward(h, recompute);
}

Variable
TinyLM::blockForwardOffload(int b, const Variable &h) const
{
    ADAPIPE_ASSERT(b >= 0 && b < static_cast<int>(blocks_.size()),
                   "block index ", b, " out of range");
    return blocks_[static_cast<std::size_t>(b)].forwardOffload(h);
}

Variable
TinyLM::headLoss(const Variable &h,
                 const std::vector<int> &targets) const
{
    Variable normed = finalNorm_.forward(h);
    Variable logits = ops::matmul(normed, headW_);
    return ops::crossEntropy(logits, targets);
}

std::vector<Variable>
TinyLM::embedParams() const
{
    return {tokenTable_, posTable_};
}

std::vector<Variable>
TinyLM::blockParams(int b) const
{
    ADAPIPE_ASSERT(b >= 0 && b < static_cast<int>(blocks_.size()),
                   "block index ", b, " out of range");
    return blocks_[static_cast<std::size_t>(b)].params();
}

std::vector<Variable>
TinyLM::headParams() const
{
    std::vector<Variable> p = finalNorm_.params();
    p.push_back(headW_);
    return p;
}

std::vector<Variable>
TinyLM::params() const
{
    std::vector<Variable> p{tokenTable_, posTable_};
    for (const auto &blk : blocks_)
        append(p, blk.params());
    append(p, finalNorm_.params());
    p.push_back(headW_);
    return p;
}

} // namespace adapipe
