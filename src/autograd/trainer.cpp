#include "autograd/trainer.h"

#include "autograd/optim.h"
#include "util/logging.h"
#include "util/rng.h"

namespace adapipe {

void
makeBigramBatch(int vocab, int seq_len, int step, std::uint64_t seed,
                std::vector<int> &tokens, std::vector<int> &targets)
{
    ADAPIPE_ASSERT(vocab >= 2 && seq_len >= 1, "invalid batch request");

    // Seeded permutation of the vocabulary = the bigram mapping.
    Rng perm_rng(seed);
    std::vector<int> perm(vocab);
    for (int i = 0; i < vocab; ++i)
        perm[i] = i;
    for (int i = vocab - 1; i > 0; --i) {
        const int j =
            static_cast<int>(perm_rng.uniformInt(0, i));
        std::swap(perm[i], perm[j]);
    }

    Rng tok_rng(seed * 1000003ULL +
                static_cast<std::uint64_t>(step) + 1);
    tokens.resize(seq_len);
    targets.resize(seq_len);
    for (int i = 0; i < seq_len; ++i) {
        tokens[i] = static_cast<int>(tok_rng.uniformInt(0, vocab - 1));
        targets[i] = perm[tokens[i]];
    }
}

TrainStats
trainTinyLM(TinyLM &model, const TrainOptions &opts)
{
    ADAPIPE_ASSERT(opts.steps >= 1, "need at least one step");
    ADAPIPE_ASSERT(opts.seqLen <= model.config().maxSeq,
                   "seqLen exceeds model maxSeq");
    ADAPIPE_ASSERT(opts.microBatches >= 1,
                   "need at least one micro-batch");

    Adam adam(model.params(), opts.lr);

    TrainStats stats;
    stats.losses.reserve(opts.steps);
    resetActivationMeter();
    // Report the run's own footprint: exclude whatever (other
    // models, leftover graphs) was already alive.
    const std::int64_t baseline = liveActivationFloats();

    const int n = opts.microBatches;
    const float grad_scale = 1.0f / static_cast<float>(n);
    std::vector<int> tokens;
    std::vector<int> targets;
    for (int step = 0; step < opts.steps; ++step) {
        adam.zeroGrad();

        double loss_sum = 0;
        for (int mb = 0; mb < n; ++mb) {
            makeBigramBatch(model.config().vocab, opts.seqLen,
                            step * n + mb, opts.dataSeed, tokens,
                            targets);
            Variable loss =
                model.loss(tokens, targets, opts.recompute);
            loss_sum += loss.value()[0];
            // Seeding with 1/n averages gradients over the step's
            // micro-batches; n = 1 seeds with ones, bit-identical to
            // the historical loss.backward().
            loss.backward(
                Tensor::full(loss.value().shape(), grad_scale));
        }
        stats.losses.push_back(loss_sum / n);
        adam.step();
    }
    stats.peakActivationFloats = peakActivationFloats() - baseline;
    return stats;
}

const std::vector<RecomputeStrategy> &
recomputeStrategyTable()
{
    static const std::vector<RecomputeStrategy> table = {
        {"none", "No recompute (save all)", BlockRecompute::None},
        {"attn", "Attention-only recompute",
         BlockRecompute::AttentionOnly},
        {"full", "Full recompute", BlockRecompute::Full},
    };
    return table;
}

const RecomputeStrategy *
findRecomputeStrategy(const std::string &key)
{
    for (const RecomputeStrategy &s : recomputeStrategyTable()) {
        if (key == s.key)
            return &s;
    }
    return nullptr;
}

} // namespace adapipe
