/**
 * @file
 * Training harness for the tiny LM: the workload behind the
 * convergence validation (paper Fig. 10).
 *
 * The synthetic task is a learnable deterministic bigram: for a
 * seeded permutation f, the target of token x is f(x). Loss starts
 * near log(vocab) and drops as the model learns the mapping.
 */

#ifndef ADAPIPE_AUTOGRAD_TRAINER_H
#define ADAPIPE_AUTOGRAD_TRAINER_H

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/module.h"

namespace adapipe {

/** Training options. */
struct TrainOptions
{
    int steps = 100;
    int seqLen = 16;
    /** Adam learning rate. */
    float lr = 1e-2f;
    /** Per-block recomputation strategy (empty = save everything). */
    std::vector<BlockRecompute> recompute;
    /** Seed for the data stream (independent of model init). */
    std::uint64_t dataSeed = 7;
    /**
     * Micro-batches accumulated per optimizer step (gradients are
     * averaged). Micro-batch m of step k draws batch index k*n + m,
     * the exact stream the pipeline runtime consumes, so this is the
     * single-threaded reference for runtime validation. 1 keeps the
     * original one-batch-per-step behaviour bit-identically.
     */
    int microBatches = 1;
};

/** Per-run statistics. */
struct TrainStats
{
    /** Loss at every step. */
    std::vector<double> losses;
    /**
     * Peak live floats across the run, relative to what was alive
     * when the run started (memory proxy excluding other models).
     */
    std::int64_t peakActivationFloats = 0;
};

/**
 * Deterministic synthetic batch: tokens uniform over the vocab,
 * targets given by a seeded permutation of the vocabulary.
 *
 * @param vocab vocabulary size
 * @param seq_len tokens per step
 * @param step training step (varies the tokens, not the mapping)
 * @param seed data seed
 * @param tokens output token ids
 * @param targets output target ids
 */
void makeBigramBatch(int vocab, int seq_len, int step,
                     std::uint64_t seed, std::vector<int> &tokens,
                     std::vector<int> &targets);

/**
 * Train @p model in place for @p opts.steps steps.
 */
TrainStats trainTinyLM(TinyLM &model, const TrainOptions &opts);

/**
 * One row of the uniform recomputation-strategy ladder shared by the
 * training examples (tiny_training, pipeline_training) and tests.
 */
struct RecomputeStrategy
{
    /** CLI key, e.g. "attn". */
    const char *key;
    /** Display name, e.g. "Attention-only recompute". */
    const char *name;
    /** Per-block mode applied uniformly. */
    BlockRecompute mode;
};

/** The ladder: save-all, attention-only, full recompute. */
const std::vector<RecomputeStrategy> &recomputeStrategyTable();

/** @return the ladder entry with @p key, or nullptr. */
const RecomputeStrategy *findRecomputeStrategy(const std::string &key);

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_TRAINER_H
