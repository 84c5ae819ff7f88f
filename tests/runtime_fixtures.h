/**
 * @file
 * Fixtures shared by the pipeline-runtime tests: a small tiny-LM,
 * small run options, the single-threaded reference losses every
 * bit-exactness check compares against, the tiny LM's profiled model
 * for (re)planning, and an alternating host-offload pattern.
 */

#ifndef ADAPIPE_TESTS_RUNTIME_FIXTURES_H
#define ADAPIPE_TESTS_RUNTIME_FIXTURES_H

#include <vector>

#include "autograd/trainer.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"

namespace adapipe {

inline TinyLmConfig
smallConfig()
{
    TinyLmConfig cfg;
    cfg.vocab = 32;
    cfg.dim = 24;
    cfg.blocks = 6;
    cfg.ffnHidden = 48;
    cfg.maxSeq = 32;
    cfg.seed = 42;
    return cfg;
}

inline RuntimeOptions
smallOpts(int steps)
{
    RuntimeOptions opts;
    opts.steps = steps;
    opts.seqLen = 12;
    opts.microBatches = 4;
    opts.lr = 4e-3f;
    opts.dataSeed = 7;
    return opts;
}

/** Single-threaded reference over the identical data stream, run
 *  under referenceRecompute(specs): host staging never changes the
 *  math, only where bytes live. */
inline std::vector<double>
referenceLosses(const TinyLmConfig &cfg, const RuntimeOptions &opts,
                const std::vector<StageSpec> &specs)
{
    TinyLM model(cfg);
    TrainOptions ref;
    ref.steps = opts.steps;
    ref.seqLen = opts.seqLen;
    ref.lr = opts.lr;
    ref.dataSeed = opts.dataSeed;
    ref.microBatches = opts.microBatches;
    ref.recompute = referenceRecompute(specs);
    return trainTinyLM(model, ref).losses;
}

/** Profiled model matching the tiny LM, for planning and replanning
 *  it on @p p stages with @p n micro-batches. */
inline ProfiledModel
profileTinyLm(const TinyLmConfig &cfg, int p, int n)
{
    TrainConfig train;
    train.seqLen = smallOpts(1).seqLen;
    train.microBatch = 1;
    train.globalBatch = n;
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = p;
    par.data = 1;
    return buildProfiledModel(tinyLmModelConfig(cfg), train, par,
                              clusterA(1));
}

/** Mark every other block for host offload. */
inline std::vector<StageSpec>
withAlternatingOffload(std::vector<StageSpec> specs)
{
    int b = 0;
    for (StageSpec &spec : specs) {
        spec.offload.clear();
        for (int i = 0; i < spec.numBlocks(); ++i)
            spec.offload.push_back(b++ % 2 == 0);
    }
    return specs;
}

} // namespace adapipe

#endif // ADAPIPE_TESTS_RUNTIME_FIXTURES_H
