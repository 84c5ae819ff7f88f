/**
 * @file
 * Unit tests for the memory module: static memory, activation
 * accounting, buffer bounds and the (p - s) in-flight weighting.
 */

#include <gtest/gtest.h>

#include "memory/memory_model.h"
#include "model/model_config.h"
#include "model/units.h"
#include "util/units.h"

namespace adapipe {
namespace {

class MemoryModelTest : public ::testing::Test
{
  protected:
    ModelConfig model = tinyTestModel();
    TrainConfig train;
    ParallelConfig par;

    void
    SetUp() override
    {
        train.seqLen = 128;
        par.tensor = 2;
        par.pipeline = 2;
        par.data = 2;
    }
};

TEST_F(MemoryModelTest, StaticMemoryComponents)
{
    MemoryModel mm(model, train, par);
    const std::uint64_t n = 1'000'000;
    const StaticMemory mem = mm.staticMemory(n);
    // fp16 params sharded by t.
    EXPECT_EQ(mem.params, n * 2 / 2);
    // fp32 gradient accumulation, sharded by t only.
    EXPECT_EQ(mem.grads, n * 4 / 2);
    // Adam states (8 B) + fp32 master (4 B), sharded by t*d (ZeRO-1).
    EXPECT_EQ(mem.optimizer, n * 12 / (2 * 2));
    EXPECT_EQ(mem.total(), mem.params + mem.grads + mem.optimizer);
}

TEST_F(MemoryModelTest, ZeroOneShardsOptimizerByData)
{
    MemoryModel mm(model, train, par);
    ParallelConfig par_d4 = par;
    par_d4.data = 4;
    MemoryModel mm4(model, train, par_d4);
    const std::uint64_t n = 1'000'000;
    EXPECT_EQ(mm.staticMemory(n).optimizer,
              2 * mm4.staticMemory(n).optimizer);
    // Params and grads are NOT sharded by d.
    EXPECT_EQ(mm.staticMemory(n).params, mm4.staticMemory(n).params);
}

TEST_F(MemoryModelTest, StageInputSeqParallelAware)
{
    MemoryModel mm(model, train, par);
    const Bytes seq_par = mm.stageInputBytes();
    ParallelConfig no_sp = par;
    no_sp.sequenceParallel = false;
    MemoryModel mm_nosp(model, train, no_sp);
    EXPECT_EQ(mm_nosp.stageInputBytes(), seq_par * par.tensor);
}

TEST_F(MemoryModelTest, FullRecomputeSavesOneTensorPerBlock)
{
    const auto layers = buildLayerSequence(model, train, par);
    MemoryModel mm(model, train, par);
    // A pure block range [1, 4] = 2 blocks -> 2 stage-input-sized
    // checkpoints.
    const Bytes full = mm.fullRecomputeSavedPerMb(layers, 1, 4);
    EXPECT_EQ(full, 2 * mm.stageInputBytes());
}

TEST_F(MemoryModelTest, NoRecomputeSavesEverything)
{
    const auto layers = buildLayerSequence(model, train, par);
    MemoryModel mm(model, train, par);
    Bytes expected = 0;
    for (int l = 1; l <= 4; ++l)
        expected += layers[l].memSavedAll();
    EXPECT_EQ(mm.noRecomputeSavedPerMb(layers, 1, 4), expected);
    EXPECT_GT(mm.noRecomputeSavedPerMb(layers, 1, 4),
              mm.fullRecomputeSavedPerMb(layers, 1, 4));
}

TEST_F(MemoryModelTest, BufferIsLargestBlockLayer)
{
    const auto layers = buildLayerSequence(model, train, par);
    MemoryModel mm(model, train, par);
    Bytes largest = 0;
    for (int l = 1; l <= 4; ++l)
        largest = std::max(largest, layers[l].memSavedAll());
    EXPECT_EQ(mm.recomputeBufferBytes(layers, 1, 4), largest);
    // Embedding-only range has no recomputable layer -> no buffer.
    EXPECT_EQ(mm.recomputeBufferBytes(layers, 0, 0), 0u);
}

TEST_F(MemoryModelTest, InflightMicroBatches)
{
    // 1F1B: stage s keeps p - s micro-batches, capped by n.
    EXPECT_EQ(MemoryModel::inflightMicroBatches(0, 8, 64), 8);
    EXPECT_EQ(MemoryModel::inflightMicroBatches(7, 8, 64), 1);
    EXPECT_EQ(MemoryModel::inflightMicroBatches(0, 8, 4), 4);
}

TEST_F(MemoryModelTest, EmbeddingAndHeadCountedInFullRecompute)
{
    const auto layers = buildLayerSequence(model, train, par);
    MemoryModel mm(model, train, par);
    const int last = static_cast<int>(layers.size()) - 1;
    // Ranges containing embedding/head include their saved tensors.
    const Bytes with_embed = mm.fullRecomputeSavedPerMb(layers, 0, 2);
    const Bytes without = mm.fullRecomputeSavedPerMb(layers, 1, 2);
    EXPECT_EQ(with_embed - without, layers[0].memSavedAll());
    // [last-2, last] = one Attention + FeedForward block plus the
    // head: one block checkpoint plus the head's saved tensors.
    const Bytes with_head =
        mm.fullRecomputeSavedPerMb(layers, last - 2, last);
    EXPECT_EQ(with_head,
              mm.stageInputBytes() + layers[last].memSavedAll());
}

/**
 * Property sweep: the Fig. 1 imbalance. Memory for saved
 * intermediates scales with (p - s) and with the sequence length.
 */
class ImbalanceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(ImbalanceProperty, EarlierStagesNeedMoreActivationMemory)
{
    const auto [p, seq] = GetParam();
    ModelConfig model = tinyTestModel();
    TrainConfig train;
    train.seqLen = seq;
    ParallelConfig par;
    par.tensor = 2;
    par.pipeline = p;
    const auto layers = buildLayerSequence(model, train, par);
    MemoryModel mm(model, train, par);
    const Bytes per_mb = mm.noRecomputeSavedPerMb(
        layers, 0, static_cast<int>(layers.size()) - 1);
    Bytes prev = 0;
    for (int s = p - 1; s >= 0; --s) {
        const Bytes total =
            static_cast<Bytes>(
                MemoryModel::inflightMicroBatches(s, p, 64)) *
            per_mb;
        EXPECT_GT(total, prev) << "stage " << s;
        prev = total;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineAndSeq, ImbalanceProperty,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(64, 128, 256)));

} // namespace
} // namespace adapipe
