#include "memory/memory_model.h"

#include <algorithm>

#include "util/logging.h"

namespace adapipe {

MemoryModel::MemoryModel(const ModelConfig &model,
                         const TrainConfig &train,
                         const ParallelConfig &par)
    : model_(model), train_(train), par_(par)
{
    model_.validate();
    ADAPIPE_ASSERT(par_.tensor >= 1 && par_.data >= 1 &&
                       par_.pipeline >= 1,
                   "invalid parallel config");
}

StaticMemory
MemoryModel::staticMemory(std::uint64_t stage_params) const
{
    // FP32 gradients; Adam's two FP32 moments plus the FP32 master
    // parameters, which ZeRO-1 shards over the data-parallel group.
    constexpr double kGradBytes = 4.0;
    constexpr double kOptimizerBytes = 8.0 + 4.0;
    const double n = static_cast<double>(stage_params);
    const double t = par_.tensor;
    const double d = par_.data;

    StaticMemory mem;
    mem.params = static_cast<Bytes>(model_.dtypeBytes * n / t);
    mem.grads = static_cast<Bytes>(kGradBytes * n / t);
    mem.optimizer = static_cast<Bytes>(kOptimizerBytes * n / (t * d));
    return mem;
}

Bytes
MemoryModel::stageInputBytes() const
{
    const bool seq_par = par_.sequenceParallel && par_.tensor > 1;
    const double elems = static_cast<double>(train_.microBatch) *
                         train_.seqLen * model_.hiddenSize /
                         (seq_par ? par_.tensor : 1);
    return static_cast<Bytes>(elems * model_.dtypeBytes);
}

Bytes
MemoryModel::fullRecomputeSavedPerMb(const std::vector<Layer> &layers,
                                     int first, int last) const
{
    ADAPIPE_ASSERT(first >= 0 && last < static_cast<int>(layers.size()) &&
                       first <= last,
                   "bad layer range [", first, ", ", last, "]");
    Bytes total = 0;
    for (int i = first; i <= last; ++i) {
        const Layer &layer = layers[i];
        switch (layer.kind) {
          case LayerKind::Attention:
            // One checkpointed block input per decoder block.
            total += stageInputBytes();
            break;
          case LayerKind::FeedForward:
            // Covered by the block input checkpoint.
            break;
          case LayerKind::Embedding:
          case LayerKind::DecodingHead:
            // Never recomputed; their children stay alive.
            total += layer.memSavedAll();
            break;
        }
    }
    return total;
}

Bytes
MemoryModel::noRecomputeSavedPerMb(const std::vector<Layer> &layers,
                                   int first, int last) const
{
    ADAPIPE_ASSERT(first >= 0 && last < static_cast<int>(layers.size()) &&
                       first <= last,
                   "bad layer range [", first, ", ", last, "]");
    Bytes total = 0;
    for (int i = first; i <= last; ++i)
        total += layers[i].memSavedAll();
    return total;
}

Bytes
MemoryModel::selectiveRecomputeSavedPerMb(
    const std::vector<Layer> &layers, int first, int last) const
{
    ADAPIPE_ASSERT(first >= 0 && last < static_cast<int>(layers.size()) &&
                       first <= last,
                   "bad layer range [", first, ", ", last, "]");
    Bytes total = 0;
    for (int i = first; i <= last; ++i) {
        for (const auto &u : layers[i].units) {
            const bool selective =
                u.kind == UnitKind::AttnScores ||
                u.kind == UnitKind::AttnSoftmax ||
                u.kind == UnitKind::AttnContext;
            if (!selective)
                total += u.memSaved;
        }
    }
    return total;
}

Bytes
MemoryModel::recomputeBufferBytes(const std::vector<Layer> &layers,
                                  int first, int last) const
{
    ADAPIPE_ASSERT(first >= 0 && last < static_cast<int>(layers.size()) &&
                       first <= last,
                   "bad layer range [", first, ", ", last, "]");
    Bytes buffer = 0;
    for (int i = first; i <= last; ++i) {
        if (layers[i].kind == LayerKind::Attention ||
            layers[i].kind == LayerKind::FeedForward) {
            buffer = std::max(buffer, layers[i].memSavedAll());
        }
    }
    return buffer;
}

int
MemoryModel::inflightMicroBatches(int s, int p, int n)
{
    ADAPIPE_ASSERT(s >= 0 && s < p, "stage ", s, " out of range");
    // 1F1B keeps p - s micro-batches alive at stage s, capped by the
    // total number of micro-batches.
    return std::min(p - s, n);
}

} // namespace adapipe
