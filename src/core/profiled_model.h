/**
 * @file
 * The profiled model: layer sequence with hardware-resolved unit
 * costs, the single input of both DP levels.
 */

#ifndef ADAPIPE_CORE_PROFILED_MODEL_H
#define ADAPIPE_CORE_PROFILED_MODEL_H

#include <cstdint>
#include <vector>

#include "hw/cluster.h"
#include "hw/profile_io.h"
#include "hw/profiler.h"
#include "memory/memory_model.h"
#include "model/model_config.h"
#include "model/parallel.h"
#include "model/units.h"
#include "util/units.h"

namespace adapipe {

/**
 * One layer with profiled units.
 */
struct ProfiledLayer
{
    LayerKind kind = LayerKind::Attention;
    int index = 0;
    /** Unsharded parameter count. */
    std::uint64_t params = 0;
    std::vector<UnitProfile> units;

    /** @return summed forward time of all units. */
    Seconds timeFwdAll() const;
    /** @return summed backward time of all units (no recompute). */
    Seconds timeBwdAll() const;
    /** @return summed saved bytes with everything saved. */
    Bytes memSavedAll() const;
    /** @return summed saved bytes of always-saved units only. */
    Bytes memAlwaysSaved() const;
    /** @return summed forward time of recomputable units. */
    Seconds timeFwdRecomputable() const;
};

/**
 * Fully profiled model for one (model, train, parallel, cluster)
 * combination. Owns the raw layer sequence too so memory accounting
 * can reuse it.
 */
struct ProfiledModel
{
    ModelConfig model;
    TrainConfig train;
    ParallelConfig par;
    /** Raw per-rank workloads (for memory accounting). */
    std::vector<Layer> rawLayers;
    /** Hardware-resolved layer costs. */
    std::vector<ProfiledLayer> layers;
    /** Residual activation bytes crossing a stage boundary. */
    Bytes stageInputBytes = 0;
    /** Point-to-point transfer time of one boundary activation. */
    Seconds p2pTime = 0;
    /** Effective bandwidth of the inter-stage path, bytes/s. */
    double p2pBandwidth = 0;
    /** Usable device memory per rank (capacity minus reserve). */
    Bytes memCapacity = 0;

    /** @return number of partitionable layers. */
    int numLayers() const { return static_cast<int>(layers.size()); }

    /** @return summed unsharded params of layers [first, last]. */
    std::uint64_t rangeParams(int first, int last) const;
};

/**
 * Build a profiled model: construct the layer sequence, run the
 * analytic profiler over every unit and precompute the boundary
 * transfer cost.
 */
ProfiledModel buildProfiledModel(const ModelConfig &model,
                                 const TrainConfig &train,
                                 const ParallelConfig &par,
                                 const ClusterSpec &cluster);

/**
 * Extract the model's unit-cost table (for saving with
 * hw/profile_io and editing or replacing offline).
 */
ProfileTable extractProfileTable(const ProfiledModel &pm);

/**
 * Replace the model's unit costs with @p table — the
 * "bring your own measurements" path standing in for the paper's
 * 5-10-iteration cluster profiling. Layer/unit structure and names
 * must match the model exactly; mismatches are fatal so stale
 * tables fail loudly. Use tryApplyProfileTable for user-supplied
 * tables.
 */
void applyProfileTable(ProfiledModel &pm, const ProfileTable &table);

/**
 * Recoverable variant of applyProfileTable: structure mismatches are
 * reported as an error naming the offending layer/unit, and @p pm is
 * left untouched on failure.
 */
ParseStatus tryApplyProfileTable(ProfiledModel &pm,
                                 const ProfileTable &table);

} // namespace adapipe

#endif // ADAPIPE_CORE_PROFILED_MODEL_H
