/**
 * @file
 * Versioned training-state snapshots for the pipeline runtime.
 *
 * A snapshot carries everything a bit-exact resume needs: the model
 * configuration, every parameter tensor in canonical
 * TinyLM::params() order, the Adam moments plus bias-correction step
 * counter, the data-stream seed and the number of completed
 * optimizer steps. The data stream itself is counter-based
 * (makeBigramBatch hashes the global step), so restoring the step
 * counter restores the stream — a run killed at iteration k and
 * restored finishes with losses bit-identical to an uninterrupted
 * run, on any stage partition.
 *
 * File format (native-endian):
 *
 *   ADAPIPESNAP1\n
 *   <header_len decimal>\n
 *   <header JSON, exactly header_len bytes>
 *   <blob: blob_floats * 4 bytes of raw float32>
 *
 * The JSON header (parsed through the repo's JSON layer, so
 * duplicate keys and malformed text produce field-path diagnostics)
 * lists tensor shapes in blob order and an FNV-1a-64 checksum of the
 * blob. Writes are crash-consistent: the bytes go to "<path>.tmp"
 * and are renamed over the target only when complete, so a crash
 * mid-write never clobbers the previous snapshot.
 */

#ifndef ADAPIPE_RUNTIME_SNAPSHOT_H
#define ADAPIPE_RUNTIME_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/module.h"
#include "autograd/optim.h"
#include "util/parse_result.h"

namespace adapipe {

/** Snapshot-writing configuration (RuntimeOptions::snapshot). */
struct SnapshotOptions
{
    /** Write a snapshot every N completed steps (0 = disabled). */
    int every = 0;
    /** Target file path (required when every > 0). */
    std::string path;
};

/** Complete training state at an iteration boundary. */
struct TrainingSnapshot
{
    /** Format version; currently always 1. */
    int version = 1;
    /** Model architecture + init seed the parameters belong to. */
    TinyLmConfig config;
    /** Completed optimizer steps (the resume offset). */
    std::int64_t step = 0;
    /** Seed of the bigram data stream. */
    std::uint64_t dataSeed = 0;
    /** Adam bias-correction step counter. */
    int adamT = 0;
    /** Parameter values in canonical TinyLM::params() order. */
    std::vector<Tensor> params;
    /** Adam first moments, same order. */
    std::vector<Tensor> adamM;
    /** Adam second moments, same order. */
    std::vector<Tensor> adamV;
};

/** Serialize to the on-disk byte format. */
std::string snapshotToBytes(const TrainingSnapshot &snap);

/**
 * Parse snapshot bytes. Truncation, version skew, an optimizer other
 * than adam, malformed or duplicate-key headers, shape/blob-length
 * mismatches and checksum failures all come back as errors naming the
 * offending field — never a crash, never silently loaded garbage.
 */
ParseResult<TrainingSnapshot>
snapshotFromBytes(const std::string &bytes);

/** Write crash-consistently (tmp + rename). */
ParseStatus writeSnapshotFile(const std::string &path,
                              const TrainingSnapshot &snap);

/** Load and validate a snapshot file. */
ParseResult<TrainingSnapshot>
loadSnapshotFile(const std::string &path);

/**
 * Capture the full training state of @p model.
 *
 * @param optimizers the per-worker optimizers owning disjoint
 *        parameter subsets (any entry may be null); moments of
 *        parameters owned by no optimizer stay zero
 * @param step completed optimizer steps
 * @param data_seed data-stream seed
 */
TrainingSnapshot
captureTrainingSnapshot(const TinyLM &model,
                        const std::vector<const Adam *> &optimizers,
                        std::int64_t step, std::uint64_t data_seed);

/**
 * Copy the snapshot's parameter values into @p model. Fails (without
 * touching the model) when the snapshot's config or parameter shapes
 * do not match.
 */
ParseStatus restoreTinyLM(TinyLM &model,
                          const TrainingSnapshot &snap);

/**
 * Restore @p adam's moments and step counter from the snapshot for
 * the parameters the optimizer owns (matched by identity against
 * @p model's canonical parameter list).
 */
ParseStatus restoreAdamState(Adam &adam, const TinyLM &model,
                             const TrainingSnapshot &snap);

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_SNAPSHOT_H
