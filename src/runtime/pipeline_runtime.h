/**
 * @file
 * Multithreaded pipeline-parallel executor for the tiny LM: the
 * repo's execution backend, closing the loop the paper closes with
 * cluster measurements.
 *
 * One worker thread per pipeline device. Each worker hosts
 * virtualStages model chunks (Megatron's interleaved 1F1B; 1 chunk =
 * plain 1F1B): chunk g of the chain runs on worker g % workers, owns
 * a contiguous block range of a shared TinyLM (chunk 0 additionally
 * owns the embedding, the last chunk the head + loss), follows the
 * worker's op order from sim/schedule, and exchanges
 * activation/gradient tensors with the adjacent chunks over bounded
 * channels (runtime/channel.h) whose blocking send models the
 * activation-memory cap. Per-unit recompute decisions apply through
 * autograd/checkpoint, so saved units keep their tensors and
 * recomputed units replay forward during backward.
 *
 * Determinism: chunk boundaries detach activations into fresh leaf
 * variables, and boundary gradients add back exactly the floats the
 * monolithic graph would have propagated, so a pipeline run computes
 * bit-identical losses to trainTinyLM with the same seed, recompute
 * modes and micro-batch count — for any stage count and any
 * virtual-stage count (both the forward losses and the backward
 * gradient accumulation visit micro-batches in the same order the
 * single-threaded trainer does). That is the paper's Fig. 10
 * invariant, measured instead of assumed.
 *
 * Failure handling: a worker that throws (autograd error, injected
 * fault) marks the run failed and closes every channel, so peers
 * blocked in send()/recv() unwind via ChannelClosedError instead of
 * deadlocking in join(); the first failure's diagnostic comes back
 * in RuntimeResult::error.
 */

#ifndef ADAPIPE_RUNTIME_PIPELINE_RUNTIME_H
#define ADAPIPE_RUNTIME_PIPELINE_RUNTIME_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "autograd/module.h"
#include "obs/registry.h"
#include "runtime/fault_injector.h"
#include "runtime/snapshot.h"
#include "runtime/watchdog.h"

namespace adapipe {

/**
 * One pipeline stage's share of the model.
 */
struct StageSpec
{
    /** First owned transformer block (inclusive). */
    int firstBlock = 0;
    /** Last owned transformer block (inclusive); < firstBlock means
     *  the stage owns no blocks (pure relay / embedding / head). */
    int lastBlock = -1;
    /** Stage runs the embedding (must be stage 0). */
    bool embedding = false;
    /** Stage runs final norm + head + loss (must be the last stage). */
    bool head = false;
    /** Per-owned-block recompute mode (empty = None for all). */
    std::vector<BlockRecompute> recompute;
    /**
     * Per-owned-block host-offload flag (empty = none), parallel to
     * @ref recompute. An offloaded block runs as a resident
     * checkpoint whose interior activations the worker's host stager
     * evicts after forward and prefetches before backward; the flag
     * overrides the block's recompute mode (an offloaded block is
     * neither kept on device nor eagerly recomputed).
     */
    std::vector<bool> offload;

    /** @return number of owned blocks. */
    int
    numBlocks() const
    {
        return lastBlock < firstBlock ? 0 : lastBlock - firstBlock + 1;
    }
};

/** @return owned block @p i's action: "offload" when host-staged,
 *  else its recomputeStrategyTable() key ("none" where an empty
 *  recompute vector leaves it uncovered). */
const char *blockActionKey(const StageSpec &spec, int i);

/** @return the per-block modes (chain order) under which trainTinyLM
 *  reproduces a run of @p specs bit for bit: a host-staged block
 *  computes a kept block's floats, so it maps to None. */
std::vector<BlockRecompute>
referenceRecompute(const std::vector<StageSpec> &specs);

/** Runtime execution options. */
struct RuntimeOptions
{
    /** Optimizer steps (iterations). */
    int steps = 20;
    /** Tokens per micro-batch. */
    int seqLen = 32;
    /** Micro-batches n per iteration (gradients averaged). */
    int microBatches = 4;
    /** Adam learning rate (every worker steps with Adam). */
    float lr = 4e-3f;
    /** Seed of the bigram data stream (independent of model init). */
    std::uint64_t dataSeed = 7;
    /**
     * Bounded-channel depth per pipeline edge. 1 is the tightest
     * memory cap (sender stalls until the neighbour consumed the
     * previous tensor); larger values trade memory for slack. With
     * virtualStages > 1 the effective depth is at least
     * microBatches: the interleaved op order revisits a chunk's
     * sends before draining its neighbour, so a tighter bound could
     * deadlock; one step never queues more than microBatches tensors
     * per edge, so that depth restores pure dependency-driven
     * blocking.
     */
    int channelCapacity = 2;
    /**
     * Model chunks per worker (Megatron's interleaved 1F1B). The
     * stage-spec vector must hold virtualStages * workers entries in
     * chain order; chunk g runs on worker g % workers. Requires
     * microBatches % workers == 0 when > 1 (Megatron's constraint) —
     * violations fail the run gracefully, not fatally.
     */
    int virtualStages = 1;
    /**
     * Backward-engine workers per stage (intra-stage parallelism).
     * Each stage worker owns a BackwardEngine with this many
     * threads (itself included); 1 keeps backward fully inline on
     * the stage thread. The engine's deterministic reduction makes
     * losses bit-identical across every value of this knob, so it
     * trades wall clock only — never reproducibility. Helpers charge
     * the stage worker's activation meter, so per-stage
     * peakActivationFloats stays exact at any value.
     */
    int intraStageThreads = 1;
    /**
     * Overlapped checkpoint replay: while a worker is blocked in a
     * channel wait (recv starvation or send backpressure), it issues
     * the forward replay of recomputed units whose forward already
     * ran but whose backward has not, ordered by the 1F1B device
     * order (nearest backward first), so the recomputed activations
     * are warm by backward time. Replay is a pure function of the
     * saved boundary input and the parameters — both constant within
     * a step — so losses stay bit-identical to lazy replay at any
     * virtualStages / intraStageThreads setting; the knob trades
     * activation-memory residency for critical-path replay time.
     */
    bool overlapReplay = false;
    /**
     * Test hook (requires overlapReplay): warm *all* pending replays
     * at the start of every channel wait instead of one per idle
     * tick. This makes the warm firing order a pure function of the
     * schedule (no timing dependence), which is what the overlap
     * determinism test pins down via StageMetrics::overlapFirings.
     */
    bool overlapDrainAll = false;
    /**
     * Host staging (activation offload): any block flagged in
     * StageSpec::offload starts a per-worker HostStager that evicts
     * the block's activations to host as soon as the block's forward
     * ends and fetches them back just before the micro-batch's
     * backward (see runtime/host_stager.h). A fetch that misses its
     * deadline falls back to a recompute replay, so losses stay
     * bit-identical to every other configuration. offloadSync runs
     * transfers inline on the stage thread (deterministic byte
     * counters and fetch timing; test/bench hook).
     */
    bool offloadSync = false;
    /** Test hook: never fetch, so every offloaded backward takes
     *  the fetch-miss recompute fallback (combine with offloadSync
     *  for an exact miss count). */
    bool offloadForceMiss = false;
    /**
     * Global step of the run's first iteration (resume offset). The
     * data stream, the fault injector and the snapshot cadence are
     * all keyed by the global step firstStep + local step, so a run
     * restored from a step-k snapshot consumes exactly the batches
     * (and faults) the uninterrupted run would have from step k on.
     */
    int firstStep = 0;
    /**
     * Runtime fault scenario to inject (nullptr / empty spec = the
     * unhooked fast path). Borrowed for the duration of the run.
     */
    const RuntimeFaultSpec *faults = nullptr;
    /** Watchdog/heartbeat configuration (disabled by default). */
    WatchdogOptions watchdog;
    /** Training-state snapshot cadence (disabled by default). */
    SnapshotOptions snapshot;
    /**
     * Snapshot to resume from (nullptr = fresh start): parameters
     * are restored before workers launch and each worker's Adam
     * moments/step counter before its first step. Borrowed for the
     * duration of the run. Combine with firstStep = restore->step.
     */
    const TrainingSnapshot *restore = nullptr;
};

/** How a failed run failed (RuntimeResult::failureKind). */
enum class RuntimeFailureKind {
    None,        ///< the run succeeded
    WorkerError, ///< a worker threw (autograd error, injected crash)
    WatchdogStall, ///< the watchdog detected a silent worker
};

/**
 * Measured execution statistics of one chain position (one stage for
 * virtualStages = 1, one model chunk otherwise).
 */
struct StageMetrics
{
    /** Chain position g; runs on worker g % workers. */
    int chainPos = 0;
    int firstBlock = 0;
    int lastBlock = -1;
    bool embedding = false;
    bool head = false;
    /** Forward / backward micro-batch ops executed. */
    std::int64_t fwdOps = 0;
    std::int64_t bwdOps = 0;
    /** Summed compute time inside forward / backward ops. */
    double fwdSeconds = 0;
    /**
     * Summed wall time inside backward ops (the engine run). Lazy
     * checkpoint replays fire inside the engine, so this still
     * *contains* their time; use bwdComputeSeconds() for the
     * replay-free backward compute — reporting the raw timer as
     * "backward" double-counts replayCriticalSeconds().
     */
    double bwdSeconds = 0;
    /** Checkpoint replays executed for this chunk (warm + lazy). */
    std::int64_t replayOps = 0;
    /**
     * Summed forward-replay time, warm + lazy. The lazy share is the
     * "checkpoint.replay_us" counter delta around this chunk's
     * backwards (counted with obs off too); the warm share is
     * wall-clocked directly and charged to the chunk that owns it.
     */
    double replaySeconds = 0;
    /** Replays issued early inside channel-wait bubbles (overlap). */
    std::int64_t replayHiddenOps = 0;
    /** Replay time hidden inside channel-wait bubbles. */
    double replayHiddenSeconds = 0;
    /** Time blocked sending into a full channel (backpressure).
     *  Replay warmed during the wait counts as compute, not wait. */
    double sendBlockedSeconds = 0;
    /** Time blocked waiting for inputs (starvation / bubbles).
     *  Replay warmed during the wait counts as compute, not wait. */
    double recvWaitSeconds = 0;
    /**
     * Peak activation floats of the owning worker (its engine helpers
     * and its host stager charge the worker's meter); worker-level,
     * so with virtualStages > 1 it is attributed to the worker's
     * first chunk (chainPos < workers) and 0 elsewhere.
     * replayOps / replaySeconds are exact per chunk.
     */
    std::int64_t peakActivationFloats = 0;
    /** Offloaded segments staged to host by the owning worker's
     *  stager (worker-level; attributed to the worker's first chunk
     *  like peakActivationFloats). */
    std::int64_t offloadEvictions = 0;
    /** Offloaded segments fetched back before their backward
     *  (worker-level, first chunk). */
    std::int64_t offloadFetches = 0;
    /** Backwards that found their activations still on host and fell
     *  back to a recompute replay (exact per chunk). */
    std::int64_t offloadFetchMisses = 0;
    /** Bytes staged to host by the owning worker (first chunk). */
    std::uint64_t offloadBytesEvicted = 0;
    /** Bytes fetched back from host (first chunk). */
    std::uint64_t offloadBytesFetched = 0;
    /**
     * Warm firing log of the owning worker (attributed to its first
     * chunk like peakActivationFloats): one entry per warmed unit,
     * encoded pos * 1000000 + microBatch * 1000 + unitIndex, in
     * firing order. With RuntimeOptions::overlapDrainAll the log is
     * a pure function of the schedule; without it, the count per
     * bubble is timing-dependent (the order still follows the device
     * order's next-backward-first rule).
     */
    std::vector<std::int64_t> overlapFirings;

    /** @return replay time left on the backward critical path. */
    double
    replayCriticalSeconds() const
    {
        return std::max(0.0, replaySeconds - replayHiddenSeconds);
    }

    /** @return backward compute with critical replay metered out. */
    double
    bwdComputeSeconds() const
    {
        return std::max(0.0, bwdSeconds - replayCriticalSeconds());
    }

    /** @return number of owned blocks. */
    int numBlocks() const { return std::max(0, lastBlock - firstBlock + 1); }
};

/** Unit of a per-stage measurement; Floats are activation floats. */
enum class StageUnit { Microseconds, Floats, Bytes, Count };

/** One per-stage measurement: the gauge
 *  "runtime.stage.<s>[.chunk.<c>].<suffix>" and the row of that name
 *  in pipeline_training's table, both read through @ref value. */
struct StageField
{
    const char *suffix;
    StageUnit unit;
    double (*value)(const StageMetrics &);
};

/** @return every per-stage measurement, in table order. A new one is
 *  one more entry here plus its row in docs/observability.md. */
std::span<const StageField> stageFields();

/** Result of one pipeline training run. */
struct RuntimeResult
{
    /**
     * False when a worker failed (or the configuration was invalid);
     * @ref error carries the first failure's diagnostic and the
     * other fields hold whatever completed before shutdown.
     */
    bool ok = true;
    /** First failure diagnostic, naming the worker that died. */
    std::string error;
    /** How the run failed (None when ok). */
    RuntimeFailureKind failureKind = RuntimeFailureKind::None;
    /** Worker the first failure was attributed to (-1 when ok or not
     *  attributable to a worker). */
    int failedWorker = -1;
    /** Watchdog detections only: how long the stalled worker had
     *  been silent when it was reported (the detection latency). */
    double detectSeconds = 0;
    /** Injected fault events, merged over workers in deterministic
     *  (step, pos, microBatch, forward, kind) order. Empty without a
     *  fault spec. */
    std::vector<FaultEvent> faultEvents;
    /** Mean micro-batch loss per step (recorded by the last stage). */
    std::vector<double> losses;
    /** Per-chain-position measurements, position 0 first (one per
     *  stage when virtualStages == 1, one per chunk otherwise). */
    std::vector<StageMetrics> stages;
    /** End-to-end wall time of the run. */
    double wallSeconds = 0;
    /** Process-wide peak activation floats over the run. */
    std::int64_t peakActivationFloats = 0;

    /** @return mean wall time of one optimizer step. */
    double stepSeconds(int steps) const
    {
        return steps > 0 ? wallSeconds / steps : 0;
    }
};

/**
 * Uniform baseline partition: split @p num_blocks blocks over
 * @p num_stages stages (earlier stages take the remainder), with
 * @p mode applied to every block. Stage 0 gets the embedding, the
 * last stage the head.
 */
std::vector<StageSpec> evenStageSpecs(int num_blocks, int num_stages,
                                      BlockRecompute mode);

/**
 * Train @p model with one worker thread per device.
 *
 * @p stages holds one entry per chain position (stage for
 * virtualStages = 1, chunk otherwise; opts.virtualStages * workers
 * entries, chunk g on worker g % workers). Coverage must be
 * contiguous over all blocks in chain order, with the embedding on
 * position 0 and the head on the last position. Parameters are
 * updated by the owning worker only; the model is safe to read from
 * the caller after the run.
 *
 * A failing worker closes every channel so its peers unwind instead
 * of deadlocking; the run returns ok = false with the first
 * failure's diagnostic. Invalid interleaved configurations
 * (microBatches not divisible by workers) fail the same way.
 *
 * @param model the (already initialised) model; updated in place
 * @param stages per-position ownership and recompute decisions
 * @param opts execution options
 * @param metrics optional registry receiving the merged per-worker
 *        counters/gauges/spans (merge-on-join; deterministic order).
 *        Gauges are per stage ("runtime.stage.<r>.*") when
 *        virtualStages == 1 and per chunk
 *        ("runtime.stage.<r>.chunk.<c>.*") otherwise. Per-op spans
 *        land on the shared obs timeline, directly comparable to the
 *        simulator's Chrome traces.
 */
RuntimeResult runPipeline(TinyLM &model,
                          const std::vector<StageSpec> &stages,
                          const RuntimeOptions &opts,
                          obs::Registry *metrics = nullptr);

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_PIPELINE_RUNTIME_H
