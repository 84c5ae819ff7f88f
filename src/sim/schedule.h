/**
 * @file
 * Pipeline schedules: the op sets and per-device orders executed by
 * the simulator.
 *
 * A schedule is a set of forward/backward ops over (micro-batch,
 * chain position) pairs. Unidirectional schedules (GPipe, 1F1B) have
 * one chain whose position k runs on device k and come with a fixed
 * per-device execution order. Bidirectional schedules (Chimera,
 * ChimeraD) have two chains mapped to devices in opposite directions
 * and are ordered dynamically by the simulator's greedy scheduler,
 * which reproduces their characteristic behaviour: fewer bubbles
 * when n == p, concatenation bubbles when n > p, and doubled
 * parameter memory.
 */

#ifndef ADAPIPE_SIM_SCHEDULE_H
#define ADAPIPE_SIM_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/parse_result.h"

namespace adapipe {

/** Direction of one pipeline op. */
enum class OpKind { Forward, Backward };

/**
 * One forward or backward pass of one micro-batch at one pipeline
 * position.
 */
struct PipeOp
{
    /** Executing device. */
    int device = 0;
    /** Position along the op's chain (0 = first stage of chain). */
    int pos = 0;
    /** Chain id: 0 = down pipeline, 1 = up pipeline (Chimera). */
    int chain = 0;
    /** First micro-batch id covered by this op (chain-local). */
    int microBatch = 0;
    /** Micro-batches processed together (2 = forward doubling). */
    int samples = 1;
    OpKind kind = OpKind::Forward;
};

/**
 * A complete schedule of one training iteration.
 */
struct Schedule
{
    std::string name;
    /** Devices participating (= pipeline-parallel size). */
    int numDevices = 0;
    /**
     * Positions per chain. Equal to numDevices for the single-chunk
     * schedules (GPipe, 1F1B, Chimera variants); interleaved 1F1B
     * has chainLength = v * numDevices, position g on device
     * g % numDevices. Consumers must index per-position state
     * (stage times, PipeOp::pos) by chainLength and per-device state
     * by numDevices — the two only coincide when v = 1.
     */
    int chainLength = 0;
    /** Total micro-batches across chains. */
    int numMicroBatches = 0;
    /** Micro-batches per chain (index = chain id). */
    std::vector<int> chainMicroBatches;
    /** Chains duplicate model parameters on their devices. */
    int numChains = 1;
    /** All ops of the iteration. */
    std::vector<PipeOp> ops;
    /**
     * Fixed execution order per device as indices into @ref ops;
     * empty when the simulator should schedule greedily.
     */
    std::vector<std::vector<std::size_t>> deviceOrder;
    /**
     * Greedy priority: ops with smaller unit index are preferred
     * when several are ready (Chimera concatenates scheduling units
     * of p micro-batches). 0 for static schedules.
     */
    int unitSize = 0;
};

/** GPipe: all forwards, then all backwards (Fig. 2a). */
Schedule buildGPipe(int p, int n);

/** 1F1B / DAPPLE: warmup, steady one-forward-one-backward, ending
 *  (Fig. 2b). */
Schedule build1F1B(int p, int n);

/**
 * Megatron-LM's interleaved 1F1B: each device hosts v model chunks
 * (virtual stages), shrinking the bubble ratio by ~v at the cost of
 * more in-flight activations and communication (Sec. 2.1). The
 * chain has v*p positions; position g runs on device g % p.
 * Requires n % p == 0 when v > 1 (Megatron's constraint). With
 * v = 1 this is plain 1F1B.
 *
 * Invalid configurations (p, n or v < 1; n not divisible by p when
 * v > 1) come back as errors naming the offending field (pipeline /
 * micro_batches / virtual_stages) instead of aborting, so CLIs and
 * the planner can exit cleanly.
 *
 * @param p pipeline-parallel size (devices)
 * @param n micro-batches
 * @param v virtual chunks per device
 */
ParseResult<Schedule> tryBuildInterleaved1F1B(int p, int n, int v);

/**
 * Chimera: two bidirectional pipelines, micro-batches split evenly;
 * requires even p and even n.
 */
Schedule buildChimera(int p, int n);

/**
 * Chimera with forward doubling: forward passes process two
 * micro-batches back-to-back; requires even p and n divisible by 4.
 */
Schedule buildChimeraD(int p, int n);

} // namespace adapipe

#endif // ADAPIPE_SIM_SCHEDULE_H
