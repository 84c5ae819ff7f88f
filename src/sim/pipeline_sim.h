/**
 * @file
 * Event-driven execution of pipeline schedules.
 *
 * The simulator plays a Schedule against per-stage forward/backward
 * durations, honouring data dependencies (a forward needs the
 * previous position's forward of the same micro-batch, a backward
 * needs the next position's backward and its own forward) and device
 * exclusivity. The durations already carry each stage-boundary
 * transfer, so an op is ready when its latest dependency ends. Static
 * schedules execute their per-device order verbatim; bidirectional
 * schedules are ordered greedily (earliest-start, then scheduling
 * unit, backward first).
 *
 * This is the "execution engine" stand-in: iteration times reported
 * by the paper's measurements correspond to this simulation, while
 * the Sec. 5.1 closed form corresponds to core/cost_model.h. Tests
 * verify the two agree for 1F1B.
 */

#ifndef ADAPIPE_SIM_PIPELINE_SIM_H
#define ADAPIPE_SIM_PIPELINE_SIM_H

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "robust/fault_spec.h"
#include "sim/schedule.h"
#include "util/units.h"

namespace adapipe {

/** Scheduled execution of one op. */
struct OpRecord
{
    Seconds start = -1;
    Seconds end = -1;

    bool done() const { return end >= 0; }
};

/**
 * Result of simulating one iteration.
 */
struct SimResult
{
    std::string scheduleName;
    /** Completion time of the last op. */
    Seconds iterationTime = 0;
    /** Start/end per op, parallel to Schedule::ops. */
    std::vector<OpRecord> records;
    /** Busy time per device. */
    std::vector<Seconds> deviceBusy;
    /** Last op end per device. */
    std::vector<Seconds> deviceFinish;
    /**
     * Peak number of micro-batch activations alive per device (from
     * the end of a micro-batch's forward to the end of its
     * backward). For 1F1B at stage s this is exactly p - s.
     */
    std::vector<int> peakAlive;
    /**
     * False when a hard device failure left ops unexecuted; the
     * iteration never finishes and iterationTime covers only the ops
     * that did run.
     */
    bool completed = true;
    /** Device whose failure stopped the iteration, or -1. */
    int failedDevice = -1;
    /** Total retry/backoff delay injected by transient stalls. */
    Seconds stallTime = 0;

    /** @return idle time inside the device's active span. */
    Seconds bubbleTime(int device) const;

    /** @return total bubble time across devices. */
    Seconds totalBubbleTime() const;
};

/**
 * Simulate @p sched.
 *
 * @param sched schedule to execute
 * @param stage_times F/B durations indexed by chain position (all
 *        chains share the same per-position times; bidirectional
 *        schedules use the baseline even partition where this holds)
 * @param faults fault scenario to inject (slowdowns, stalls, hard
 *        failure); the default spec injects nothing. All draws are
 *        counter-based on FaultSpec::seed, so a fixed seed yields a
 *        bit-for-bit identical simulation on every run.
 */
SimResult simulate(const Schedule &sched,
                   const std::vector<StageTimes> &stage_times,
                   const FaultSpec &faults = {});

} // namespace adapipe

#endif // ADAPIPE_SIM_PIPELINE_SIM_H
