/**
 * @file
 * Seeded fault injection for the *real* multithreaded runtime — the
 * live-execution counterpart of the simulator's FaultSpec
 * (robust/fault_spec.h).
 *
 * A RuntimeFaultSpec describes per-worker slowdowns, transient op
 * stalls, delayed channel sends and a one-shot worker crash. All
 * randomness is counter-based (the same SplitMix64 hashing the
 * simulator uses, keyed by schedule coordinates), so a fixed seed
 * produces the identical fault firing sequence at any
 * intra-stage-thread count: every injector hook runs on the stage
 * worker thread, whose op order is fixed by the schedule.
 *
 * The injector is wired into PipelineRuntime worker loops behind a
 * null-pointer check — a run without a spec executes exactly the
 * pre-fault-injection code path (zero overhead when off).
 */

#ifndef ADAPIPE_RUNTIME_FAULT_INJECTOR_H
#define ADAPIPE_RUNTIME_FAULT_INJECTOR_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/fault_spec.h"
#include "util/json.h"
#include "util/parse_result.h"

namespace adapipe {

/**
 * One-shot worker crash: worker @ref worker throws (or silently
 * hangs) at global step @ref step after completing @ref afterOps ops
 * of that step.
 */
struct RuntimeCrash
{
    /** Worker index to kill, or -1 for no crash. */
    int worker = -1;
    /** Global step (RuntimeOptions::firstStep-based) of the crash. */
    int step = 0;
    /** Ops the worker completes within that step before crashing. */
    std::int64_t afterOps = 0;
    /**
     * Crash silently: park forever instead of throwing, the way a
     * dead device looks from the outside — nothing but silence.
     * Detectable only by the watchdog (runPipeline refuses a hang
     * crash without one, since nothing else could ever unblock the
     * run).
     */
    bool hang = false;
};

/** A complete, seeded runtime fault scenario. */
struct RuntimeFaultSpec
{
    /** Seed of all per-op draws (stalls and send-delay jitter). */
    std::uint64_t seed = 0;
    /** Straggling workers (DeviceSlowdown::device = worker index):
     *  every op on the worker takes factor times its measured time. */
    std::vector<DeviceSlowdown> slowdowns;
    /** Transient op stalls (same retry/backoff model as the sim). */
    TransientStalls stalls;
    /** Base injected delay before each cross-chunk send, in us. */
    double sendDelayUs = 0;
    /** Relative jitter on the send delay: each delayed send sleeps
     *  sendDelayUs * f with f drawn from [1, 1 + sendDelayJitter]. */
    double sendDelayJitter = 0;
    /** Optional one-shot worker crash. */
    RuntimeCrash crash;

    /** @return true when the spec injects no fault at all. */
    bool empty() const;
};

/** Thrown by the injector when the configured crash fires. */
class InjectedCrashError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** What an injected fault event did. */
enum class FaultEventKind {
    Stall,     ///< transient stall delay before an op
    Slowdown,  ///< straggler delay appended after an op
    SendDelay, ///< delayed channel send
    Crash,     ///< the one-shot crash fired
};

/** @return stable lowercase name of @p kind. */
const char *faultEventKindName(FaultEventKind kind);

/** One injected fault, identified by its schedule coordinates. */
struct FaultEvent
{
    FaultEventKind kind = FaultEventKind::Stall;
    int worker = 0;
    /** Chain position of the op (chunk index). */
    int pos = 0;
    /** Global step of the op. */
    int step = 0;
    int microBatch = 0;
    bool forward = true;
    /** Injected delay in microseconds. Deterministic for Stall and
     *  SendDelay; wall-clock-dependent for Slowdown (factor times
     *  the measured op time). */
    double us = 0;
};

/**
 * @return the event's seed-deterministic identity (kind + schedule
 * coordinates + the deterministic delay, excluding wall-clock-
 * dependent parts) — the string the determinism tests compare across
 * thread counts.
 */
std::string faultEventSignature(const FaultEvent &event);

/**
 * The runtime fault injector. One instance per run; every hook is
 * called on the owning worker's thread, and each worker writes only
 * its own pre-allocated event log, so the injector needs no locks.
 *
 * Injected sleeps are cancellation-aware: RunState::fail() calls
 * cancelSleeps(), which makes every pending (and future) injected
 * sleep throw ChannelClosedError so a long stall or a hang crash can
 * never wedge shutdown.
 */
class FaultInjector
{
  public:
    FaultInjector(const RuntimeFaultSpec &spec, int num_workers);

    /**
     * Hook before executing an op: applies the transient-stall delay
     * and fires the one-shot crash.
     *
     * @param ops_this_step ops the worker already completed within
     *        this step (the crash's afterOps coordinate)
     * @throws InjectedCrashError when the throw-crash fires
     * @throws ChannelClosedError from a cancelled sleep / hang
     */
    void beforeOp(int worker, int pos, int step, int micro_batch,
                  bool forward, std::int64_t ops_this_step);

    /**
     * Hook after executing an op: applies the straggler slowdown,
     * sleeping (factor - 1) times the measured op time.
     */
    void afterOp(int worker, int pos, int step, int micro_batch,
                 bool forward, double op_us);

    /** Hook before a cross-chunk send: applies the send delay. */
    void beforeSend(int worker, int pos, int step, int micro_batch,
                    bool forward);

    /**
     * Abort every pending injected sleep (they throw
     * ChannelClosedError). Called from RunState::fail(); idempotent
     * and callable from any thread.
     */
    void cancelSleeps();

    /**
     * Merged event log, sorted by (step, pos, microBatch, forward,
     * kind) — a deterministic order independent of worker count.
     * Call only after every worker joined.
     */
    std::vector<FaultEvent> events() const;

  private:
    void record(FaultEvent event);
    void sleepUs(double us);
    [[noreturn]] void hangUntilCancelled();

    RuntimeFaultSpec spec_;
    std::atomic<bool> cancelled_{false};
    /** Per-worker logs; only the owning worker thread appends. */
    std::vector<std::vector<FaultEvent>> perWorker_;
};

/** Serialize a runtime fault spec to JSON. */
JsonValue runtimeFaultSpecToJson(const RuntimeFaultSpec &spec);

/**
 * Recoverable parse of a runtime fault spec; errors name the
 * offending field (e.g. "runtime_fault.slowdowns[0].factor").
 */
ParseResult<RuntimeFaultSpec>
tryRuntimeFaultSpecFromJson(const JsonValue &json);

/** Recoverable parse from a JSON string (covers syntax errors). */
ParseResult<RuntimeFaultSpec>
tryRuntimeFaultSpecFromJsonString(const std::string &text);

/** Load a spec from a JSON file; errors name the path/field. */
ParseResult<RuntimeFaultSpec>
loadRuntimeFaultSpecFile(const std::string &path);

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_FAULT_INJECTOR_H
