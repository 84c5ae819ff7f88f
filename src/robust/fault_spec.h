/**
 * @file
 * Deterministic fault-injection specification for the simulator.
 *
 * A FaultSpec describes a reproducible fault scenario: per-device
 * slowdown factors (stragglers), transient op stalls with
 * retry/backoff delay modelling and an optional hard device failure
 * at a given time.
 *
 * All randomness is *counter-based*: every draw hashes the spec's
 * seed together with a stable op identity (SplitMix64-style
 * finalizers), so a fixed seed produces bit-for-bit identical fault
 * realisations regardless of evaluation order, simulator mode or
 * thread count. The runtime's injector (runtime/fault_injector.h)
 * draws through the same free functions below.
 */

#ifndef ADAPIPE_ROBUST_FAULT_SPEC_H
#define ADAPIPE_ROBUST_FAULT_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/parse_result.h"
#include "util/units.h"

namespace adapipe {

/** A straggling device: every op on it runs @ref factor times slower. */
struct DeviceSlowdown
{
    int device = 0;
    /** Duration multiplier, >= 1 for a straggler. */
    double factor = 1.0;
};

/**
 * Transient op stalls. Each execution attempt of an op fails
 * independently with @ref probability; a failed attempt costs one
 * backoff delay (base * 2^attempt) before the retry. After
 * @ref maxRetries failed attempts the op proceeds anyway (the real
 * system would escalate; the simulator only models the lost time).
 */
struct TransientStalls
{
    /** Per-attempt stall probability in [0, 1). */
    double probability = 0.0;
    /** Backoff base delay for the first retry. */
    Seconds base = 0.0;
    /** Maximum number of backoff rounds per op. */
    int maxRetries = 3;
};

/** Hard failure: @ref device starts nothing at or after @ref at. */
struct DeviceFailure
{
    /** Failed device id, or -1 for no failure. */
    int device = -1;
    /** Time of failure (seconds into the iteration). */
    Seconds at = 0.0;
};

/**
 * Counter-based uniform draw in [0, 1) from (@p seed, @p id,
 * @p stream): the same arguments give the same double everywhere.
 */
double faultUniform(std::uint64_t seed, std::uint64_t id,
                    std::uint64_t stream);

/** @return product of the @p slowdowns factors listed for @p device
 *  (1.0 when healthy). */
double slowdownFactor(const std::vector<DeviceSlowdown> &slowdowns,
                      int device);

/**
 * Total retry/backoff delay @p stalls charge to the op identified by
 * @p opId. Deterministic in (seed, opId).
 */
Seconds stallDelay(const TransientStalls &stalls, std::uint64_t seed,
                   std::uint64_t opId);

/**
 * A complete, seeded fault scenario.
 */
struct FaultSpec
{
    /** Seed of all per-op draws (stalls). */
    std::uint64_t seed = 0;
    /** Straggling devices. */
    std::vector<DeviceSlowdown> slowdowns;
    /** Transient stall model. */
    TransientStalls stalls;
    /** Optional hard device failure. */
    DeviceFailure failure;
};

/**
 * Stable 64-bit identity for an op, built from its schedule
 * coordinates rather than its array index so draws survive
 * re-orderings of the op list.
 */
std::uint64_t faultOpId(int chain, int pos, int micro_batch,
                        bool forward);

/** Serialize a fault spec to JSON. */
JsonValue faultSpecToJson(const FaultSpec &spec);

/**
 * Recoverable parse of a fault spec; errors name the offending
 * field (e.g. "fault.slowdowns[0].factor").
 */
ParseResult<FaultSpec> faultSpecFromJson(const JsonValue &json);

/** Recoverable parse from a JSON string (covers syntax errors). */
ParseResult<FaultSpec> faultSpecFromJsonString(const std::string &text);

/** Load a fault spec from a JSON file; errors name the path/field. */
ParseResult<FaultSpec> loadFaultSpecFile(const std::string &path);

} // namespace adapipe

#endif // ADAPIPE_ROBUST_FAULT_SPEC_H
