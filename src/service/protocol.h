/**
 * @file
 * Wire protocol of the plan service.
 *
 * The service speaks newline-delimited JSON over a plain TCP stream:
 * one request object per line, one response object per line, in
 * order. Five request kinds:
 *
 *   {"kind": "plan",    "plan": {...}}            -> a pipeline plan
 *   {"kind": "explain", "plan": {...}}            -> per-stage table
 *   {"kind": "replan",  "plan": {...},
 *                       "fault": {...}}           -> degraded plan
 *   {"kind": "stats"}                             -> service counters
 *   {"kind": "shutdown"}                          -> orderly stop
 *
 * The "plan" object names a model/cluster preset and the training
 * configuration (see PlanRequest); "fault" mirrors the degraded
 * scenario of robust/replan.h. Responses always carry "ok" and
 * "kind"; failures carry "error" with a dotted field path rooted at
 * "service" (e.g. "service.plan.model: unknown model 'x'"), the same
 * diagnostic style as every other loader in the repo.
 *
 * Requests are normalised before fingerprinting: defaults are filled
 * in and the canonical (key-sorted) JSON form is hashed, so two
 * requests differing only in key order, whitespace or spelled-out
 * defaults share one cache entry.
 */

#ifndef ADAPIPE_SERVICE_PROTOCOL_H
#define ADAPIPE_SERVICE_PROTOCOL_H

#include <string>

#include "core/plan.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "model/parallel.h"
#include "robust/replan.h"
#include "util/json.h"
#include "util/parse_result.h"

namespace adapipe {

/** What a request asks the service to do. */
enum class RequestKind { Plan, Explain, Replan, Stats, Shutdown };

/** @return the wire name of @p kind ("plan", "explain", ...). */
const char *requestKindName(RequestKind kind);

/**
 * A planning problem: which model on which cluster under which
 * training configuration, planned how. Every field has a wire
 * default, so minimal requests stay short.
 */
struct PlanRequest
{
    /** Model preset: gpt3|llama2|gpt3-13b|gpt3-6.7b|llama2-13b|
     *  tiny-test. */
    std::string model = "gpt3-13b";
    /** Cluster preset: "a" (DGX-A100) or "b" (Atlas 800). */
    std::string clusterName = "a";
    /** Node count of the cluster. */
    int clusterNodes = 1;
    TrainConfig train;
    ParallelConfig par;
    /** Planning method (adapipe|even|dapple-full|dapple-non). */
    PlanMethod method = PlanMethod::AdaPipe;
    /** Schedule family: 1f1b | interleaved | best. */
    std::string scheduleFamily = "1f1b";
    /** Virtual stages per device (interleaved family only). */
    int virtualStages = 2;
    /** Device-memory fraction the planner may commit. */
    double memBudgetFraction = 0.875;
    /** Allow the tri-choice knapsack to host-offload activations. */
    bool offload = false;
    /** Host-link bandwidth, bytes/s (wire: offload.bandwidth). */
    double offloadBandwidth = 25.0e9;
    /** Transfer fraction hidden under compute, in [0, 1]. */
    double offloadOverlapFraction = 0.5;

    /** @return the named model preset; model must be valid. */
    ModelConfig modelConfig() const;
    /** @return the named cluster preset; clusterName must be valid. */
    ClusterSpec clusterSpec() const;
};

/**
 * One parsed request line.
 */
struct ServiceRequest
{
    RequestKind kind = RequestKind::Stats;
    /** Planning problem (Plan/Explain/Replan kinds). */
    PlanRequest plan;
    /** Degradation to replan for (Replan kind). */
    DegradedScenario fault;
};

/**
 * Parse and validate one request line. Unknown kinds, unknown
 * presets, non-positive sizes, indivisible batch configurations and
 * tensor sizes the presets cannot support are all reported here — a
 * request that parses can be planned without tripping a fatal
 * assertion further down.
 */
ParseResult<ServiceRequest>
tryServiceRequestFromJsonString(const std::string &line);

/**
 * Normalised JSON form of a plan request: every field emitted, wire
 * defaults filled in. Input to the request fingerprint.
 */
JsonValue planRequestToJson(const PlanRequest &request);

/**
 * Cache identity of a plan request: FNV-1a-64 of the canonical
 * (key-sorted, compact) dump of planRequestToJson(), as 16 lowercase
 * hex digits.
 */
std::string requestFingerprint(const PlanRequest &request);

/** @name Response builders (compact single-line JSON)
 *  @{
 */

/** Failure response: {"ok": false, "kind": ..., "error": ...}. */
std::string errorResponse(const std::string &kind,
                          const std::string &error);

/** Success envelope with "ok": true and "kind" preset; callers add
 *  payload fields then dump(0). */
JsonValue successEnvelope(const std::string &kind);

/** @} */

} // namespace adapipe

#endif // ADAPIPE_SERVICE_PROTOCOL_H
