/**
 * @file
 * Request handlers of the plan service (transport-independent).
 *
 * PlanService turns one request line into one response line; the TCP
 * server (server.h) and the in-process tests call the same
 * handleLine(). State shared across requests:
 *
 *  - a PlanCache of fully rendered response lines keyed by the
 *    canonical request fingerprint (warm requests return the exact
 *    bytes the cold request produced), plus optional on-disk plan
 *    documents surviving restarts;
 *  - a KnapsackMemo threaded into every StageCostCalculator through
 *    StageCostOptions, so sweeps and fault-report series revisiting
 *    identical (stage size, memory budget) subproblems skip the DP.
 *
 * handleLine() is safe to call from many threads at once: the cache
 * and memo lock internally, planning itself is pure, and counters are
 * atomics. Two concurrent cold requests for one fingerprint may both
 * plan — the planner is deterministic, so the duplicate insert is
 * byte-identical and harmless.
 */

#ifndef ADAPIPE_SERVICE_HANDLERS_H
#define ADAPIPE_SERVICE_HANDLERS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/knapsack_memo.h"
#include "service/plan_cache.h"
#include "service/protocol.h"

namespace adapipe {

/** Service configuration. */
struct PlanServiceOptions
{
    /** Response-cache byte budget (keys + values). */
    std::size_t cacheBytes = std::size_t{64} << 20;
    /** Plan-document persistence directory; empty = memory only. */
    std::string persistDir;
};

/**
 * The plan service: parse, dispatch, cache.
 */
class PlanService
{
  public:
    explicit PlanService(PlanServiceOptions opts = {});

    /**
     * Handle one request line (no trailing newline required) and
     * return the single-line JSON response. Never throws and never
     * terminates the process on bad input.
     */
    std::string handleLine(const std::string &line);

    /** @return whether a shutdown request has been handled. */
    bool
    shutdownRequested() const
    {
        return shutdown_.load(std::memory_order_acquire);
    }

    /** Shared knapsack memo (exposed for tests and stats). */
    KnapsackMemo &memo() { return memo_; }

    /** Response cache (exposed for tests and stats). */
    PlanCache &cache() { return cache_; }

  private:
    /** The cold handlers take the request's fingerprint @p fp,
     *  computed once by handleLine(); handleExplain() caches its
     *  response under @p key, handleReplan() caches none. */
    std::string handleExplain(const PlanRequest &request,
                              const std::string &fp,
                              const std::string &key);
    std::string handleReplan(const PlanRequest &request,
                             const DegradedScenario &fault,
                             const std::string &fp);
    std::string handleStats();

    /**
     * The healthy plan of @p request, whose fingerprint is @p fp,
     * through the cache: a cached response line or persisted
     * document is parsed back, a miss plans cold and populates both.
     * Returns the response line via @p response when non-null.
     * @return ok=false with oomReason on infeasible configurations
     */
    PlanResult basePlan(const PlanRequest &request,
                        const std::string &fp, std::string *response);

    /** Solve the request with the configured schedule family. */
    PlanResult solve(const PlanRequest &request);

    /** Record one request latency. */
    void recordLatency(double us, bool warm);

    PlanServiceOptions opts_;
    PlanCache cache_;
    KnapsackMemo memo_;
    std::atomic<bool> shutdown_{false};

    std::atomic<std::int64_t> requests_{0};
    std::atomic<std::int64_t> plan_requests_{0};
    std::atomic<std::int64_t> explain_requests_{0};
    std::atomic<std::int64_t> replan_requests_{0};
    std::atomic<std::int64_t> stats_requests_{0};
    std::atomic<std::int64_t> errors_{0};

    std::mutex latency_mutex_;
    std::vector<double> cold_us_;
    std::vector<double> warm_us_;
};

} // namespace adapipe

#endif // ADAPIPE_SERVICE_HANDLERS_H
