/**
 * @file
 * Host-staging tier of one pipeline stage worker.
 *
 * Offloaded checkpoint segments (autograd/checkpoint.h,
 * checkpointResident) are parked here after their forward pass. A
 * dedicated transfer thread evicts their interior activations to
 * host memory — releasing the device buffers to the tensor pool —
 * and prefetches them back shortly before the micro-batch's
 * backward, ordered by the worker's 1F1B device order (lowest
 * backward rank first). All graph access goes through
 * CheckpointHandle, whose per-segment mutex is held across a whole
 * transfer, so a backward racing a fetch either consumes the fully
 * restored graph or takes the recompute fallback; losses are
 * bit-identical either way, at any worker/virtual-stage/thread
 * count.
 */

#ifndef ADAPIPE_RUNTIME_HOST_STAGER_H
#define ADAPIPE_RUNTIME_HOST_STAGER_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "autograd/checkpoint.h"

namespace adapipe {

class HostStager
{
  public:
    struct Options
    {
        /**
         * Run every transfer inline on the calling (stage) thread
         * instead of the async transfer thread: fully deterministic
         * byte counters and fetch timing (tests / benches).
         */
        bool sync = false;
        /**
         * Test hook: never prefetch, so every offloaded backward
         * takes the fetch-miss recompute fallback. Combine with
         * sync to make the miss count exact (async eviction can
         * lose the race against a fast backward).
         */
        bool forceMiss = false;
    };

    explicit HostStager(const Options &opts);
    ~HostStager();

    HostStager(const HostStager &) = delete;
    HostStager &operator=(const HostStager &) = delete;

    /**
     * Park @p handles for the backward at device-order rank
     * @p bwd_rank and queue their eviction. No-op on an empty list.
     */
    void submitEvict(std::size_t bwd_rank,
                     std::vector<CheckpointHandle> handles);

    /**
     * The worker is about to run its op at device-order rank
     * @p op_rank: queue fetches for every parked micro-batch whose
     * backward rank is at most two ops ahead.
     */
    void advance(std::size_t op_rank);

    /** Backward at @p bwd_rank consumed its graph; drop the parked
     *  handles (queued transfers for them become no-ops). */
    void release(std::size_t bwd_rank);

    /** Block until every queued transfer ran (end of step). */
    void drain();

    /** Stop and join the transfer thread (idempotent; called by the
     *  destructor). Counters are stable afterwards. */
    void stop();

    /** @name Transfer totals — read after drain()/stop().
     *  Segments counted once per transfer that moved bytes. @{ */
    std::int64_t evictions() const;
    std::int64_t fetches() const;
    std::uint64_t bytesEvicted() const;
    std::uint64_t bytesFetched() const;
    /** @} */

  private:
    struct Job
    {
        bool evict = true;
        std::size_t rank = 0;
    };

    struct Parked
    {
        std::vector<CheckpointHandle> handles;
        bool fetchQueued = false;
    };

    void runJob(const Job &job);
    void drainInline();
    void threadMain();

    Options opts_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::deque<Job> jobs_;
    std::map<std::size_t, Parked> parked_;
    bool stop_ = false;
    int active_ = 0;
    std::int64_t evictions_ = 0;
    std::int64_t fetches_ = 0;
    std::uint64_t bytesEvicted_ = 0;
    std::uint64_t bytesFetched_ = 0;
    std::thread thread_;
};

} // namespace adapipe

#endif // ADAPIPE_RUNTIME_HOST_STAGER_H
