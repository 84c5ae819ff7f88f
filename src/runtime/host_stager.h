/**
 * @file
 * Host-staging tier of one pipeline stage worker.
 *
 * Offloaded checkpoint segments (autograd/checkpoint.h,
 * checkpointResident) are parked here as soon as their block's
 * forward ends, and a dedicated transfer thread evicts their interior
 * activations to host memory, releasing the device buffers to the
 * tensor pool. They come back just before the micro-batch's
 * backward: on the transfer thread while the forward right before
 * that backward in the worker's device order runs, and otherwise
 * inline on the worker at the backward's own start (after the
 * previous backward dropped its graph), where any transfer still
 * queued for that backward is pulled and done inline too. So at most
 * one micro-batch's staged activations are back on device at a time.
 * Every transfer charges the meter the stager was given (the stage
 * worker's). All graph access goes through CheckpointHandle, whose
 * per-segment mutex is held across a whole transfer, so a backward
 * racing a transfer either consumes the fully restored graph or
 * takes the recompute fallback; losses are bit-identical either way,
 * at any worker/virtual-stage/thread count.
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
#include "autograd/variable.h"

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
         * Test hook: never fetch, so every offloaded backward
         * takes the fetch-miss recompute fallback. Combine with
         * sync to make the miss count exact (async eviction can
         * lose the race against a fast backward).
         */
        bool forceMiss = false;
    };

    /**
     * @p meter is charged for every transfer, whichever thread runs
     * it; it must outlive the stager.
     */
    HostStager(const Options &opts,
               autograd_detail::ActivationMeter &meter);
    ~HostStager();

    HostStager(const HostStager &) = delete;
    HostStager &operator=(const HostStager &) = delete;

    /**
     * Park @p handles for the backward at device-order rank
     * @p bwd_rank (next to any parked there already) and queue their
     * eviction. No-op on an empty list.
     */
    void submitEvict(std::size_t bwd_rank,
                     std::vector<CheckpointHandle> handles);

    /**
     * The worker is about to run its op at device-order rank
     * @p op_rank. Before a @p forward, queue the fetch for the
     * backward right after it, so that fetch overlaps the forward.
     * Before a backward, pull every transfer still queued for it and
     * fetch its segments inline on the calling thread.
     */
    void advance(std::size_t op_rank, bool forward);

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

    void runJob(const Job &job);
    void drainInline();
    void threadMain();

    Options opts_;
    /** Charged by every transfer (runJob adopts it). */
    autograd_detail::ActivationMeter &meter_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::deque<Job> jobs_;
    /** Parked handles by backward rank. */
    std::map<std::size_t, std::vector<CheckpointHandle>> parked_;
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
