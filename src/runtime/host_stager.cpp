#include "runtime/host_stager.h"

#include <utility>

#include "autograd/tensor_pool.h"

namespace adapipe {

namespace {

/** Prefetch window in device-order ops: when the worker's cursor
 *  reaches op rank t, fetches are queued for parked micro-batches
 *  whose backward rank is <= t + kPrefetchLookahead. */
constexpr std::size_t kPrefetchLookahead = 2;

} // namespace

HostStager::HostStager(const Options &opts) : opts_(opts)
{
    if (!opts_.sync)
        thread_ = std::thread([this] { threadMain(); });
}

HostStager::~HostStager()
{
    stop();
}

void
HostStager::submitEvict(std::size_t bwd_rank,
                        std::vector<CheckpointHandle> handles)
{
    if (handles.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        parked_[bwd_rank].handles = std::move(handles);
        jobs_.push_back(Job{true, bwd_rank});
    }
    if (opts_.sync)
        drainInline();
    else
        cv_.notify_one();
}

void
HostStager::advance(std::size_t op_rank)
{
    if (opts_.forceMiss)
        return;
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const std::size_t horizon = op_rank + kPrefetchLookahead;
        for (auto &entry : parked_) {
            if (entry.first > horizon)
                break;
            if (entry.second.fetchQueued)
                continue;
            entry.second.fetchQueued = true;
            jobs_.push_back(Job{false, entry.first});
            queued = true;
        }
    }
    if (!queued)
        return;
    if (opts_.sync)
        drainInline();
    else
        cv_.notify_one();
}

void
HostStager::release(std::size_t bwd_rank)
{
    std::lock_guard<std::mutex> lock(mu_);
    parked_.erase(bwd_rank);
}

void
HostStager::drain()
{
    if (opts_.sync) {
        drainInline();
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return jobs_.empty() && active_ == 0; });
}

void
HostStager::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

std::int64_t
HostStager::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

std::int64_t
HostStager::fetches() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fetches_;
}

std::uint64_t
HostStager::bytesEvicted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytesEvicted_;
}

std::uint64_t
HostStager::bytesFetched() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytesFetched_;
}

void
HostStager::runJob(const Job &job)
{
    // Copy the handles out under the lock, transfer without it: the
    // per-segment mutex inside each handle is all a transfer needs,
    // and keeping mu_ out lets the worker submit/advance meanwhile.
    // A concurrent release() only erases the parked entry; the
    // copied handles stay valid and their consumed flag makes the
    // transfer a no-op.
    std::vector<CheckpointHandle> handles;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = parked_.find(job.rank);
        if (it != parked_.end())
            handles = it->second.handles;
    }
    std::int64_t moved = 0;
    std::size_t bytes = 0;
    for (const CheckpointHandle &h : handles) {
        const std::size_t b = job.evict ? h.evict() : h.fetch();
        if (b > 0) {
            ++moved;
            bytes += b;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (job.evict) {
        evictions_ += moved;
        bytesEvicted_ += bytes;
    } else {
        fetches_ += moved;
        bytesFetched_ += bytes;
    }
}

void
HostStager::drainInline()
{
    for (;;) {
        Job job;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (jobs_.empty())
                return;
            job = jobs_.front();
            jobs_.pop_front();
        }
        runJob(job);
    }
}

void
HostStager::threadMain()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stop_ || !jobs_.empty(); });
            if (jobs_.empty())
                break; // stopped and drained
            job = jobs_.front();
            jobs_.pop_front();
            ++active_;
        }
        runJob(job);
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
        }
        idleCv_.notify_all();
    }
    // Evicted device buffers were released to the pool on this
    // thread; hand its cache back before exit (same discipline as
    // the backward engine's helpers).
    TensorPool::instance().drainThreadCache();
}

} // namespace adapipe
