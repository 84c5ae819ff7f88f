#include "runtime/host_stager.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "autograd/tensor_pool.h"

namespace adapipe {

HostStager::HostStager(const Options &opts,
                       autograd_detail::ActivationMeter &meter)
    : opts_(opts), meter_(meter)
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
        std::vector<CheckpointHandle> &parked = parked_[bwd_rank];
        parked.insert(parked.end(),
                      std::make_move_iterator(handles.begin()),
                      std::make_move_iterator(handles.end()));
        jobs_.push_back(Job{true, bwd_rank});
    }
    if (opts_.sync)
        drainInline();
    else
        cv_.notify_one();
}

void
HostStager::advance(std::size_t op_rank, bool forward)
{
    if (opts_.forceMiss)
        return;
    if (!forward) {
        // A transfer still queued for this backward would land after
        // its consume-or-fallback gate: pull it and fetch here. One
        // already running holds the segment mutex; the fetch waits.
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (parked_.find(op_rank) == parked_.end())
                return;
            jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                                       [op_rank](const Job &job) {
                                           return job.rank == op_rank;
                                       }),
                        jobs_.end());
        }
        runJob(Job{false, op_rank});
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Parked ranks are backward ranks: the one right after this
        // forward, if any, is op_rank + 1.
        if (parked_.find(op_rank + 1) == parked_.end())
            return;
        jobs_.push_back(Job{false, op_rank + 1});
    }
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
    // transfer a no-op. Whichever thread runs the job, the stage's
    // meter pays, the copies' release included.
    autograd_detail::AdoptMeter adopt(meter_);
    std::vector<CheckpointHandle> handles;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = parked_.find(job.rank);
        if (it != parked_.end())
            handles = it->second;
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
