#include "sim/pipeline_sim.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Dependency resolver: maps (chain, pos, micro-batch, kind) to op
 * indices, with forward-doubling ops registered for every covered
 * micro-batch.
 */
class OpIndex
{
  public:
    explicit OpIndex(const Schedule &sched) : sched_(sched)
    {
        for (std::size_t i = 0; i < sched.ops.size(); ++i) {
            const PipeOp &op = sched.ops[i];
            for (int k = 0; k < op.samples; ++k) {
                const Key key{op.chain, op.pos, op.microBatch + k,
                              op.kind == OpKind::Forward};
                const bool inserted = map_.emplace(key, i).second;
                ADAPIPE_ASSERT(inserted, "duplicate op in schedule ",
                               sched.name);
            }
        }
    }

    /** @return op index or -1 when absent. */
    std::ptrdiff_t
    find(int chain, int pos, int mb, bool forward) const
    {
        auto it = map_.find(Key{chain, pos, mb, forward});
        return it == map_.end() ? -1
                                : static_cast<std::ptrdiff_t>(it->second);
    }

    /** Dependencies of op @p i (indices into Schedule::ops). */
    std::vector<std::size_t>
    deps(std::size_t i) const
    {
        const PipeOp &op = sched_.ops[i];
        std::vector<std::size_t> out;
        auto push = [&](std::ptrdiff_t idx) {
            ADAPIPE_ASSERT(idx >= 0, "missing dependency for op in ",
                           sched_.name);
            if (static_cast<std::size_t>(idx) != i)
                out.push_back(static_cast<std::size_t>(idx));
        };
        if (op.kind == OpKind::Forward) {
            if (op.pos > 0) {
                for (int k = 0; k < op.samples; ++k)
                    push(find(op.chain, op.pos - 1, op.microBatch + k,
                              true));
            }
        } else {
            if (op.pos < sched_.chainLength - 1) {
                push(find(op.chain, op.pos + 1, op.microBatch, false));
            }
            push(find(op.chain, op.pos, op.microBatch, true));
        }
        // Forward-doubled deps can repeat; dedupe.
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    }

  private:
    using Key = std::tuple<int, int, int, bool>;
    const Schedule &sched_;
    std::map<Key, std::size_t> map_;
};

Seconds
opDuration(const PipeOp &op, const std::vector<StageTimes> &stage_times)
{
    const StageTimes &st = stage_times[op.pos];
    if (op.kind == OpKind::Forward)
        return st.fwd * op.samples;
    return st.bwd * op.samples;
}

/** Stable fault identity of @p op. */
std::uint64_t
opFaultId(const PipeOp &op)
{
    return faultOpId(op.chain, op.pos, op.microBatch,
                     op.kind == OpKind::Forward);
}

/**
 * Duration under fault injection: slowdown scales the compute,
 * transient stalls add retry/backoff delay (reported via
 * @p stall_out).
 */
Seconds
faultedDuration(const PipeOp &op,
                const std::vector<StageTimes> &stage_times,
                const FaultSpec &faults, Seconds &stall_out)
{
    Seconds duration =
        opDuration(op, stage_times) *
        slowdownFactor(faults.slowdowns, op.device);
    stall_out = stallDelay(faults.stalls, faults.seed, opFaultId(op));
    return duration + stall_out;
}

/** Earliest start: the end of the latest dependency. */
Seconds
readyTime(const std::vector<std::vector<std::size_t>> &deps,
          const std::vector<OpRecord> &records, std::size_t i)
{
    Seconds ready = 0;
    for (std::size_t dep : deps[i]) {
        if (!records[dep].done())
            return kInf;
        ready = std::max(ready, records[dep].end);
    }
    return ready;
}

void
computeStats(const Schedule &sched, SimResult &result)
{
    const int p = sched.numDevices;
    result.deviceBusy.assign(p, 0.0);
    result.deviceFinish.assign(p, 0.0);
    result.peakAlive.assign(p, 0);
    result.iterationTime = 0;

    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
        const PipeOp &op = sched.ops[i];
        const OpRecord &rec = result.records[i];
        if (!rec.done())
            continue;
        result.deviceBusy[op.device] += rec.end - rec.start;
        result.deviceFinish[op.device] =
            std::max(result.deviceFinish[op.device], rec.end);
        result.iterationTime = std::max(result.iterationTime, rec.end);
    }

    // Alive-activation sweep per device: +samples at forward end,
    // -1 at each micro-batch's backward end.
    for (int dev = 0; dev < p; ++dev) {
        std::vector<std::pair<Seconds, int>> events;
        for (std::size_t i = 0; i < sched.ops.size(); ++i) {
            const PipeOp &op = sched.ops[i];
            if (op.device != dev)
                continue;
            const OpRecord &rec = result.records[i];
            if (!rec.done())
                continue;
            if (op.kind == OpKind::Forward)
                events.emplace_back(rec.end, op.samples);
            else
                events.emplace_back(rec.end, -op.samples);
        }
        // Process releases before allocations at equal timestamps.
        std::sort(events.begin(), events.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second;
                  });
        int alive = 0;
        int peak = 0;
        for (const auto &[t, delta] : events) {
            alive += delta;
            peak = std::max(peak, alive);
        }
        // An interrupted iteration legitimately leaves forwards
        // without their backward.
        ADAPIPE_ASSERT(alive == 0 || !result.completed,
                       "unbalanced activation events on device ", dev);
        result.peakAlive[dev] = peak;
    }
}

} // namespace

Seconds
SimResult::bubbleTime(int device) const
{
    return deviceFinish[device] - deviceBusy[device];
}

Seconds
SimResult::totalBubbleTime() const
{
    Seconds total = 0;
    for (std::size_t d = 0; d < deviceBusy.size(); ++d)
        total += bubbleTime(static_cast<int>(d));
    return total;
}

SimResult
simulate(const Schedule &sched, const std::vector<StageTimes> &stage_times,
         const FaultSpec &faults)
{
    ADAPIPE_ASSERT(static_cast<int>(stage_times.size()) >=
                       sched.chainLength,
                   "need stage times for every chain position");
    ADAPIPE_OBS_SPAN(obs_span, "sim.simulate");
    ADAPIPE_OBS_COUNT("sim.runs", 1);
    ADAPIPE_OBS_COUNT("sim.events", sched.ops.size());

    OpIndex index(sched);
    // Dependencies are precomputed once: the scheduling loops below
    // probe them O(ops^2) times.
    std::vector<std::vector<std::size_t>> deps(sched.ops.size());
    std::int64_t edges = 0;
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
        deps[i] = index.deps(i);
        edges += static_cast<std::int64_t>(deps[i].size());
    }
    ADAPIPE_OBS_COUNT("sim.dependency_edges", edges);

    SimResult result;
    result.scheduleName = sched.name;
    result.records.assign(sched.ops.size(), OpRecord{});

    std::vector<Seconds> device_free(sched.numDevices, 0.0);

    const DeviceFailure &failure = faults.failure;
    auto failure_blocks = [&](const PipeOp &op, Seconds start) {
        return op.device == failure.device && start >= failure.at;
    };

    if (!sched.deviceOrder.empty()) {
        // Static mode: run each device's list in order; round-robin
        // until every pointer is exhausted.
        std::vector<std::size_t> cursor(sched.numDevices, 0);
        std::size_t remaining = sched.ops.size();
        while (remaining > 0) {
            bool progress = false;
            for (int dev = 0; dev < sched.numDevices; ++dev) {
                while (cursor[dev] < sched.deviceOrder[dev].size()) {
                    const std::size_t i =
                        sched.deviceOrder[dev][cursor[dev]];
                    const Seconds ready =
                        readyTime(deps, result.records, i);
                    if (ready == kInf)
                        break;
                    const Seconds start =
                        std::max(ready, device_free[dev]);
                    // A dead device starts nothing more; its later
                    // ops only start later, so stop its cursor for
                    // good.
                    if (failure_blocks(sched.ops[i], start))
                        break;
                    Seconds stall = 0;
                    result.records[i].start = start;
                    result.records[i].end =
                        start + faultedDuration(sched.ops[i],
                                                stage_times, faults,
                                                stall);
                    result.stallTime += stall;
                    device_free[dev] = result.records[i].end;
                    ++cursor[dev];
                    --remaining;
                    progress = true;
                }
            }
            if (!progress && failure.device >= 0) {
                result.completed = false;
                result.failedDevice = failure.device;
                break;
            }
            ADAPIPE_ASSERT(progress, "deadlock in static schedule ",
                           sched.name);
        }
    } else {
        // Greedy mode: repeatedly schedule the ready op that can
        // start earliest; ties prefer earlier scheduling units, then
        // backwards, then lower micro-batch ids.
        //
        // Bidirectional schedules concatenate scheduling units of p
        // micro-batches (Sec. 2.1 / 7.2): gradient buffers are
        // committed unit by unit, so a device may not run a backward
        // of unit u+1 before finishing every backward of unit u.
        // Forwards are free to fill the trailing bubbles (Chimera's
        // forward occupation / doubling). This constraint is what
        // produces the inter-unit bubbles the paper reports.
        std::vector<bool> scheduled(sched.ops.size(), false);
        const int unit = std::max(1, sched.unitSize);
        std::vector<std::vector<int>> bwd_remaining;
        {
            int max_unit = 0;
            for (const auto &op : sched.ops)
                max_unit = std::max(max_unit, op.microBatch / unit);
            bwd_remaining.assign(
                sched.numDevices,
                std::vector<int>(max_unit + 1, 0));
            for (const auto &op : sched.ops) {
                if (op.kind == OpKind::Backward)
                    ++bwd_remaining[op.device][op.microBatch / unit];
            }
        }
        auto backward_allowed = [&](const PipeOp &op) {
            if (op.kind != OpKind::Backward)
                return true;
            const int u = op.microBatch / unit;
            for (int earlier = 0; earlier < u; ++earlier) {
                if (bwd_remaining[op.device][earlier] > 0)
                    return false;
            }
            return true;
        };
        // 1F1B-style activation bound per chain: a device admits a
        // new forward at position k only while fewer than
        // chainLength - k micro-batches of that chain are in flight
        // (Chimera keeps per-pipeline memory bounded exactly like
        // 1F1B; unbounded prefetch would degenerate into GPipe).
        std::vector<std::vector<int>> alive(
            sched.numDevices, std::vector<int>(sched.numChains, 0));
        auto forward_allowed = [&](const PipeOp &op) {
            if (op.kind != OpKind::Forward)
                return true;
            // Forward doubling admits two micro-batches per slot, so
            // its in-flight allowance doubles — the memory doubling
            // the paper reports for ChimeraD-Non.
            return alive[op.device][op.chain] <
                   (sched.chainLength - op.pos) * op.samples;
        };
        for (std::size_t done = 0; done < sched.ops.size(); ++done) {
            std::size_t best = sched.ops.size();
            Seconds best_start = kInf;
            std::tuple<int, int, int, int> best_prio{};
            for (std::size_t i = 0; i < sched.ops.size(); ++i) {
                if (scheduled[i])
                    continue;
                if (!backward_allowed(sched.ops[i]) ||
                    !forward_allowed(sched.ops[i]))
                    continue;
                const Seconds ready =
                    readyTime(deps, result.records, i);
                if (ready == kInf)
                    continue;
                const PipeOp &op = sched.ops[i];
                const Seconds start =
                    std::max(ready, device_free[op.device]);
                if (failure_blocks(op, start))
                    continue;
                const std::tuple<int, int, int, int> prio{
                    op.microBatch / unit,
                    op.kind == OpKind::Forward ? 1 : 0, op.microBatch,
                    op.chain};
                if (start < best_start ||
                    (start == best_start && prio < best_prio)) {
                    best = i;
                    best_start = start;
                    best_prio = prio;
                }
            }
            if (best >= sched.ops.size() && failure.device >= 0) {
                result.completed = false;
                result.failedDevice = failure.device;
                break;
            }
            ADAPIPE_ASSERT(best < sched.ops.size(),
                           "deadlock in greedy schedule ", sched.name);
            const PipeOp &op = sched.ops[best];
            Seconds stall = 0;
            result.records[best].start = best_start;
            result.records[best].end =
                best_start + faultedDuration(op, stage_times, faults,
                                             stall);
            result.stallTime += stall;
            device_free[op.device] = result.records[best].end;
            scheduled[best] = true;
            if (op.kind == OpKind::Backward) {
                --bwd_remaining[op.device][op.microBatch / unit];
                alive[op.device][op.chain] -= op.samples;
            } else {
                alive[op.device][op.chain] += op.samples;
            }
        }
    }

    computeStats(sched, result);
    if (!result.completed)
        ADAPIPE_OBS_COUNT("sim.incomplete", 1);
    return result;
}

} // namespace adapipe
