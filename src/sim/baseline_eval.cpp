#include "sim/baseline_eval.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/partition_dp.h"
#include "memory/memory_model.h"
#include "util/logging.h"

namespace adapipe {

namespace {

/** Compose the OOM message for the first over-capacity device. */
std::string
oomMessage(const std::vector<Bytes> &mem, Bytes capacity)
{
    for (std::size_t d = 0; d < mem.size(); ++d) {
        if (mem[d] > capacity) {
            std::ostringstream oss;
            oss << "device " << d << " needs " << formatBytes(mem[d])
                << " of " << formatBytes(capacity);
            return oss.str();
        }
    }
    return "";
}

/** An infeasible result carrying @p reason. */
EndToEndResult
infeasible(std::string reason)
{
    EndToEndResult result;
    result.oomReason = std::move(reason);
    return result;
}

} // namespace

const char *
baselineScheduleName(BaselineSchedule sched)
{
    switch (sched) {
      case BaselineSchedule::Dapple: return "DAPPLE";
      case BaselineSchedule::GPipe: return "GPipe";
      case BaselineSchedule::Chimera: return "Chimera";
      case BaselineSchedule::ChimeraD: return "ChimeraD";
    }
    return "?";
}

EndToEndResult
simulatePlan(const ProfiledModel &pm, const PipelinePlan &plan)
{
    const int p = static_cast<int>(plan.stages.size());
    ADAPIPE_ASSERT(p == pm.par.pipeline,
                   "plan does not match the profiled model");
    // P2P time is already charged inside the stage times by the
    // planner (StageCostCalculator, every stage but the first), so
    // the simulator runs with zero transfer cost to avoid double
    // counting.
    const SimResult sim = simulate(build1F1B(p, plan.microBatches),
                                   planStageTimes(plan));

    EndToEndResult result;
    result.feasible = true;
    result.iterationTime = sim.iterationTime;
    result.peakAlive = sim.peakAlive;
    result.bubbleTime = sim.totalBubbleTime();
    for (const auto &sp : plan.stages) {
        result.deviceMem.push_back(sp.memPeak);
        result.microStepTime.push_back(sp.timeFwd + sp.timeBwd);
    }
    return result;
}

EndToEndResult
evaluateBaseline(const ProfiledModel &pm, BaselineSchedule sched,
                 RecomputeBaseline mode, StageCostOptions opts)
{
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);
    const auto even = evenPartition(pm.numLayers(), p);
    if (!even.ok())
        return infeasible(even.error());
    const auto &ranges = even.value();
    StageCostCalculator calc(pm, p, n, opts);
    MemoryModel mem_model(pm.model, pm.train, pm.par);

    // Per-stage times and per-micro-batch activation bytes.
    std::vector<StageTimes> times(p);
    std::vector<Bytes> act_per_mb(p);
    std::vector<StaticMemory> static_mem(p);
    std::vector<Bytes> buffer(p, 0);
    for (int s = 0; s < p; ++s) {
        const auto [i, j] = ranges[s];
        const StageCost c = calc.baselineCost(s, i, j, mode);
        times[s] = {c.fwd, c.bwd};
        static_mem[s] =
            mem_model.staticMemory(pm.rangeParams(i, j));
        act_per_mb[s] =
            (i > 0 ? pm.stageInputBytes : 0) + c.recompute.savedBytes;
        buffer[s] = c.recomputeBuffer;
    }

    Schedule schedule;
    switch (sched) {
      case BaselineSchedule::Dapple:
        schedule = build1F1B(p, n);
        break;
      case BaselineSchedule::GPipe:
        schedule = buildGPipe(p, n);
        break;
      case BaselineSchedule::Chimera:
        schedule = buildChimera(p, n);
        break;
      case BaselineSchedule::ChimeraD:
        schedule = buildChimeraD(p, n);
        break;
    }

    // P2P is already charged inside the stage times, as in
    // simulatePlan().
    const SimResult sim = simulate(schedule, times);

    EndToEndResult result;
    result.iterationTime = sim.iterationTime;
    result.peakAlive = sim.peakAlive;
    result.bubbleTime = sim.totalBubbleTime();
    result.deviceMem.resize(p);
    result.microStepTime.resize(p);
    for (int d = 0; d < p; ++d)
        result.microStepTime[d] = times[d].fwd + times[d].bwd;

    const bool bidirectional = schedule.numChains == 2;
    for (int d = 0; d < p; ++d) {
        Bytes static_total = static_mem[d].total();
        Bytes act = act_per_mb[d];
        Bytes buf = buffer[d];
        if (bidirectional) {
            // Device d also hosts the opposite chain's stage p-1-d:
            // parameters and gradients are duplicated, but the two
            // chains form a data-parallel pair, so ZeRO-1 shards the
            // optimizer states over twice as many ranks. Peak alive
            // counts both chains, so charge the average
            // per-micro-batch footprint.
            const int mirror = p - 1 - d;
            static_total = static_mem[d].params + static_mem[d].grads +
                           static_mem[mirror].params +
                           static_mem[mirror].grads +
                           (static_mem[d].optimizer +
                            static_mem[mirror].optimizer) /
                               2;
            act = (act_per_mb[d] + act_per_mb[mirror]) / 2;
            buf = std::max(buf, buffer[mirror]);
        }
        result.deviceMem[d] =
            static_total + buf +
            static_cast<Bytes>(sim.peakAlive[d]) * act;
    }

    const std::string oom =
        oomMessage(result.deviceMem, pm.memCapacity);
    result.feasible = oom.empty();
    result.oomReason = oom;
    return result;
}

EndToEndResult
evaluateBPipe(const ProfiledModel &pm, RecomputeBaseline mode,
              StageCostOptions opts)
{
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);
    const auto even = evenPartition(pm.numLayers(), p);
    if (!even.ok())
        return infeasible(even.error());
    const auto &ranges = even.value();
    StageCostCalculator calc(pm, p, n, opts);
    MemoryModel mem_model(pm.model, pm.train, pm.par);

    // Per-stage activation demand and per-device budget.
    std::vector<StageTimes> times(p);
    std::vector<Bytes> act_per_mb(p);
    std::vector<std::int64_t> act_budget(p);
    std::vector<std::int64_t> overflow(p); // demand - budget
    for (int s = 0; s < p; ++s) {
        const auto [i, j] = ranges[s];
        const StageCost c = calc.baselineCost(s, i, j, mode);
        times[s] = {c.fwd, c.bwd};
        act_per_mb[s] =
            (i > 0 ? pm.stageInputBytes : 0) + c.recompute.savedBytes;
        const Bytes fixed =
            mem_model.staticMemory(pm.rangeParams(i, j)).total() +
            c.recomputeBuffer;
        act_budget[s] = static_cast<std::int64_t>(pm.memCapacity) -
                        static_cast<std::int64_t>(fixed);
        const std::int64_t demand =
            static_cast<std::int64_t>(calc.inflight(s)) *
            static_cast<std::int64_t>(act_per_mb[s]);
        overflow[s] = demand - act_budget[s];
    }

    // Balance within pairs (s, p-1-s); eviction adds two inter-node
    // transfers per evicted byte per micro-batch on both partners.
    EndToEndResult result;
    result.feasible = true;
    result.deviceMem.resize(p);
    result.microStepTime.resize(p);
    std::vector<std::int64_t> used_act(p);
    for (int s = 0; s < p; ++s) {
        used_act[s] = static_cast<std::int64_t>(calc.inflight(s)) *
                      static_cast<std::int64_t>(act_per_mb[s]);
    }
    for (int s = 0; s < p / 2; ++s) {
        const int partner = p - 1 - s;
        // The early stage overflows (more in-flight micro-batches);
        // the late one has the spare capacity.
        const std::int64_t spare =
            std::max<std::int64_t>(0, -overflow[partner]);
        const std::int64_t want =
            std::max<std::int64_t>(0, overflow[s]);
        const std::int64_t moved = std::min(want, spare);
        const std::int64_t residual = want - moved;
        if (residual > 0) {
            result.feasible = false;
            std::ostringstream oss;
            oss << "stage " << s << " overflows its pair by "
                << formatBytes(static_cast<Bytes>(residual));
            result.oomReason = oss.str();
        }
        used_act[s] -= moved;
        used_act[partner] += moved;
        if (moved > 0) {
            // Per micro-batch: evict after forward, fetch before
            // backward — two transfers through the inter-stage
            // path, occupying both partners.
            const double per_mb =
                static_cast<double>(moved) / calc.inflight(s);
            const Seconds cost =
                2.0 * (pm.p2pTime + per_mb / pm.p2pBandwidth);
            times[s].fwd += cost / 2;
            times[s].bwd += cost / 2;
            times[partner].fwd += cost / 2;
            times[partner].bwd += cost / 2;
        }
    }
    for (int s = 0; s < p; ++s) {
        const Bytes fixed = static_cast<Bytes>(
            static_cast<std::int64_t>(pm.memCapacity) -
            act_budget[s]);
        result.deviceMem[s] =
            fixed + static_cast<Bytes>(
                        std::max<std::int64_t>(0, used_act[s]));
    }

    const SimResult sim = simulate(build1F1B(p, n), times);
    result.iterationTime = sim.iterationTime;
    result.peakAlive = sim.peakAlive;
    result.bubbleTime = sim.totalBubbleTime();
    for (int d = 0; d < p; ++d)
        result.microStepTime[d] = times[d].fwd + times[d].bwd;
    return result;
}

EndToEndResult
evaluateInterleaved(const ProfiledModel &pm, int v,
                    RecomputeBaseline mode, StageCostOptions opts)
{
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);

    // Reject invalid (p, n, v) combinations as an infeasible result
    // (with the builder's field-naming diagnostic) instead of
    // aborting — v comes straight from CLI/bench sweeps.
    ParseResult<Schedule> built = tryBuildInterleaved1F1B(p, n, v);
    if (!built.ok())
        return infeasible(built.error());

    // Chunk the layer sequence into v * p virtual stages; chunk g
    // runs on device g % p.
    const int chunks = v * p;
    const auto even = evenPartition(pm.numLayers(), p, v);
    if (!even.ok())
        return infeasible(even.error());
    const auto &ranges = even.value();
    StageCostCalculator calc(pm, p, n, opts);
    MemoryModel mem_model(pm.model, pm.train, pm.par);

    std::vector<StageTimes> times(chunks);
    std::vector<Bytes> act_per_mb(chunks);
    std::vector<Bytes> static_mem(chunks);
    std::vector<Bytes> buffer(chunks, 0);
    for (int g = 0; g < chunks; ++g) {
        const auto [i, j] = ranges[g];
        // Times are position-independent; use stage 0's view.
        const StageCost c = calc.baselineCost(0, i, j, mode);
        times[g] = {c.fwd, c.bwd};
        static_mem[g] =
            mem_model.staticMemory(pm.rangeParams(i, j)).total();
        act_per_mb[g] =
            (i > 0 ? pm.stageInputBytes : 0) + c.recompute.savedBytes;
        buffer[g] = c.recomputeBuffer;
    }

    const SimResult sim = simulate(built.value(), times);

    EndToEndResult result;
    result.iterationTime = sim.iterationTime;
    result.peakAlive = sim.peakAlive;
    result.bubbleTime = sim.totalBubbleTime();
    result.deviceMem.resize(p);
    result.microStepTime.assign(p, 0);
    for (int d = 0; d < p; ++d) {
        Bytes static_total = 0;
        Bytes act_avg = 0;
        Bytes buf = 0;
        for (int c = 0; c < v; ++c) {
            const int g = c * p + d;
            static_total += static_mem[g];
            act_avg += act_per_mb[g];
            buf = std::max(buf, buffer[g]);
            result.microStepTime[d] += times[g].fwd + times[g].bwd;
        }
        act_avg /= v;
        result.deviceMem[d] =
            static_total + buf +
            static_cast<Bytes>(sim.peakAlive[d]) * act_avg;
    }

    const std::string oom =
        oomMessage(result.deviceMem, pm.memCapacity);
    result.feasible = oom.empty();
    result.oomReason = oom;
    return result;
}

} // namespace adapipe
