#include "sim/interleaved_planner.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "core/partition_dp.h"
#include "obs/macros.h"
#include "sim/pipeline_sim.h"
#include "util/logging.h"
#include "util/units.h"

namespace adapipe {

std::vector<int>
chunkInflightPeaks(const Schedule &sched)
{
    std::vector<int> alive(sched.chainLength, 0);
    std::vector<int> peak(sched.chainLength, 0);
    for (const auto &order : sched.deviceOrder) {
        for (std::size_t idx : order) {
            const PipeOp &op = sched.ops[idx];
            if (op.kind == OpKind::Forward) {
                alive[op.pos] += op.samples;
                peak[op.pos] = std::max(peak[op.pos], alive[op.pos]);
            } else {
                alive[op.pos] -= op.samples;
            }
        }
    }
    return peak;
}

PlanResult
makeInterleavedPlan(const ProfiledModel &pm, PlanMethod method, int v,
                    StageCostOptions opts)
{
    if (v == 1)
        return makePlan(pm, method, opts);

    ADAPIPE_OBS_SPAN(obs_span, "planner.make_interleaved_plan");
    ADAPIPE_OBS_COUNT("planner.plans", 1);
    const int p = pm.par.pipeline;
    const int L = pm.numLayers();
    const int n = pm.train.microBatches(pm.par);
    PlanResult result;
    const auto fail = [&](std::string reason) {
        ADAPIPE_OBS_COUNT("planner.infeasible", 1);
        result.oomReason = std::move(reason);
        return result;
    };

    ParseResult<Schedule> built = tryBuildInterleaved1F1B(p, n, v);
    if (!built.ok())
        return fail(built.error());
    const Schedule schedule = std::move(built).value();

    // Every chunk needs at least one attention block (the limit of
    // the even chunk split, which AdaPipe is held to as well).
    const int chunks = v * p;
    auto even = evenPartition(L, p, v);
    if (!even.ok())
        return fail(even.error());
    std::vector<std::pair<int, int>> ranges = std::move(even).value();

    // Chunk g's in-flight count is not min(p - g, n): read the exact
    // peaks off the interleaved device order. Each chunk plans
    // against 1/v of the device memory so a device's v chunks fit
    // together; the sum is re-checked exactly below.
    const Bytes real_cap = opts.memCapacityOverride > 0
                               ? opts.memCapacityOverride
                               : pm.memCapacity;
    StageCostOptions chunk_opts = opts;
    chunk_opts.inflightOverride = chunkInflightPeaks(schedule);
    chunk_opts.memCapacityOverride =
        std::max<Bytes>(1, real_cap / static_cast<Bytes>(v));

    StageCostCalculator calc(pm, chunks, n, chunk_opts);

    // AdaPipe partitions the chunk boundaries adaptively (the DP's
    // 1F1B objective over the v*p-position chain is a proxy for the
    // interleaved critical path — the final timing below comes from
    // the simulator). The baselines keep the even chunk split.
    if (method == PlanMethod::AdaPipe) {
        PartitionDpResult dp =
            solveAdaptivePartition(calc, L, chunks, n);
        if (!dp.feasible)
            return fail("no memory-feasible interleaved partition");
        ranges = std::move(dp.ranges);
    }

    StageAssembly assembled = assembleStages(pm, method, calc, ranges);
    if (assembled.failedStage >= 0) {
        const int g = assembled.failedStage;
        const auto [i, j] = ranges[g];
        std::ostringstream oss;
        oss << "chunk " << g << " (device " << g % p << ", layers "
            << i << "-" << j << ") needs "
            << formatBytes(assembled.failedCost.memPeak) << " of its "
            << formatBytes(calc.capacity()) << " share (capacity / "
            << v << ")";
        return fail(oss.str());
    }
    PipelinePlan &plan = assembled.plan;
    plan.virtualStages = v;

    // The per-chunk capacity/v budgeting is conservative, not exact:
    // verify the real constraint — device d's v chunks together fit
    // the device.
    for (int d = 0; d < p; ++d) {
        Bytes total = 0;
        for (int c = 0; c < v; ++c)
            total += plan.stages[c * p + d].memPeak;
        if (total > real_cap) {
            std::ostringstream oss;
            oss << "device " << d << "'s " << v << " chunks need "
                << formatBytes(total) << " of "
                << formatBytes(real_cap);
            return fail(oss.str());
        }
    }

    // P2P is already charged inside the stage times (every stage but
    // the first), so the simulator runs with zero transfer cost;
    // warmup/ending have no closed form for the interleaved schedule
    // and are folded into total.
    const std::vector<StageTimes> times = planStageTimes(plan);
    const SimResult sim = simulate(schedule, times);
    plan.timing.warmup = 0;
    plan.timing.ending = 0;
    plan.timing.total = sim.iterationTime;
    Seconds steady = 0;
    for (int d = 0; d < p; ++d) {
        Seconds per_mb = 0;
        for (int c = 0; c < v; ++c)
            per_mb += times[c * p + d].fwd + times[c * p + d].bwd;
        steady = std::max(steady, per_mb);
    }
    plan.timing.steadyPerMb = steady;

    result.ok = true;
    result.plan = std::move(plan);
    return result;
}

PlanResult
makeOverlapPlan(const ProfiledModel &pm, PlanMethod method, int v,
                StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "planner.make_overlap_plan");

    // Pass 1: the lazy plan fixes the stage times the bubble budget
    // is derived from.
    PlanResult lazy = makeInterleavedPlan(pm, method, v, opts);
    if (!lazy.ok)
        return lazy;

    const int p = pm.par.pipeline;
    const int n = lazy.plan.microBatches;
    const int chunks = v * p;

    ParseResult<Schedule> built = tryBuildInterleaved1F1B(p, n, v);
    if (!built.ok()) {
        PlanResult result;
        result.oomReason = built.error();
        return result;
    }
    const Schedule schedule = std::move(built).value();

    const SimResult sim =
        simulate(schedule, planStageTimes(lazy.plan));

    // Each device's idle time, spread over its v chunks and the n
    // micro-batches each chunk replays, is the per-micro-batch budget
    // a chunk may hide replay in. The division is conservative — the
    // runtime warms at most one micro-batch per bubble visit anyway.
    StageCostOptions overlap_opts = opts;
    overlap_opts.overlapBubblePerMb.assign(chunks, 0);
    for (int g = 0; g < chunks; ++g) {
        const Seconds idle =
            std::max<Seconds>(0, sim.bubbleTime(g % p));
        overlap_opts.overlapBubblePerMb[g] =
            idle / (static_cast<double>(n) * v);
    }

    // Pass 2: re-plan under the discounted objective. Memory only
    // ever shrinks under the discount (the solver saves a subset of
    // what it would otherwise), so pass 2 cannot become infeasible
    // when pass 1 was feasible — but report honestly if it somehow
    // does.
    PlanResult overlapped =
        makeInterleavedPlan(pm, method, v, overlap_opts);
    if (!overlapped.ok)
        return overlapped;
    overlapped.plan.overlap = true;
    return overlapped;
}

PlanResult
makeBestSchedulePlan(const ProfiledModel &pm, PlanMethod method,
                     StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "planner.make_best_schedule_plan");
    PlanResult best;
    PlanResult first_failure;
    bool have_failure = false;
    // With offload requested, sweep it {off, on} alongside v: a
    // degenerate host link can make the recompute-only plan faster,
    // and a healthy one can unlock deeper interleaving.
    std::vector<bool> offload_axis = {false};
    if (opts.offload.enabled)
        offload_axis.push_back(true);
    for (int v : {1, 2, 4}) {
        for (bool use_offload : offload_axis) {
            StageCostOptions sweep = opts;
            sweep.offload.enabled = use_offload;
            PlanResult r = makeInterleavedPlan(pm, method, v, sweep);
            if (!r.ok) {
                if (!have_failure) {
                    first_failure = std::move(r);
                    have_failure = true;
                }
                continue;
            }
            if (!best.ok ||
                r.plan.timing.total < best.plan.timing.total)
                best = std::move(r);
        }
    }
    if (best.ok)
        return best;
    return first_failure;
}

} // namespace adapipe
