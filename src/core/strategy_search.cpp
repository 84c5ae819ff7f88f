#include "core/strategy_search.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

Seconds
StrategyResult::iterationTime() const
{
    if (!result.ok)
        return std::numeric_limits<double>::infinity();
    return result.plan.timing.total;
}

std::vector<ParallelConfig>
enumerateStrategies(const ModelConfig &model, const TrainConfig &train,
                    const ClusterSpec &cluster,
                    const StrategySearchOptions &opts)
{
    model.validate();
    cluster.validate();
    const int devices = cluster.totalDevices();

    std::vector<ParallelConfig> strategies;
    std::int64_t considered = 0;
    std::int64_t pruned = 0;
    for (int t = 1; t <= opts.maxTensor; t *= 2) {
        if (t > cluster.devicesPerNode)
            break;
        if (model.numHeads % t != 0 || model.numKvHeads % t != 0)
            continue;
        for (int p = opts.minPipeline; t * p <= devices; p *= 2) {
            ++considered;
            if (devices % (t * p) != 0) {
                ++pruned;
                continue;
            }
            if (p > model.numBlocks)
                break;
            const int d = devices / (t * p);
            if (train.globalBatch % (train.microBatch * d) != 0) {
                ++pruned;
                continue;
            }
            const int n =
                train.globalBatch / (train.microBatch * d);
            if (opts.requireFullPipeline && n < p) {
                ++pruned;
                continue;
            }

            ParallelConfig par;
            par.tensor = t;
            par.pipeline = p;
            par.data = d;
            strategies.push_back(par);
        }
    }
    ADAPIPE_OBS_COUNT("strategy_search.strategies_considered",
                      considered);
    ADAPIPE_OBS_COUNT("strategy_search.strategies_pruned", pruned);
    ADAPIPE_OBS_COUNT("strategy_search.strategies_emitted",
                      strategies.size());
    return strategies;
}

std::vector<StrategyResult>
sweepStrategies(const ModelConfig &model, const TrainConfig &train,
                const ClusterSpec &cluster, PlanMethod method,
                const StrategySearchOptions &opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "strategy_search.sweep");
    const std::vector<ParallelConfig> strategies =
        enumerateStrategies(model, train, cluster, opts);
    std::vector<StrategyResult> results(strategies.size());

    auto evaluate = [&](std::size_t i) {
        const ProfiledModel pm =
            buildProfiledModel(model, train, strategies[i], cluster);
        results[i].par = strategies[i];
        results[i].result = makePlan(pm, method, opts.stageCost);
    };

    auto tally = [&]() {
        ADAPIPE_OBS_COUNT("strategy_search.strategies_planned",
                          results.size());
        std::int64_t infeasible = 0;
        for (const StrategyResult &r : results) {
            if (!r.result.ok)
                ++infeasible;
        }
        ADAPIPE_OBS_COUNT("strategy_search.plans_infeasible",
                          infeasible);
    };

    unsigned workers = opts.threads;
    if (workers == 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    if (workers <= 1 || strategies.size() <= 1) {
        for (std::size_t i = 0; i < strategies.size(); ++i)
            evaluate(i);
        tally();
        return results;
    }

    // Static interleaved assignment: strategies are independent and
    // results are pre-sized, so no synchronisation is needed. Workers
    // record metrics into private registries that merge into the
    // caller's registry after join — the hot path stays lock-free and
    // merged counters are identical for any worker count.
    obs::Registry *parent = obs::current();
    std::vector<obs::Registry> worker_metrics(
        parent ? workers : 0u);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w]() {
            obs::ScopedRegistry scope(
                parent ? &worker_metrics[w] : nullptr);
            for (std::size_t i = w; i < strategies.size();
                 i += workers)
                evaluate(i);
        });
    }
    for (auto &t : pool)
        t.join();
    if (parent) {
        for (const obs::Registry &m : worker_metrics)
            parent->merge(m);
    }
    tally();
    return results;
}

std::optional<StrategyResult>
bestStrategy(const ModelConfig &model, const TrainConfig &train,
             const ClusterSpec &cluster, PlanMethod method,
             const StrategySearchOptions &opts)
{
    // Results keep enumeration (t-major) order independent of
    // opts.threads, and the strict < keeps the earliest-enumerated
    // strategy on ties — bestStrategy is deterministic for any
    // worker count (tested by strategy_determinism_test).
    std::optional<StrategyResult> best;
    for (auto &r : sweepStrategies(model, train, cluster, method, opts)) {
        if (!r.result.ok)
            continue;
        if (!best || r.iterationTime() < best->iterationTime())
            best = std::move(r);
    }
    return best;
}

} // namespace adapipe
