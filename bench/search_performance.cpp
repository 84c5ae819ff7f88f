/**
 * @file
 * Sec. 5.3 claim: "for typical models like GPT-3 and Llama 2, the
 * entire search process takes only seconds."
 *
 * google-benchmark microbenchmarks of the search engine: the
 * recomputation knapsack, the full two-level AdaPipe search for both
 * evaluated models, the scaling of the partitioning DP with the
 * pipeline size, and a straggler replan's partition search.
 */

#include <benchmark/benchmark.h>

#include "core/knapsack_memo.h"
#include "core/partition_dp.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "core/recompute_dp.h"
#include "core/strategy_search.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "util/rng.h"

namespace adapipe {
namespace {

ProfiledModel
makeProfiled(const ModelConfig &model, int tensor, int pipeline,
             int seq)
{
    TrainConfig train;
    train.seqLen = seq;
    train.globalBatch = 64;
    ParallelConfig par;
    par.tensor = tensor;
    par.pipeline = pipeline;
    par.data = 1;
    return buildProfiledModel(model, train, par, clusterA(8));
}

void
BM_RecomputeKnapsack(benchmark::State &state)
{
    const auto units_per_stage = static_cast<int>(state.range(0));
    Rng rng(7);
    std::vector<UnitProfile> units;
    for (int i = 0; i < units_per_stage; ++i) {
        UnitProfile u;
        u.timeFwd = rng.uniform(1e-4, 5e-3);
        u.timeBwd = 2 * u.timeFwd;
        u.memSaved = MiB(rng.uniformInt(1, 256));
        units.push_back(std::move(u));
    }
    const std::int64_t budget = static_cast<std::int64_t>(
        GiB(4));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            solveRecomputeKnapsack(units, budget));
    }
}
BENCHMARK(BM_RecomputeKnapsack)->Arg(32)->Arg(128)->Arg(512);

void
BM_AdaPipeSearchGpt3(benchmark::State &state)
{
    const ProfiledModel pm = makeProfiled(gpt3_175b(), 8, 8, 16384);
    for (auto _ : state)
        benchmark::DoNotOptimize(makePlan(pm, PlanMethod::AdaPipe));
}
BENCHMARK(BM_AdaPipeSearchGpt3)->Unit(benchmark::kMillisecond);

void
BM_AdaPipeSearchLlama2(benchmark::State &state)
{
    const ProfiledModel pm = makeProfiled(llama2_70b(), 8, 8, 16384);
    for (auto _ : state)
        benchmark::DoNotOptimize(makePlan(pm, PlanMethod::AdaPipe));
}
BENCHMARK(BM_AdaPipeSearchLlama2)->Unit(benchmark::kMillisecond);

void
BM_PartitionDpScaling(benchmark::State &state)
{
    const int p = static_cast<int>(state.range(0));
    const ProfiledModel pm = makeProfiled(gpt3_175b(), 8, p, 8192);
    const int n = pm.train.microBatches(pm.par);
    for (auto _ : state) {
        StageCostCalculator calc(pm, p, n);
        benchmark::DoNotOptimize(
            solveAdaptivePartition(calc, pm.numLayers(), p, n));
    }
}
BENCHMARK(BM_PartitionDpScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_StragglerPartition(benchmark::State &state)
{
    // A straggler replan's search at perfbench plan-replan's shape:
    // GPT-3 13B at t=2, p=4, seq 2048 and a tight budget, one stage
    // at factor 2, against a knapsack memo warmed by one untimed run
    // as the plan service's is. What is left is stage costs, floors
    // and the partition DP.
    const ProfiledModel pm = makeProfiled(gpt3_13b(), 2, 4, 2048);
    const int n = pm.train.microBatches(pm.par);
    KnapsackMemo memo;
    StageCostOptions opts;
    opts.memBudgetFraction = 0.58;
    opts.knapsackMemo = &memo;
    opts.stageTimeFactor = {1.0, 2.0, 1.0, 1.0};
    const auto search = [&] {
        StageCostCalculator calc(pm, 4, n, opts);
        return solveAdaptivePartition(calc, pm.numLayers(), 4, n);
    };
    if (!search().feasible)
        state.SkipWithError("straggler search infeasible");
    for (auto _ : state)
        benchmark::DoNotOptimize(search());
}
BENCHMARK(BM_StragglerPartition)->Unit(benchmark::kMicrosecond);

void
BM_SweepStrategies(benchmark::State &state)
{
    // The full cluster-A strategy sweep for GPT-3; Arg is the worker
    // count (1 = the serial reference). This is the wall-time gate
    // for observability overhead: with no registry installed (as
    // here) the cost is one thread-local load per counter site.
    StrategySearchOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    const ModelConfig model = gpt3_175b();
    TrainConfig train;
    train.seqLen = 4096;
    train.globalBatch = 128;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sweepStrategies(model, train, clusterA(8),
                            PlanMethod::AdaPipe, opts));
    }
}
BENCHMARK(BM_SweepStrategies)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_ProfileModel(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            makeProfiled(gpt3_175b(), 8, 8, 16384));
    }
}
BENCHMARK(BM_ProfileModel)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace adapipe

BENCHMARK_MAIN();
