/**
 * @file
 * Adaptive partitioning: Algorithm 1 of the paper.
 *
 * A second-level dynamic program over stage boundaries. P[s][i] is
 * the best plan assigning layers i..L-1 to stages s..p-1; each state
 * carries the warmup time W, ending time E, steady bottleneck M and
 * the stage's own F and B, combined exactly as in the paper:
 *
 *   W = f[s,i,j] + max(P[s+1,j+1].W + P[s+1,j+1].B, (p-s-1) f)
 *   E = b[s,i,j] + max(P[s+1,j+1].E + P[s+1,j+1].F, (p-s-1) b)
 *   M = max(P[s+1,j+1].M, f + b)
 *   T = W + E + (n - p + s) M
 *
 * f and b come from the adaptive-recomputation level via
 * StageCostCalculator, so the two optimisations are solved jointly
 * (Sec. 3: partitioning cooperates with recomputation "so that we
 * don't fall into some local minimums").
 *
 * The DP solves only the knapsacks that can change the plan. Stage 0
 * expands only P[0][0], the one state the backtrack reads. Each state
 * bounds every candidate split j from below with the knapsack-free
 * StageCostCalculator::costFloor() and visits the candidates in
 * ascending floor T; it solves a candidate exactly only while its
 * floor is below the best T found, or equal to it at a smaller j, so
 * the result is the full scan's: the smallest j among the minimal T.
 * Last-stage states start as floors and are solved on first use.
 */

#ifndef ADAPIPE_CORE_PARTITION_DP_H
#define ADAPIPE_CORE_PARTITION_DP_H

#include <utility>
#include <vector>

#include "core/plan.h"
#include "core/stage_cost.h"
#include "util/parse_result.h"

namespace adapipe {

/**
 * Outcome of the partitioning DP.
 */
struct PartitionDpResult
{
    /** False when no memory-feasible partition exists. */
    bool feasible = false;
    /** Inclusive layer range per stage (stage 0 first). */
    std::vector<std::pair<int, int>> ranges;
    /** Cost-model timing of the winning plan. */
    PipelineTiming timing;
};

/**
 * Run Algorithm 1.
 *
 * @param calc stage cost oracle (adaptive recomputation inside)
 * @param num_layers L, length of the layer sequence
 * @param p pipeline-parallel size (p <= num_layers)
 * @param n micro-batches per pipeline
 */
PartitionDpResult solveAdaptivePartition(StageCostCalculator &calc,
                                         int num_layers, int p, int n);

/**
 * The baselines' uniform layer split: decoder blocks distributed as
 * evenly as possible over v * p chunks (earlier chunks take the
 * remainder), embedding glued to chunk 0 and the decoding head to
 * the last chunk. With v > 1 chunk g runs on device g % p, as in
 * Megatron's interleaved 1F1B.
 *
 * @return the inclusive layer range per chunk, chunk 0 first, or an
 *         error when some chunk would get no attention block
 */
ParseResult<std::vector<std::pair<int, int>>>
evenPartition(int num_layers, int p, int v = 1);

} // namespace adapipe

#endif // ADAPIPE_CORE_PARTITION_DP_H
