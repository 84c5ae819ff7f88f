/**
 * @file
 * Closed-form cost model of the 1F1B schedule (Sec. 5.1).
 *
 * Stage indices are 0-based throughout: stage 0 feeds the pipeline,
 * stage p-1 computes the loss. The recurrences (evaluated from the
 * last stage backwards):
 *
 *   W_s = F_s + max(W_{s+1} + B_{s+1}, (p - s - 1) F_s)
 *   E_s = B_s + max(E_{s+1} + F_{s+1}, (p - s - 1) B_s)
 *   M_s = max(M_{s+1}, F_s + B_s)
 *   T   = W_0 + E_0 + (n - p) M_0
 *
 * with W_{p-1} = F_{p-1}, E_{p-1} = B_{p-1}, M_{p-1} = F + B.
 * For uniform stages this reproduces the exact 1F1B iteration length
 * (n + p - 1)(F + B); the event-driven simulator cross-checks the
 * general case in tests.
 */

#ifndef ADAPIPE_CORE_COST_MODEL_H
#define ADAPIPE_CORE_COST_MODEL_H

#include <vector>

#include "core/plan.h"
#include "util/units.h"

namespace adapipe {

/**
 * Evaluate the 1F1B cost model for per-stage times @p stages and
 * @p n micro-batches.
 *
 * @param stages F_s / B_s per stage, stage 0 first (size = p >= 1)
 * @param n micro-batches per pipeline (n >= 1). The model is exact
 *        in the paper's operating regime n >= p; with n < p its
 *        warmup terms assume a full pipeline and it becomes a
 *        conservative upper bound.
 */
PipelineTiming evaluate1F1B(const std::vector<StageTimes> &stages,
                            int n);

/**
 * GPipe reference cost: all forwards then all backwards,
 * approximately (n + p - 1) F_max + (n + p - 1) B_max.
 */
Seconds evaluateGPipe(const std::vector<StageTimes> &stages, int n);

} // namespace adapipe

#endif // ADAPIPE_CORE_COST_MODEL_H
