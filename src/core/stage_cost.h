/**
 * @file
 * Stage cost tables f[s,i,j] and b[s,i,j] (Sec. 5.2) with the
 * isomorphism optimisation of Sec. 5.3.
 *
 * For a stage s (0-based) assigned layers [i, j], the calculator
 * derives the per-micro-batch memory budget from the stage's static
 * memory, recompute buffer, boundary input and always-saved
 * activations, runs the Sec. 4 knapsack, and reports the resulting
 * forward/backward times and predicted peak memory.
 *
 * Isomorphism: two layer ranges with the same length, the same first
 * layer kind and the same boundary content (embedding / decoding
 * head) have identical cost tables on stages with the same in-flight
 * count, stage-time factor and overlap bubble, so results are
 * memoised under (stage class, representative range), reducing
 * knapsack executions from O(p L^2) to O(p L), for straggler and
 * overlapped plans too. Each class has one fixed representative: a
 * range that holds the embedding or the head represents itself, and
 * an interior range is represented by the range of the same length
 * that starts at the first layer of its kind (layer 1 for attention,
 * layer 2 for feed-forward). cost() and costFloor() both read the
 * representative, so neither depends on the order the search asks
 * for ranges in, even on a measured profile whose layers differ.
 *
 * Range sums: one pass per start accumulates layer by layer, in the
 * units' order, every sum a range's cost reads (times, saved bytes,
 * parameters, the recompute buffer as a running max), so each stored
 * double is bit-equal to a loop over that range alone. A start that
 * is its own representative keeps a row of every length; every start
 * keeps its range up to the head. With isomorphism on that is three
 * rows (the embedding's, the first attention's and the first
 * feed-forward's) and one head entry per start, O(L) in all.
 *
 * Floors: costFloor() bounds cost() from below in O(1), without a
 * knapsack and without a cache. Feasibility and the forward time are
 * exact; the backward time charges zero replay and zero offload
 * exposure, then adds P2P and the stage-time factor exactly as
 * compute() does. compute()'s backward time adds critical replay and
 * exposed offload time, both never negative, and IEEE addition, max
 * and scaling by a non-negative constant are monotone, so floor.bwd
 * <= cost().bwd in every mode (overlap bubble, offload, straggler
 * factor, in-flight override). Floor and cost share the
 * representative's range sums, so on the everything-fits fast path
 * the floor *is* the cost, bit for bit.
 *
 * The partition DP (partition_dp.h) uses the floors as a
 * branch-and-bound. It expands only the reachable stage-0 state
 * P[0][0]. Each state visits its candidate splits in ascending floor
 * T and solves one exactly only while its floor is below the best
 * exact T, or equal to it at a smaller split j, which keeps the full
 * scan's tie-break (the smallest j among the minimal T). Last-stage
 * states start as floors and are solved on first use.
 */

#ifndef ADAPIPE_CORE_STAGE_COST_H
#define ADAPIPE_CORE_STAGE_COST_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "core/profiled_model.h"
#include "core/recompute_dp.h"
#include "util/units.h"

namespace adapipe {

class KnapsackMemo;

/**
 * Cost of running layers [i, j] as stage s.
 */
struct StageCost
{
    /** False when even full recomputation exceeds device memory. */
    bool feasible = false;
    /** Forward time per micro-batch, f[s,i,j]. */
    Seconds fwd = 0;
    /** Backward (incl. recomputation) time per micro-batch. */
    Seconds bwd = 0;
    /** Predicted peak memory of the stage. */
    Bytes memPeak = 0;
    /**
     * Rematerialisation buffer included in memPeak: scratch for one
     * layer's recomputed intermediates (0 on paths that plan no
     * replay).
     */
    Bytes recomputeBuffer = 0;
    /** Knapsack outcome (decision vector over the range's units). */
    RecomputePlanResult recompute;
    /** Total computation units in the range. */
    int totalUnits = 0;
    /**
     * Replay time per micro-batch expected to hide inside the
     * stage's bubble budget (StageCostOptions::overlapBubblePerMb);
     * 0 without a budget. Scaled by the stage-time factor like bwd.
     */
    Seconds replayHidden = 0;
    /**
     * Replay time per micro-batch left on the backward critical path
     * after the bubble discount; bwd includes exactly this much
     * recomputation (not the hidden part).
     */
    Seconds replayCritical = 0;
    /**
     * Non-overlapped offload transfer time per micro-batch on the
     * backward critical path; bwd includes exactly this much on top
     * of replayCritical. Reported disjointly from fwd (the offload
     * share is never folded into the forward time: the event
     * simulator replays fwd as real compute). Scaled by the
     * stage-time factor like bwd.
     */
    Seconds offloadExposed = 0;
    /** Host-link occupancy per micro-batch (evict + fetch). */
    Seconds offloadLinkTime = 0;
    /** Bytes per micro-batch staged to host. */
    Bytes offloadBytes = 0;
    /** Count of offloaded units in the range. */
    int offloadedUnits = 0;
};

/**
 * Knapsack-free lower bound of a StageCost (see
 * StageCostCalculator::costFloor()).
 */
struct StageCostFloor
{
    /** Exact: the verdict cost() reaches. */
    bool feasible = false;
    /** Exact forward time per micro-batch. */
    Seconds fwd = 0;
    /** Backward time with no replay and no offload exposure. */
    Seconds bwd = 0;
};

/**
 * Calculator configuration.
 */
struct StageCostOptions
{
    /**
     * Fraction of device memory the planner may commit (the paper
     * sets the DP constraint conservatively, e.g. 70 of 80 GB).
     */
    double memBudgetFraction = 0.875;
    /** Exploit range isomorphism (Sec. 5.3); off for the ablation. */
    bool useIsomorphism = true;
    /** Knapsack weight-bucket cap (RecomputeDpOptions::maxBuckets). */
    int maxBuckets = RecomputeDpOptions{}.maxBuckets;
    /** Knapsack GCD quantisation (RecomputeDpOptions::useGcd); off
     *  for the ablation. */
    bool useGcd = RecomputeDpOptions{}.useGcd;
    /**
     * Optional tri-choice keep/recompute/offload mode (see
     * OffloadOptions in recompute_dp.h). Copied into the solver's
     * RecomputeDpOptions per range; a linkBudgetPerMb of 0 is
     * derived from the range's own per-micro-batch compute time.
     * The calculator constructor rejects degenerate parameters
     * (bandwidth <= 0, overlapFraction outside [0, 1]).
     */
    OffloadOptions offload;
    /**
     * Per-stage execution-time multiplier for degraded-mode planning
     * (a straggling device runs its whole stage slower). Empty means
     * every stage runs at factor 1; stages beyond the vector default
     * to 1. The factor scales the final F_s and B_s (including P2P),
     * so planned times relate to healthy times by exactly this
     * factor. The isomorphism cache keys by the factor's value.
     */
    std::vector<double> stageTimeFactor;
    /**
     * Device memory capacity override in bytes for degraded-mode
     * planning (e.g. a reduced cap after fragmentation or partial HBM
     * loss); 0 keeps the profiled capacity.
     */
    Bytes memCapacityOverride = 0;
    /**
     * Per-stage in-flight micro-batch override. Empty keeps the
     * plain-1F1B closed form min(p - s, n); the interleaved planner
     * fills this with the exact per-chunk peaks read off the
     * schedule's device order (chunks deep in the chain keep fewer
     * activations alive than min(p - s, n) suggests). Stages beyond
     * the vector fall back to the closed form. Compatible with the
     * isomorphism cache: the cache key includes the in-flight count.
     */
    std::vector<int> inflightOverride;
    /**
     * Optional process-lifetime knapsack memo shared across
     * calculators (and across plan-server requests). Non-owning; the
     * memo must outlive every calculator built from these options.
     * Null solves every knapsack directly.
     */
    KnapsackMemo *knapsackMemo = nullptr;
    /**
     * Overlapped-recomputation bubble budget per stage, in idle
     * seconds available *per micro-batch* for hiding checkpoint
     * replay inside recv/send waits (derived from the event
     * simulator's per-device bubble time). Empty disables the
     * discount; stages beyond the vector get 0. The isomorphism
     * cache keys by the bubble's value: the same layer range costs
     * differently on stages with different bubbles (see
     * RecomputeDpOptions::overlapBubble for the objective change).
     */
    std::vector<Seconds> overlapBubblePerMb;
};

/**
 * Memoising stage cost calculator.
 */
class StageCostCalculator
{
  public:
    /**
     * @param pm profiled model (must outlive the calculator)
     * @param p pipeline-parallel size
     * @param n micro-batches per pipeline
     * @param opts configuration
     */
    StageCostCalculator(const ProfiledModel &pm, int p, int n,
                        StageCostOptions opts = {});

    /** Adds the stage_cost.* totals to the obs registry installed on
     *  the destroying thread, once (cost() is too hot to count). */
    ~StageCostCalculator();

    StageCostCalculator(const StageCostCalculator &) = delete;
    StageCostCalculator &operator=(const StageCostCalculator &) = delete;

    /**
     * Adaptive-recomputation cost of layers [i, j] as stage s
     * (memoised).
     */
    const StageCost &cost(int s, int i, int j);

    /**
     * Lower bound of cost(s, i, j) in O(1) that runs no knapsack:
     * exact feasibility and forward time, backward time without
     * replay or offload exposure, read from the range that
     * represents cost()'s class. Equal to cost() when every unit
     * fits.
     */
    StageCostFloor costFloor(int s, int i, int j);

    /**
     * Baseline cost of the same range under a uniform recomputation
     * policy (no knapsack; used for the DAPPLE baselines).
     */
    StageCost baselineCost(int s, int i, int j,
                           RecomputeBaseline mode) const;

    /**
     * Convenience overload: true = full, false = no recomputation.
     */
    StageCost
    baselineCost(int s, int i, int j, bool full_recompute) const
    {
        return baselineCost(s, i, j,
                            full_recompute ? RecomputeBaseline::Full
                                           : RecomputeBaseline::None);
    }

    /** @return knapsack executions performed (ablation metric). */
    std::size_t knapsackRuns() const { return knapsack_runs_; }

    /** @return memoised lookups that hit the isomorphism cache. */
    std::size_t cacheHits() const { return cache_hits_; }

    /** @return distinct stage costs computed (cache misses). */
    std::size_t evaluations() const { return cache_.size(); }

    /** @return in-flight micro-batches of stage s: the override
     *  entry when StageCostOptions::inflightOverride covers s, else
     *  the 1F1B closed form min(p - s, n). */
    int inflight(int s) const;

    /** @return effective device capacity (override or profiled). */
    Bytes capacity() const;

    /** @return the execution-time multiplier of stage s. */
    double timeFactor(int s) const;

    /** @return stage s's per-micro-batch replay bubble budget. */
    Seconds overlapBubble(int s) const;

  private:
    /** Cost of representative range [i, j] as stage s. */
    StageCost compute(int s, int i, int j);

    /** Static + buffer + per-mb fixed memory common to all modes. */
    struct MemoryBreakdown
    {
        Bytes staticMem = 0;
        Bytes buffer = 0;
        Bytes input = 0;
        Bytes alwaysSaved = 0;
    };
    MemoryBreakdown breakdown(int i, int j) const;

    /** Everything a range's cost reads of its layers. */
    struct RangeSums
    {
        MemoryBreakdown mem;
        Seconds fwdAll = 0;
        Seconds bwdAll = 0;
        /** Forward time of the units that are not always saved. */
        Seconds fwdRecomputable = 0;
        Bytes savedAll = 0;
        /** Computation units in the range. */
        int units = 0;
    };

    /** The sums of the ranges starting at one layer, filled by one
     *  pass on first use. */
    struct StartSums
    {
        bool filled = false;
        /** [i, i + k] at k, for the interior ranges the start
         *  represents; empty for other starts. */
        std::vector<RangeSums> row;
        /** [i, L - 1]: the range up to and including the head. */
        RangeSums head;
    };

    /** @return the range that represents [i, j]'s class. */
    std::pair<int, int> representative(int i, int j) const;

    /** @return the sums of representative range [i, j]. */
    const RangeSums &rangeSums(int i, int j);

    /** Stage s's memory verdicts on one range, shared by costFloor()
     *  and compute(). */
    struct Verdict
    {
        /** Peak with every unit saved and no recompute buffer. */
        Bytes noRecomputeTotal = 0;
        /** Peak with every optional unit recomputed. */
        Bytes minimal = 0;
        /** Everything fits: compute() skips the knapsack. */
        bool fastPath = false;
        bool feasible = false;
    };
    Verdict verdict(int s, const RangeSums &r) const;

    /** Add P2P and scale by the stage-time factor, as cost() does. */
    void addStageOverheads(int s, int i, Seconds &fwd,
                           Seconds &bwd) const;

    const ProfiledModel &pm_;
    MemoryModel mem_model_;
    int p_;
    int n_;
    StageCostOptions opts_;
    /** Planner byte budget (memBudgetFraction of capacity). */
    std::int64_t budget_ = 0;
    /** Keyed by (stage class, representative), one integer. */
    std::map<std::int64_t, StageCost> cache_;
    std::vector<StartSums> starts_;
    /** compute()'s gathered units, reused across calls. */
    std::vector<UnitProfile> units_;
    std::size_t knapsack_runs_ = 0;
    std::size_t cache_hits_ = 0;
    std::size_t memo_hits_ = 0;
    std::size_t memo_misses_ = 0;
    /** Per stage, its isomorphism class (see the constructor); the
     *  stage itself with useIsomorphism off. */
    std::vector<int> stage_class_;
    /** Per layer, the start of the interior ranges that represent
     *  ranges starting there; the layer itself with useIsomorphism
     *  off. */
    std::vector<int> rep_start_;
};

} // namespace adapipe

#endif // ADAPIPE_CORE_STAGE_COST_H
