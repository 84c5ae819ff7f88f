/**
 * @file
 * Randomized differential test of Algorithm 1's branch-and-bound
 * search against the plain full scan it replaced.
 *
 * The reference below is the earlier solveAdaptivePartition loop,
 * copied verbatim except for its obs counters: it expands every
 * state of every stage and solves every transition exactly. Each
 * seed draws one configuration over the presets, pipeline depth,
 * micro-batch count, sequence length, memory capacity and budget
 * fraction, straggler factors, overlap bubbles, in-flight overrides,
 * offload, P2P charging and the knapsack knobs. Both searches run on
 * separate calculators with the same options; they must return the
 * same ranges and bit-equal timings, and the branch-and-bound must
 * make no more exact cost() evaluations. The branch-and-bound also
 * runs on a calculator with the isomorphism cache off, which costs
 * every (s, i, j) on its own: it must return the same plan, and each
 * chosen stage's cost must be bit-equal in every field a plan reads,
 * so keying the cache by a straggler's factor and a stage's bubble
 * changes no byte. Every draw with the isomorphism cache on runs
 * once more on a perturbed copy of its profile, each unit's times
 * scaled by its own seeded factor in [1, 1.05), the way a measured
 * profile differs from layer to layer: there the branch-and-bound
 * must still match the full scan, although the two ask for ranges in
 * different orders, because each class is costed on a fixed
 * representative range. A failure prints a one-line repro: the seed
 * and the configuration it drew. Tier-1 runs seeds 1..240; the
 * disabled wide slice runs 2,048 more for CI
 * (--gtest_also_run_disabled_tests --gtest_filter='DISABLED_*'). A
 * hand-built instance pins the equal-floor tie-break, which random
 * draws never reach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/partition_dp.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "util/logging.h"
#include "util/rng.h"

namespace adapipe {
namespace {

// --- Reference: the full-scan Algorithm 1 -------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

struct State
{
    Seconds w = kInf;
    Seconds e = kInf;
    Seconds m = kInf;
    Seconds f = 0;
    Seconds b = 0;
    Seconds t = kInf;
    int split = -1;

    bool valid() const { return t < kInf; }
};

PartitionDpResult
referencePartition(StageCostCalculator &calc, int num_layers, int p,
                   int n)
{
    const int L = num_layers;
    std::vector<std::vector<State>> dp(
        p, std::vector<State>(L, State{}));

    // Base case: the last stage takes everything from i to L-1.
    for (int i = p - 1; i <= L - 1; ++i) {
        const StageCost &c = calc.cost(p - 1, i, L - 1);
        if (!c.feasible) {
            continue;
        }
        State st;
        st.f = c.fwd;
        st.b = c.bwd;
        st.w = c.fwd;
        st.e = c.bwd;
        st.m = c.fwd + c.bwd;
        st.t = st.w + st.e +
               static_cast<double>(std::max(0, n - 1)) * st.m;
        st.split = L - 1;
        dp[p - 1][i] = st;
    }

    for (int s = p - 2; s >= 0; --s) {
        const int max_i = L - (p - s);
        for (int i = s; i <= max_i; ++i) {
            State best;
            for (int j = i; j <= max_i; ++j) {
                const State &next = dp[s + 1][j + 1];
                if (!next.valid())
                    continue;
                const StageCost &c = calc.cost(s, i, j);
                if (!c.feasible) {
                    continue;
                }
                const double warm = static_cast<double>(p - s - 1);
                State cand;
                cand.f = c.fwd;
                cand.b = c.bwd;
                cand.w = c.fwd +
                         std::max(next.w + next.b, warm * c.fwd);
                cand.e = c.bwd +
                         std::max(next.e + next.f, warm * c.bwd);
                cand.m = std::max(next.m, c.fwd + c.bwd);
                const double steady =
                    static_cast<double>(std::max(0, n - p + s));
                cand.t = cand.w + cand.e + steady * cand.m;
                cand.split = j;
                if (cand.t < best.t)
                    best = cand;
            }
            dp[s][i] = best;
        }
    }

    PartitionDpResult result;
    const State &root = dp[0][0];
    if (!root.valid()) {
        return result;
    }

    result.feasible = true;
    result.timing.warmup = root.w;
    result.timing.ending = root.e;
    result.timing.steadyPerMb = root.m;
    result.timing.total = root.t;

    int i = 0;
    for (int s = 0; s < p; ++s) {
        const int j = dp[s][i].split;
        ADAPIPE_ASSERT(j >= i, "broken DP backtrack at stage ", s);
        result.ranges.emplace_back(i, j);
        i = j + 1;
    }
    ADAPIPE_ASSERT(i == L, "partition does not cover all layers");
    return result;
}

// --- Random configurations ----------------------------------------

/** One drawn search problem. */
struct SearchConfig
{
    std::uint64_t seed = 0;
    std::string preset;
    ModelConfig model;
    int tensor = 1;
    int p = 1;
    int n = 1;
    int seq = 0;
    /** Charge P2P; false zeroes the profile's p2pTime. */
    bool p2p = true;
    StageCostOptions opts;

    /** @return the configuration, with the profile's P2P time
     *  @p p2p_time, on one line. */
    std::string
    describe(Seconds p2p_time) const
    {
        std::ostringstream os;
        os << "seed=" << seed << " model=" << preset
           << " blocks=" << model.numBlocks << " t=" << tensor
           << " p=" << p << " n=" << n << " seq=" << seq
           << " cap=" << opts.memCapacityOverride
           << " frac=" << opts.memBudgetFraction
           << " p2p_time=" << p2p_time
           << " iso=" << opts.useIsomorphism
           << " buckets=" << opts.maxBuckets
           << " gcd=" << opts.useGcd
           << " offload=" << opts.offload.enabled;
        const auto list = [&os](const char *name, const auto &v) {
            os << ' ' << name << '=';
            for (std::size_t k = 0; k < v.size(); ++k)
                os << (k ? "," : "") << v[k];
        };
        list("factor", opts.stageTimeFactor);
        list("bubble", opts.overlapBubblePerMb);
        list("inflight", opts.inflightOverride);
        return os.str();
    }
};

ModelConfig
presetModel(const std::string &name)
{
    if (name == "gpt3-13b")
        return gpt3_13b();
    if (name == "llama2-13b")
        return llama2_13b();
    return tinyTestModel();
}

ProfiledModel
profile(const SearchConfig &c)
{
    TrainConfig train;
    train.seqLen = c.seq;
    train.globalBatch = c.n;
    ParallelConfig par;
    par.tensor = c.tensor;
    par.pipeline = c.p;
    par.data = 1;
    return buildProfiledModel(c.model, train, par, clusterA(2));
}

/**
 * Draw configuration @p seed. Capacities are placed relative to the
 * probe split's memory peaks (every unit recomputed vs every unit
 * saved) and the budget fraction spans 0.3-1.0, so the planner's
 * budget lands on both sides of the feasibility boundary, inside the
 * knapsack regime and above the everything-fits boundary; the test
 * counts each regime.
 */
SearchConfig
drawConfig(std::uint64_t seed)
{
    Rng rng(seed);
    SearchConfig c;
    c.seed = seed;
    static const char *presets[] = {"tiny-test", "gpt3-13b",
                                    "llama2-13b"};
    c.preset = presets[rng.uniformInt(0, 2)];
    c.model = presetModel(c.preset);
    c.p = static_cast<int>(rng.uniformInt(1, 8));
    // Full depth for shallow pipelines, else a truncated stack
    // (L = 2 * blocks + 2 >= p) keeps the reference's O(p L^2)
    // knapsacks affordable.
    if (c.preset != "tiny-test" && (c.p > 3 || rng.uniform() < 0.7))
        c.model.numBlocks = static_cast<int>(rng.uniformInt(3, 10));
    c.tensor = c.preset == "tiny-test" ? 1 : 2;
    static const int ns[] = {1, 2, 3, 4, 8, 16, 32};
    c.n = ns[rng.uniformInt(0, 6)];
    static const int seqs[] = {128, 512, 1024, 2048, 4096};
    c.seq = seqs[rng.uniformInt(c.preset == "tiny-test" ? 0 : 1, 4)];

    StageCostOptions &o = c.opts;
    c.p2p = rng.uniform() < 0.5;
    o.useIsomorphism = rng.uniform() < 0.85;
    static const int buckets[] = {64, 256, 1024};
    o.maxBuckets = buckets[rng.uniformInt(0, 2)];
    o.useGcd = rng.uniform() < 0.9;

    // Probe the even split: per-stage peaks and forward times.
    const ProfiledModel pm = profile(c);
    const int L = pm.numLayers();
    StageCostCalculator probe(pm, c.p, c.n);
    Bytes lo = 0;
    Bytes hi = 0;
    std::vector<Seconds> fwd(c.p);
    for (int s = 0; s < c.p; ++s) {
        const int i = s * L / c.p;
        const int j = (s + 1) * L / c.p - 1;
        lo = std::max(lo, probe.baselineCost(s, i, j, true).memPeak);
        hi = std::max(hi, probe.baselineCost(s, i, j, false).memPeak);
        fwd[s] = probe.baselineCost(s, i, j, false).fwd;
    }
    hi = std::max(hi, lo + 1);
    const double lo_d = static_cast<double>(lo);
    const double hi_d = static_cast<double>(hi);
    switch (rng.uniformInt(0, 3)) {
      case 0: // below the probe's feasibility boundary
        o.memCapacityOverride =
            static_cast<Bytes>(lo_d * rng.uniform(0.6, 1.0));
        break;
      case 1: // between all-recompute and all-saved
        o.memCapacityOverride =
            static_cast<Bytes>(rng.uniform(lo_d, hi_d));
        break;
      case 2: // around the everything-fits boundary
        o.memCapacityOverride =
            static_cast<Bytes>(hi_d * rng.uniform(0.9, 2.2));
        break;
      default: // the device's own capacity
        break;
    }
    o.memBudgetFraction = rng.uniform(0.3, 1.0);

    if (rng.uniform() < 0.3) {
        o.stageTimeFactor.assign(c.p, 1.0);
        o.stageTimeFactor[rng.uniformInt(0, c.p - 1)] =
            rng.uniform(1.1, 3.0);
    }
    if (rng.uniform() < 0.25) {
        for (int s = 0; s < c.p; ++s)
            o.overlapBubblePerMb.push_back(
                rng.uniform() < 0.3 ? 0.0
                                    : rng.uniform(0.0, 0.5) * fwd[s]);
    }
    if (rng.uniform() < 0.25) {
        for (int s = 0; s < c.p; ++s)
            o.inflightOverride.push_back(static_cast<int>(
                rng.uniformInt(1, std::min(c.p - s, c.n) + 1)));
    }
    if (rng.uniform() < 0.3) {
        // Small tri-choice tables keep the reference affordable.
        o.offload.enabled = true;
        o.offload.overlapFraction = rng.uniform(0.0, 1.0);
        o.offload.bandwidth = rng.uniform(5e9, 50e9);
        o.offload.maxLinkBuckets = 4;
        o.offload.maxOffloadMemBuckets = 24;
        o.offload.maxHiddenBuckets = 4;
    }
    return c;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** @return @p pm with each unit's times scaled by its own factor in
 *  [1, 1.05), drawn from @p seed: no two layers stay isomorphic. */
ProfiledModel
perturbed(ProfiledModel pm, std::uint64_t seed)
{
    Rng rng(seed ^ 0x5bd1e995u);
    for (ProfiledLayer &layer : pm.layers) {
        for (UnitProfile &u : layer.units) {
            const double factor = rng.uniform(1.0, 1.05);
            u.timeFwd *= factor;
            u.timeBwd *= factor;
        }
    }
    return pm;
}

/** Expect @p got to be @p want's plan: feasibility, ranges and
 *  bit-equal timing. */
void
expectSamePartition(const PartitionDpResult &got,
                    const PartitionDpResult &want,
                    const std::string &repro)
{
    EXPECT_EQ(got.feasible, want.feasible) << repro;
    EXPECT_EQ(got.ranges, want.ranges) << repro;
    EXPECT_EQ(bits(got.timing.warmup), bits(want.timing.warmup))
        << repro;
    EXPECT_EQ(bits(got.timing.ending), bits(want.timing.ending))
        << repro;
    EXPECT_EQ(bits(got.timing.steadyPerMb),
              bits(want.timing.steadyPerMb))
        << repro;
    EXPECT_EQ(bits(got.timing.total), bits(want.timing.total))
        << repro;
}

/** Expect @p got and @p want bit-equal in every field a plan reads. */
void
expectSameStageCost(const StageCost &got, const StageCost &want,
                    const std::string &where)
{
    EXPECT_EQ(got.feasible, want.feasible) << where;
    EXPECT_EQ(bits(got.fwd), bits(want.fwd)) << where;
    EXPECT_EQ(bits(got.bwd), bits(want.bwd)) << where;
    EXPECT_EQ(got.memPeak, want.memPeak) << where;
    EXPECT_EQ(bits(got.replayHidden), bits(want.replayHidden)) << where;
    EXPECT_EQ(bits(got.replayCritical), bits(want.replayCritical))
        << where;
    EXPECT_EQ(bits(got.offloadExposed), bits(want.offloadExposed))
        << where;
    EXPECT_EQ(got.recompute.saved, want.recompute.saved) << where;
    EXPECT_EQ(got.recompute.offloaded, want.recompute.offloaded)
        << where;
}

/**
 * Check seeds [@p first, @p last] and that the draws straddle every
 * regime and knob, with @p scale times the minimum counts of 240
 * draws.
 */
void
checkSeeds(std::uint64_t first, std::uint64_t last, int scale)
{
    int infeasible = 0;
    int knapsack = 0;
    int fast_only = 0;
    int straggler = 0;
    int bubble = 0;
    int iso_keyed = 0;
    int inflight = 0;
    int offload = 0;
    int no_p2p = 0;
    int deep = 0;
    int perturbed_knapsack = 0;
    for (std::uint64_t seed = first; seed <= last; ++seed) {
        const SearchConfig c = drawConfig(seed);
        ProfiledModel pm = profile(c);
        // Adding +0.0 to a non-negative time changes no bit, so a
        // zero P2P time is exactly a stage cost without P2P.
        if (!c.p2p)
            pm.p2pTime = 0;
        const std::string repro = c.describe(pm.p2pTime);
        const int L = pm.numLayers();

        StageCostCalculator ref_calc(pm, c.p, c.n, c.opts);
        StageCostCalculator new_calc(pm, c.p, c.n, c.opts);
        const PartitionDpResult ref =
            referencePartition(ref_calc, L, c.p, c.n);
        const PartitionDpResult got =
            solveAdaptivePartition(new_calc, L, c.p, c.n);
        expectSamePartition(got, ref, repro);
        EXPECT_LE(new_calc.evaluations(), ref_calc.evaluations())
            << repro;

        StageCostOptions raw_opts = c.opts;
        raw_opts.useIsomorphism = false;
        StageCostCalculator raw_calc(pm, c.p, c.n, raw_opts);
        const PartitionDpResult raw =
            solveAdaptivePartition(raw_calc, L, c.p, c.n);
        expectSamePartition(got, raw, repro + " (raw keys)");
        if (got.ranges == raw.ranges) {
            for (int s = 0; s < static_cast<int>(got.ranges.size());
                 ++s) {
                const auto [i, j] = got.ranges[s];
                expectSameStageCost(new_calc.cost(s, i, j),
                                    raw_calc.cost(s, i, j),
                                    repro + " stage=" +
                                        std::to_string(s));
            }
        }

        if (c.opts.useIsomorphism) {
            const ProfiledModel noisy = perturbed(pm, seed);
            StageCostCalculator ref_noisy(noisy, c.p, c.n, c.opts);
            StageCostCalculator new_noisy(noisy, c.p, c.n, c.opts);
            const PartitionDpResult want =
                referencePartition(ref_noisy, L, c.p, c.n);
            expectSamePartition(
                solveAdaptivePartition(new_noisy, L, c.p, c.n), want,
                repro + " (perturbed profile)");
            EXPECT_LE(new_noisy.evaluations(), ref_noisy.evaluations())
                << repro << " (perturbed profile)";
            perturbed_knapsack +=
                want.feasible && ref_noisy.knapsackRuns() > 0;
        }

        if (!ref.feasible)
            ++infeasible;
        else if (ref_calc.knapsackRuns() > 0)
            ++knapsack;
        else
            ++fast_only;
        straggler += !c.opts.stageTimeFactor.empty();
        bubble += !c.opts.overlapBubblePerMb.empty();
        iso_keyed += c.opts.useIsomorphism &&
                     (!c.opts.stageTimeFactor.empty() ||
                      !c.opts.overlapBubblePerMb.empty());
        inflight += !c.opts.inflightOverride.empty();
        offload += c.opts.offload.enabled;
        no_p2p += !c.p2p;
        deep += c.p >= 5;
    }
    EXPECT_GE(infeasible, 15 * scale);
    EXPECT_GE(knapsack, 60 * scale);
    EXPECT_GE(fast_only, 15 * scale);
    EXPECT_GE(straggler, 30 * scale);
    EXPECT_GE(bubble, 30 * scale);
    EXPECT_GE(iso_keyed, 60 * scale);
    EXPECT_GE(inflight, 30 * scale);
    EXPECT_GE(offload, 30 * scale);
    EXPECT_GE(no_p2p, 60 * scale);
    EXPECT_GE(deep, 60 * scale);
    EXPECT_GE(perturbed_knapsack, 80 * scale);
    std::cout << "regimes: infeasible=" << infeasible
              << " knapsack=" << knapsack << " fast_only=" << fast_only
              << " iso_keyed=" << iso_keyed
              << " perturbed_knapsack=" << perturbed_knapsack << '\n';
}

TEST(PartitionDifferential, BranchAndBoundMatchesFullScan)
{
    checkSeeds(1, 240, 1);
}

TEST(DISABLED_WidePartitionDifferential, BranchAndBoundMatchesFullScan)
{
    checkSeeds(241, 2288, 8);
}

TEST(PartitionDifferential, EqualFloorAtSmallerSplitIsSolved)
{
    // p = 2, n = 2 with dyadic times, so every sum is exact. Layers
    // (fwd, bwd, bytes): embedding (1, 1, M), attention (1, 1, M),
    // feed-forward (2, 0, 3M), head (8, 8, M). Split j = 2 has the
    // lowest floor, 38, but its stage 0 must replay the feed-forward
    // unit, so its exact time is 40. Split j = 1 fits everything:
    // floor and exact time are both 40. The search must still solve
    // j = 1 (equal floor, smaller split) and pick it, as the full
    // scan does.
    ModelConfig model = tinyTestModel();
    model.numBlocks = 1;
    TrainConfig train;
    train.seqLen = 128;
    train.globalBatch = 2;
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = 2;
    par.data = 1;
    ProfiledModel pm = buildProfiledModel(model, train, par, clusterA(1));
    ASSERT_EQ(pm.numLayers(), 4);
    constexpr Bytes M = Bytes{1} << 20;
    const struct
    {
        Seconds fwd;
        Seconds bwd;
        Bytes mem;
    } spec[] = {{1, 1, M}, {1, 1, M}, {2, 0, 3 * M}, {8, 8, M}};
    for (int l = 0; l < 4; ++l) {
        UnitProfile u;
        u.timeFwd = spec[l].fwd;
        u.timeBwd = spec[l].bwd;
        u.memSaved = spec[l].mem;
        pm.layers[l].params = 0;
        pm.layers[l].units = {u};
        ComputationUnit raw;
        raw.memSaved = spec[l].mem;
        pm.rawLayers[l].units = {raw};
    }
    pm.stageInputBytes = 0;
    pm.p2pTime = 0;
    StageCostOptions opts;
    opts.memBudgetFraction = 1.0;
    // Stage 0 holds two micro-batches: split j = 2 needs 10M saved
    // (no fast path) and gets (8M - 3M buffer) / 2 = 2.5M per
    // micro-batch, which keeps embedding and attention only.
    opts.memCapacityOverride = 8 * M;

    StageCostCalculator ref_calc(pm, 2, 2, opts);
    StageCostCalculator new_calc(pm, 2, 2, opts);
    const PartitionDpResult ref = referencePartition(ref_calc, 4, 2, 2);
    const PartitionDpResult got =
        solveAdaptivePartition(new_calc, 4, 2, 2);
    const std::vector<std::pair<int, int>> want{{0, 1}, {2, 3}};
    ASSERT_TRUE(ref.feasible);
    EXPECT_EQ(ref.timing.total, 40.0);
    EXPECT_EQ(ref.ranges, want);
    EXPECT_EQ(got.ranges, want);
    EXPECT_EQ(bits(got.timing.total), bits(ref.timing.total));
    EXPECT_EQ(new_calc.cost(0, 0, 2).replayCritical, 2.0);
}

} // namespace
} // namespace adapipe
