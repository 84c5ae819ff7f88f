/**
 * @file
 * Optimality oracle for the Sec. 4.3 recomputation knapsack:
 * exhaustively enumerate every save-subset of small unit sets (all
 * 2^U of them, independently of the library's bruteForceRecompute)
 * and verify the DP matches the best feasible one exactly — value,
 * budget feasibility and tie-breaking invariants.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/recompute_dp.h"
#include "util/rng.h"

namespace adapipe {
namespace {

UnitProfile
unit(Seconds time_f, Bytes mem, bool always_saved = false)
{
    UnitProfile u;
    u.timeFwd = time_f;
    u.timeBwd = 2 * time_f;
    u.memSaved = mem;
    u.alwaysSaved = always_saved;
    return u;
}

/** The exhaustive optimum over all 2^U save-subsets. */
struct OracleResult
{
    Seconds bestValue = -1;
    Bytes bestBytes = 0;
    bool feasibleExists = false;
};

OracleResult
enumerateSaveSubsets(const std::vector<UnitProfile> &units,
                     std::int64_t budget)
{
    const std::size_t n = units.size();
    EXPECT_LE(n, 20u) << "oracle is exponential, keep instances small";
    OracleResult oracle;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        Seconds value = 0;
        std::int64_t bytes = 0;
        bool valid = true;
        for (std::size_t i = 0; i < n; ++i) {
            const bool take = (mask >> i) & 1u;
            if (units[i].alwaysSaved) {
                // Always-saved units sit outside the knapsack: every
                // candidate subset must include them at zero cost.
                if (!take)
                    valid = false;
                continue;
            }
            if (take) {
                value += units[i].timeFwd;
                bytes += static_cast<std::int64_t>(units[i].memSaved);
            }
        }
        if (!valid || bytes > std::max<std::int64_t>(budget, 0))
            continue;
        oracle.feasibleExists = true;
        if (value > oracle.bestValue) {
            oracle.bestValue = value;
            oracle.bestBytes = static_cast<Bytes>(bytes);
        }
    }
    return oracle;
}

/** Re-derive the DP result's value/bytes from its saved[] vector. */
void
checkSelfConsistent(const std::vector<UnitProfile> &units,
                    const RecomputePlanResult &r)
{
    ASSERT_EQ(r.saved.size(), units.size());
    Seconds value = 0;
    Bytes bytes = 0;
    int count = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].alwaysSaved) {
            EXPECT_TRUE(r.saved[i]) << "unit " << i;
        }
        if (!r.saved[i])
            continue;
        ++count;
        if (units[i].alwaysSaved)
            continue;
        value += units[i].timeFwd;
        bytes += units[i].memSaved;
    }
    EXPECT_NEAR(r.savedFwdTime, value, 1e-12);
    EXPECT_EQ(r.savedBytes, bytes);
    EXPECT_EQ(r.savedUnits, count);
}

/**
 * Parameter: RNG seed. Each seed builds a random instance with
 * power-of-two unit sizes (so GCD quantisation is lossless and the
 * DP must be *exactly* optimal), a random mix of always-saved units
 * and a random budget including the 0 and everything-fits edges.
 */
class RecomputeOracle : public ::testing::TestWithParam<int>
{};

TEST_P(RecomputeOracle, DpMatchesExhaustiveSubsetEnumeration)
{
    Rng rng(GetParam());
    const int n = 3 + GetParam() % 10;
    std::vector<UnitProfile> units;
    std::int64_t total = 0;
    for (int i = 0; i < n; ++i) {
        const bool always = rng.uniform() < 0.2;
        const Bytes mem = static_cast<Bytes>(256)
                          << rng.uniformInt(0, 6);
        units.push_back(unit(rng.uniform(0.05, 4.0), mem, always));
        if (!always)
            total += static_cast<std::int64_t>(mem);
    }

    // Budgets: empty, partial (random fractions), exactly-full and
    // overflowing.
    std::vector<std::int64_t> budgets{0, total, total + 123};
    for (int b = 0; b < 4; ++b)
        budgets.push_back(256 * rng.uniformInt(0, static_cast<int>(
                                                      total / 256)));

    for (const std::int64_t budget : budgets) {
        const OracleResult oracle =
            enumerateSaveSubsets(units, budget);
        const RecomputePlanResult dp =
            solveRecomputeKnapsack(units, budget);

        checkSelfConsistent(units, dp);
        ASSERT_TRUE(oracle.feasibleExists)
            << "all-recompute is always feasible";
        EXPECT_NEAR(dp.savedFwdTime, oracle.bestValue, 1e-9)
            << "seed " << GetParam() << " budget " << budget;
        EXPECT_LE(dp.savedBytes,
                  static_cast<Bytes>(std::max<std::int64_t>(budget, 0)))
            << "seed " << GetParam() << " budget " << budget;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecomputeOracle,
                         ::testing::Range(1, 41));

TEST(RecomputeOracle, DegenerateInstances)
{
    // No units at all.
    const auto empty = solveRecomputeKnapsack({}, 1024);
    EXPECT_TRUE(empty.saved.empty());
    EXPECT_EQ(empty.savedUnits, 0);
    EXPECT_DOUBLE_EQ(empty.savedFwdTime, 0.0);

    // Only always-saved units: nothing to optimise, zero budget use.
    std::vector<UnitProfile> fixed{unit(1.0, 4096, true),
                                   unit(2.0, 8192, true)};
    const auto r = solveRecomputeKnapsack(fixed, 0);
    EXPECT_TRUE(r.saved[0]);
    EXPECT_TRUE(r.saved[1]);
    EXPECT_EQ(r.savedUnits, 2);
    EXPECT_EQ(r.savedBytes, 0u);

    // A unit bigger than any budget can never be saved.
    std::vector<UnitProfile> big{unit(10.0, 1 << 30)};
    const auto never = solveRecomputeKnapsack(big, 1 << 20);
    EXPECT_FALSE(never.saved[0]);
}

TEST(RecomputeOracle, ZeroCostUnitsSitOutsideTheKnapsack)
{
    // Contract: a unit with memSaved == 0 participates in neither
    // the knapsack nor the save set (optionalUnits filters it), at
    // any budget — the DP and the library brute force must agree.
    std::vector<UnitProfile> units{unit(1.0, 0), unit(2.0, 1024)};
    for (const std::int64_t budget : {std::int64_t{0},
                                      std::int64_t{1 << 20}}) {
        const auto dp = solveRecomputeKnapsack(units, budget);
        const auto bf = bruteForceRecompute(units, budget);
        EXPECT_FALSE(dp.saved[0]) << "budget " << budget;
        EXPECT_FALSE(bf.saved[0]) << "budget " << budget;
        EXPECT_EQ(dp.saved[1], bf.saved[1]) << "budget " << budget;
        EXPECT_NEAR(dp.savedFwdTime, bf.savedFwdTime, 1e-12);
    }
}

TEST(RecomputeOracle, ZeroBubbleMatchesTheLegacyObjective)
{
    // overlapBubble = 0 must be a perfect no-op: identical saved
    // vectors and bookkeeping for both solvers, with the new
    // hidden/critical fields reporting the whole replay as critical.
    Rng rng(7);
    std::vector<UnitProfile> units;
    for (int i = 0; i < 9; ++i)
        units.push_back(unit(rng.uniform(0.1, 3.0),
                             256 * rng.uniformInt(1, 16),
                             rng.uniform() < 0.15));
    const std::int64_t budget = 256 * 20;

    RecomputeDpOptions with_bubble;
    with_bubble.overlapBubble = 0;
    const auto legacy = solveRecomputeKnapsack(units, budget);
    const auto dp = solveRecomputeKnapsack(units, budget, with_bubble);
    EXPECT_EQ(dp.saved, legacy.saved);
    EXPECT_EQ(dp.savedBytes, legacy.savedBytes);
    EXPECT_DOUBLE_EQ(dp.hiddenReplayTime, 0.0);
    EXPECT_DOUBLE_EQ(dp.criticalReplayTime, legacy.criticalReplayTime);

    const auto bf2 = bruteForceRecompute(units, budget);
    const auto bf3 = bruteForceRecompute(units, budget, 0);
    EXPECT_EQ(bf3.saved, bf2.saved);
    EXPECT_DOUBLE_EQ(bf3.hiddenReplayTime, 0.0);
}

TEST(RecomputeOracle, BubbleCoveringAllReplaySavesNothing)
{
    // A bubble at least as large as every optional unit's replay
    // makes saving pointless: the solver must spend zero memory and
    // report the whole replay as hidden.
    std::vector<UnitProfile> units{unit(1.0, 1024), unit(2.0, 2048),
                                   unit(0.5, 512, true)};
    RecomputeDpOptions opts;
    opts.overlapBubble = 10.0; // >> 1.0 + 2.0 of optional replay
    const auto dp =
        solveRecomputeKnapsack(units, 1 << 20, opts);
    EXPECT_FALSE(dp.saved[0]);
    EXPECT_FALSE(dp.saved[1]);
    EXPECT_TRUE(dp.saved[2]);
    EXPECT_EQ(dp.savedBytes, 0u);
    EXPECT_DOUBLE_EQ(dp.criticalReplayTime, 0.0);
    EXPECT_DOUBLE_EQ(dp.hiddenReplayTime, 3.0);

    const auto bf = bruteForceRecompute(units, 1 << 20, 10.0);
    EXPECT_EQ(bf.saved, dp.saved);
    EXPECT_DOUBLE_EQ(bf.criticalReplayTime, 0.0);
}

TEST(RecomputeOracle, DiscountedDpMatchesBruteForce)
{
    // Random instances with exactly-representable quarter-integer
    // times and 256-multiple sizes (GCD quantisation lossless, float
    // sums exact), bubbles offset by 1/8 so no comparison ever lands
    // on a tie: the DP's discounted solution must match the
    // lexicographic brute force bit for bit.
    for (int seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const int n = 4 + seed % 7;
        std::vector<UnitProfile> units;
        std::int64_t total = 0;
        Seconds total_fwd = 0;
        for (int i = 0; i < n; ++i) {
            const bool always = rng.uniform() < 0.15;
            // memSaved == 0 keeps the unit outside the knapsack but
            // inside the fixed replay the bubble absorbs first.
            const Bytes mem =
                rng.uniform() < 0.2
                    ? 0
                    : static_cast<Bytes>(256 * rng.uniformInt(1, 8));
            const Seconds t = 0.25 * rng.uniformInt(1, 16);
            units.push_back(unit(t, mem, always));
            if (!always) {
                total += static_cast<std::int64_t>(mem);
                total_fwd += t;
            }
        }
        const std::int64_t budget =
            256 * rng.uniformInt(0, static_cast<int>(total / 256));
        const Seconds bubble =
            0.25 * rng.uniformInt(0, static_cast<int>(
                                         total_fwd * 4 + 4)) +
            0.125;

        RecomputeDpOptions opts;
        opts.overlapBubble = bubble;
        const auto dp = solveRecomputeKnapsack(units, budget, opts);
        const auto bf = bruteForceRecompute(units, budget, bubble);
        checkSelfConsistent(units, dp);

        EXPECT_DOUBLE_EQ(dp.criticalReplayTime, bf.criticalReplayTime)
            << "seed " << seed << " bubble " << bubble << " budget "
            << budget;
        EXPECT_DOUBLE_EQ(dp.hiddenReplayTime, bf.hiddenReplayTime)
            << "seed " << seed;
        EXPECT_LE(dp.savedBytes,
                  static_cast<Bytes>(std::max<std::int64_t>(budget, 0)));
        if (bf.criticalReplayTime == 0.0) {
            // Zero critical replay is achievable: both solvers must
            // then spend the *minimal* memory that achieves it.
            EXPECT_EQ(dp.savedBytes, bf.savedBytes)
                << "seed " << seed << " bubble " << bubble;
        }
        // hidden + critical always reconstructs the full replay of
        // the unsaved units.
        Seconds unsaved = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (!units[i].alwaysSaved && !dp.saved[i])
                unsaved += units[i].timeFwd;
        }
        EXPECT_NEAR(dp.hiddenReplayTime + dp.criticalReplayTime,
                    unsaved, 1e-9)
            << "seed " << seed;
    }
}

TEST(TriChoiceOracle, DpMatchesBruteForceOnRepresentableInstances)
{
    // Random keep/recompute/offload instances built so every DP
    // quantisation is lossless: memory sizes are 256-multiples (GCD
    // granularity 256), the link budget is maxLinkBuckets * 256 with
    // bandwidth 2 B/s (linkTime(bytes) == bytes, an exact multiple of
    // the 256 s/bucket link granularity) and times are
    // quarter-integers. The DP must then match the exponential
    // tri-choice oracle exactly — objective and tie-break fields.
    for (int seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const int n = 3 + seed % 8;
        std::vector<UnitProfile> units;
        std::int64_t total = 0;
        for (int i = 0; i < n; ++i) {
            const bool always = rng.uniform() < 0.15;
            const Bytes mem =
                static_cast<Bytes>(256 * rng.uniformInt(1, 8));
            units.push_back(
                unit(0.25 * rng.uniformInt(1, 16), mem, always));
            if (!always)
                total += static_cast<std::int64_t>(mem);
        }
        const std::int64_t budget =
            256 * rng.uniformInt(0, static_cast<int>(total / 256));

        RecomputeDpOptions opts;
        opts.offload.enabled = true;
        opts.offload.bandwidth = 2.0; // linkTime(bytes) == bytes
        opts.offload.overlapFraction = 0.5;
        opts.offload.maxLinkBuckets = rng.uniformInt(2, 12);
        opts.offload.linkBudgetPerMb =
            256.0 * opts.offload.maxLinkBuckets;

        const auto dp = solveRecomputeKnapsack(units, budget, opts);
        const auto bf = bruteForceTriChoice(units, budget, opts);

        ASSERT_EQ(dp.saved.size(), units.size());
        ASSERT_EQ(dp.offloaded.size(), units.size());
        for (std::size_t i = 0; i < units.size(); ++i) {
            EXPECT_FALSE(dp.saved[i] && dp.offloaded[i])
                << "unit " << i << " both saved and offloaded";
            if (units[i].alwaysSaved)
                EXPECT_FALSE(dp.offloaded[i])
                    << "always-saved unit " << i << " offloaded";
        }
        EXPECT_LE(dp.savedBytes, static_cast<Bytes>(budget));
        EXPECT_LE(dp.offloadLinkTime,
                  opts.offload.linkBudgetPerMb + 1e-9);

        EXPECT_NEAR(dp.criticalReplayTime + dp.offloadExposedTime,
                    bf.criticalReplayTime + bf.offloadExposedTime,
                    1e-9)
            << "seed " << seed << " budget " << budget << " link "
            << opts.offload.linkBudgetPerMb;
        EXPECT_EQ(dp.savedBytes, bf.savedBytes) << "seed " << seed;
        EXPECT_NEAR(dp.offloadLinkTime, bf.offloadLinkTime, 1e-9)
            << "seed " << seed;
        EXPECT_NEAR(dp.savedFwdTime, bf.savedFwdTime, 1e-9)
            << "seed " << seed;
    }
}

TEST(TriChoiceOracle, OffloadedUnitsDoNotConsumeBubbleBudget)
{
    // Two optional units, zero memory budget (nothing can be kept),
    // a bubble of 2 s and a link budget that fits one unit. With the
    // transfer fully overlapped, offloading either unit leaves the
    // other's replay inside the bubble: critical replay drops from
    // 1 s (recompute both, 3 s replay - 2 s bubble) to 0. The DP
    // must take the offload, charge the offloaded unit zero replay
    // and zero bubble, and prefer the smaller transfer on the tie.
    std::vector<UnitProfile> units{unit(1.0, 512), unit(2.0, 1024)};
    RecomputeDpOptions opts;
    opts.overlapBubble = 2.0;
    opts.offload.enabled = true;
    opts.offload.bandwidth = 2.0;
    opts.offload.overlapFraction = 1.0;
    opts.offload.maxLinkBuckets = 4;
    opts.offload.linkBudgetPerMb = 1024.0;

    const auto dp = solveRecomputeKnapsack(units, 0, opts);
    EXPECT_TRUE(dp.offloaded[0]);
    EXPECT_FALSE(dp.offloaded[1]);
    EXPECT_FALSE(dp.saved[0]);
    EXPECT_FALSE(dp.saved[1]);
    EXPECT_DOUBLE_EQ(dp.criticalReplayTime, 0.0);
    // Only the recomputed unit's 2 s replay hides in the bubble; the
    // offloaded unit contributes nothing to either replay field.
    EXPECT_DOUBLE_EQ(dp.hiddenReplayTime, 2.0);
    EXPECT_DOUBLE_EQ(dp.offloadExposedTime, 0.0);
    EXPECT_EQ(dp.offloadBytes, 512u);

    const auto bf = bruteForceTriChoice(units, 0, opts);
    EXPECT_EQ(bf.offloaded, dp.offloaded);
    EXPECT_DOUBLE_EQ(bf.criticalReplayTime, 0.0);

    // The converse guard: a giant bubble hides *replay*, never the
    // exposed transfer share. With zero overlap every offload would
    // put its full link time on the critical path while recompute is
    // free under the bubble — the solver must not offload anything.
    RecomputeDpOptions exposed = opts;
    exposed.overlapBubble = 10.0;
    exposed.offload.overlapFraction = 0.0;
    const auto none = solveRecomputeKnapsack(units, 0, exposed);
    EXPECT_EQ(none.offloadedUnits, 0);
    EXPECT_DOUBLE_EQ(none.offloadExposedTime, 0.0);
    EXPECT_DOUBLE_EQ(none.criticalReplayTime, 0.0);
    EXPECT_DOUBLE_EQ(none.hiddenReplayTime, 3.0);
}

/**
 * The 1-D knapsack as it stood before its row was vectorised: an
 * in-place descending row and a vector<vector<bool>> choice table.
 * Copied verbatim from solveRecomputeKnapsack minus the obs counters
 * and the offload dispatch; optionalUnits() is inlined and only the
 * save mask and savedFwdTime of finalize() are reproduced.
 */
RecomputePlanResult
legacyKnapsack(const std::vector<UnitProfile> &units,
               std::int64_t budget_per_mb,
               const RecomputeDpOptions &opts)
{
    RecomputePlanResult result;
    result.saved.assign(units.size(), false);
    for (std::size_t i = 0; i < units.size(); ++i)
        result.saved[i] = units[i].alwaysSaved;
    const auto finalize = [&units](RecomputePlanResult &r) {
        r.savedFwdTime = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (r.saved[i] && !units[i].alwaysSaved)
                r.savedFwdTime += units[i].timeFwd;
        }
    };

    std::vector<std::size_t> opt_idx;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved && units[i].memSaved > 0)
            opt_idx.push_back(i);
    }
    const std::int64_t budget = std::max<std::int64_t>(budget_per_mb, 0);
    const Seconds bubble = std::max<Seconds>(opts.overlapBubble, 0);
    if (opt_idx.empty() || budget == 0) {
        finalize(result);
        return result;
    }

    std::int64_t gcd = 0;
    std::int64_t total_cost = 0;
    Seconds total_value = 0;
    for (std::size_t i : opt_idx) {
        const auto cost = static_cast<std::int64_t>(units[i].memSaved);
        gcd = std::gcd(gcd, cost);
        total_cost += cost;
        total_value += units[i].timeFwd;
    }
    if (bubble <= 0 && total_cost <= budget) {
        for (std::size_t i : opt_idx)
            result.saved[i] = true;
        finalize(result);
        return result;
    }
    Seconds t_need = 0; // meaningful only when bubble > 0
    if (bubble > 0) {
        Seconds fixed_replay = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (!units[i].alwaysSaved && units[i].memSaved == 0)
                fixed_replay += units[i].timeFwd;
        }
        t_need = fixed_replay + total_value - bubble;
        if (t_need <= 0) {
            finalize(result);
            return result;
        }
    }
    if (!opts.useGcd)
        gcd = 1;
    const std::int64_t min_gran =
        (budget + opts.maxBuckets - 1) / opts.maxBuckets;
    const std::int64_t gran = std::max<std::int64_t>(gcd, min_gran);

    const auto cap = static_cast<std::size_t>(budget / gran);
    if (cap == 0) {
        finalize(result);
        return result;
    }

    std::vector<Seconds> dp(cap + 1, 0.0);
    std::vector<std::vector<bool>> choice(
        opt_idx.size(), std::vector<bool>(cap + 1, false));

    for (std::size_t k = 0; k < opt_idx.size(); ++k) {
        const UnitProfile &u = units[opt_idx[k]];
        const auto cost = static_cast<std::size_t>(
            (static_cast<std::int64_t>(u.memSaved) + gran - 1) / gran);
        if (cost > cap)
            continue;
        for (std::size_t m = cap; m >= cost; --m) {
            const Seconds candidate = dp[m - cost] + u.timeFwd;
            if (candidate > dp[m]) {
                dp[m] = candidate;
                choice[k][m] = true;
            }
        }
    }

    std::size_t pick = cap;
    if (bubble > 0) {
        for (std::size_t m2 = 0; m2 <= cap; ++m2) {
            if (dp[m2] >= t_need) {
                pick = m2;
                break;
            }
        }
    }
    std::size_t m = pick;
    for (std::size_t k = opt_idx.size(); k-- > 0;) {
        if (choice[k][m]) {
            result.saved[opt_idx[k]] = true;
            const UnitProfile &u = units[opt_idx[k]];
            const auto cost = static_cast<std::size_t>(
                (static_cast<std::int64_t>(u.memSaved) + gran - 1) /
                gran);
            m -= cost;
        }
    }

    finalize(result);
    return result;
}

TEST(RecomputeOracle, VectorisedRowMatchesLegacyInPlaceRow)
{
    // Random instances mixing the features that decide the row's
    // bookkeeping: the maxBuckets clamp with units whose quantised
    // cost equals or exceeds the capacity, zero-time units, long runs
    // of identical units (they fix which copies the tie order takes)
    // and bubbles that take the smallest-budget backtrack.
    int clamped = 0;
    int bubbled = 0;
    int runs = 0;
    for (int seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        std::vector<UnitProfile> units;
        const auto addUnit = [&](Seconds t, Bytes mem, bool always) {
            units.push_back(unit(t, mem, always));
        };
        const int scattered = static_cast<int>(rng.uniformInt(2, 14));
        for (int i = 0; i < scattered; ++i) {
            const Seconds t =
                rng.uniform() < 0.15 ? 0.0 : rng.uniform(1e-4, 5e-3);
            const Bytes mem =
                rng.uniform() < 0.1
                    ? 0
                    : static_cast<Bytes>(rng.uniformInt(1, 1 << 20));
            addUnit(t, mem, rng.uniform() < 0.1);
        }
        if (rng.uniform() < 0.5) {
            ++runs;
            const Seconds t =
                rng.uniform() < 0.2 ? 0.0 : rng.uniform(1e-4, 5e-3);
            const Bytes mem =
                static_cast<Bytes>(rng.uniformInt(1, 1 << 18));
            const int copies = static_cast<int>(rng.uniformInt(8, 40));
            for (int i = 0; i < copies; ++i)
                addUnit(t, mem, false);
            std::swap(units[rng.uniformInt(0, units.size() - 1)],
                      units.back());
        }

        RecomputeDpOptions opts;
        opts.maxBuckets = static_cast<int>(
            rng.uniform() < 0.5 ? rng.uniformInt(4, 64)
                                : rng.uniformInt(256, 4096));
        opts.useGcd = rng.uniform() < 0.7;
        std::int64_t total = 0;
        Seconds total_fwd = 0;
        for (const UnitProfile &u : units) {
            if (!u.alwaysSaved) {
                total += static_cast<std::int64_t>(u.memSaved);
                total_fwd += u.timeFwd;
            }
        }
        const auto budget = static_cast<std::int64_t>(
            static_cast<double>(total) * rng.uniform(0.05, 1.1));
        if (!opts.useGcd && budget > opts.maxBuckets) {
            // Clamp edge: with 1-byte GCD granularity the bucket is
            // ceil(budget / maxBuckets); one unit lands exactly on the
            // capacity, one a byte past it.
            ++clamped;
            const std::int64_t gran =
                (budget + opts.maxBuckets - 1) / opts.maxBuckets;
            const std::int64_t cap = budget / gran;
            addUnit(rng.uniform(1e-4, 5e-3),
                    static_cast<Bytes>(cap * gran), false);
            addUnit(rng.uniform(1e-4, 5e-3),
                    static_cast<Bytes>(cap * gran + 1), false);
        }
        if (rng.uniform() < 0.4) {
            ++bubbled;
            opts.overlapBubble = rng.uniform(0.0, 0.9) * total_fwd;
        }

        const RecomputePlanResult want =
            legacyKnapsack(units, budget, opts);
        const RecomputePlanResult got =
            solveRecomputeKnapsack(units, budget, opts);
        EXPECT_EQ(got.saved, want.saved)
            << "seed " << seed << " budget " << budget << " buckets "
            << opts.maxBuckets << " gcd " << opts.useGcd << " bubble "
            << opts.overlapBubble;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.savedFwdTime),
                  std::bit_cast<std::uint64_t>(want.savedFwdTime))
            << "seed " << seed;
    }
    EXPECT_GE(clamped, 30);
    EXPECT_GE(bubbled, 60);
    EXPECT_GE(runs, 60);
}

TEST(RecomputeOracle, MatchesLibraryBruteForce)
{
    // Cross-check the two oracles against each other on a mixed
    // instance (library bruteForceRecompute vs this test's own
    // subset enumeration).
    Rng rng(99);
    std::vector<UnitProfile> units;
    for (int i = 0; i < 10; ++i)
        units.push_back(unit(rng.uniform(0.1, 3.0),
                             512 * rng.uniformInt(1, 32),
                             rng.uniform() < 0.1));
    const std::int64_t budget = 512 * 50;
    const OracleResult mine = enumerateSaveSubsets(units, budget);
    const RecomputePlanResult lib = bruteForceRecompute(units, budget);
    EXPECT_NEAR(lib.savedFwdTime, mine.bestValue, 1e-12);
}

} // namespace
} // namespace adapipe
