#include "core/recompute_dp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

std::string
OffloadOptions::validate() const
{
    if (!(bandwidth > 0) || !std::isfinite(bandwidth))
        return "offload bandwidth must be > 0 (got " +
               std::to_string(bandwidth) + ")";
    if (!(overlapFraction >= 0.0 && overlapFraction <= 1.0))
        return "offload overlap_fraction must be in [0, 1] (got " +
               std::to_string(overlapFraction) + ")";
    if (!(linkBudgetPerMb >= 0) || !std::isfinite(linkBudgetPerMb))
        return "offload link budget must be >= 0 (got " +
               std::to_string(linkBudgetPerMb) + ")";
    if (maxLinkBuckets < 1)
        return "offload maxLinkBuckets must be >= 1";
    if (maxOffloadMemBuckets < 1)
        return "offload maxOffloadMemBuckets must be >= 1";
    if (maxHiddenBuckets < 1 || maxHiddenBuckets > 63)
        return "offload maxHiddenBuckets must be in [1, 63]";
    return {};
}

namespace {

/** Indices of units that participate in the knapsack. */
std::vector<std::size_t>
optionalUnits(const std::vector<UnitProfile> &units)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved && units[i].memSaved > 0)
            idx.push_back(i);
    }
    return idx;
}

/**
 * One row of the 0/1 knapsack: unit k of weight @p cost (1 <= cost <
 * width) and value @p value against the row @p prev of unit k - 1.
 * next[m] = max(prev[m], prev[m - cost] + value), and take[m] = 1 where
 * the unit is taken; take[m] for m < cost is left untouched.
 *
 * Double-buffered and branch-free so GCC vectorises it at -O3 on
 * baseline x86-64. It matches an in-place descending row exactly,
 * because that row too reads prev[m - cost] before overwriting it. A
 * take byte conditioned on `cand > keep` does not vectorise (GCC 12);
 * the sign bit of keep - cand does, and the two agree on the finite
 * values the DP holds (keep == cand gives +0, not taken).
 */
void
knapsackRow(const Seconds *prev, Seconds *next, std::uint8_t *take,
            std::size_t width, std::size_t cost, Seconds value)
{
    std::copy(prev, prev + cost, next);
    for (std::size_t m = cost; m < width; ++m) {
        const Seconds keep = prev[m];
        const Seconds cand = prev[m - cost] + value;
        next[m] = keep < cand ? cand : keep;
        take[m] = static_cast<std::uint8_t>(
            std::bit_cast<std::uint64_t>(keep - cand) >> 63);
    }
}

/** Fill the result's bookkeeping fields from the decision vectors
 *  (saved + optional offloaded). */
void
finalize(const std::vector<UnitProfile> &units, RecomputePlanResult &r,
         Seconds bubble = 0, const OffloadOptions *off = nullptr)
{
    r.savedFwdTime = 0;
    r.savedBytes = 0;
    r.savedUnits = 0;
    r.offloadBytes = 0;
    r.offloadedUnits = 0;
    r.offloadLinkTime = 0;
    r.offloadExposedTime = 0;
    Seconds opt_total = 0; // every optional unit's forward time
    Seconds offl_fwd = 0;  // forward time of offloaded units
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved)
            opt_total += units[i].timeFwd;
        if (i < r.offloaded.size() && r.offloaded[i]) {
            ++r.offloadedUnits;
            offl_fwd += units[i].timeFwd;
            r.offloadBytes += units[i].memSaved;
            if (off) {
                r.offloadLinkTime += off->linkTime(units[i].memSaved);
                r.offloadExposedTime +=
                    off->evictCost(units[i].memSaved);
            }
            continue;
        }
        if (!r.saved[i])
            continue;
        ++r.savedUnits;
        if (!units[i].alwaysSaved) {
            r.savedFwdTime += units[i].timeFwd;
            r.savedBytes += units[i].memSaved;
        }
    }
    // Unsaved replay as (total - saved), not a direct sum over the
    // unsaved units: this reproduces the float sequence the stage
    // cost calculator historically used for B_s, keeping plan bytes
    // bit-identical across the refactor. Offloaded units are fetched,
    // not replayed, so their forward time leaves the replay pool —
    // and, per the overlap semantics, they consume no bubble budget.
    const Seconds replay =
        std::max<Seconds>(opt_total - r.savedFwdTime - offl_fwd, 0);
    r.hiddenReplayTime = std::min(std::max<Seconds>(bubble, 0), replay);
    r.criticalReplayTime = replay - r.hiddenReplayTime;
}

/**
 * Tri-choice DP: every optional unit is kept on device (memory),
 * recomputed (replay time) or offloaded to host (shared link time).
 *
 * State = (memory buckets used, link buckets used, hidden-replay
 * buckets used); the DP value is the exposed penalty in seconds —
 * critical replay plus non-overlapped offload transfer. The
 * hidden-replay dimension implements the overlap-bubble discount:
 * recompute transitions only start paying once the accumulated
 * replay exceeds the bubble, while offload transitions pay their
 * exposed cost from the first second (an offloaded unit has no
 * replay to hide, so it must not consume bubble budget). With no
 * bubble the hidden dimension collapses to a single plane and the
 * objective is the plain additive penalty.
 *
 * Quantisation is conservative (unit costs rounded up, budgets
 * rounded down), so every DP solution is feasible; the solution is
 * exact when costs are exact multiples of the bucket granularities.
 */
RecomputePlanResult
solveTriChoice(const std::vector<UnitProfile> &units,
               std::int64_t budget_per_mb,
               const RecomputeDpOptions &opts)
{
    const OffloadOptions &off = opts.offload;
    const std::string off_err = off.validate();
    ADAPIPE_ASSERT(off_err.empty(), "offload options: ", off_err);
    ADAPIPE_OBS_COUNT("recompute_dp.tri_runs", 1);

    RecomputePlanResult result;
    result.saved.assign(units.size(), false);
    result.offloaded.assign(units.size(), false);
    for (std::size_t i = 0; i < units.size(); ++i)
        result.saved[i] = units[i].alwaysSaved;

    const std::vector<std::size_t> opt_idx = optionalUnits(units);
    const std::int64_t budget = std::max<std::int64_t>(budget_per_mb, 0);
    const Seconds bubble = std::max<Seconds>(opts.overlapBubble, 0);
    const Seconds link_budget = std::max<Seconds>(off.linkBudgetPerMb, 0);
    if (opt_idx.empty() || (budget == 0 && link_budget <= 0)) {
        finalize(units, result, bubble, &off);
        return result;
    }

    // Memory granularity: GCD of the unit costs, floored so the table
    // never exceeds the (tighter, tri-choice) bucket cap.
    std::int64_t gcd = 0;
    for (std::size_t i : opt_idx)
        gcd = std::gcd(gcd,
                       static_cast<std::int64_t>(units[i].memSaved));
    if (!opts.useGcd)
        gcd = 1;
    const std::int64_t mem_bucket_cap = std::min<std::int64_t>(
        opts.maxBuckets, off.maxOffloadMemBuckets);
    std::size_t cap_m = 0;
    std::int64_t gran_m = 1;
    if (budget > 0) {
        const std::int64_t min_gran =
            (budget + mem_bucket_cap - 1) / mem_bucket_cap;
        gran_m = std::max<std::int64_t>(gcd, min_gran);
        cap_m = static_cast<std::size_t>(budget / gran_m);
    }

    // Link granularity: the budget maps to exactly maxLinkBuckets
    // buckets; unit occupancies round up, so a tiny transfer still
    // claims one contention slot on the shared link.
    std::size_t cap_l = 0;
    double gran_l = 0;
    if (link_budget > 0) {
        cap_l = static_cast<std::size_t>(off.maxLinkBuckets);
        gran_l = link_budget / static_cast<double>(cap_l);
    }

    // Hidden-replay granularity (bubble > 0 only). The cap stays
    // <= 63 so a predecessor coordinate packs into the trace byte.
    std::size_t cap_h = 0;
    double gran_h = 0;
    if (bubble > 0) {
        cap_h = static_cast<std::size_t>(
            std::min(off.maxHiddenBuckets, 63));
        gran_h = bubble / static_cast<double>(cap_h);
    }

    const std::size_t dim_l = cap_l + 1;
    const std::size_t dim_h = cap_h + 1;
    const std::size_t n_states = (cap_m + 1) * dim_l * dim_h;
    const auto state = [dim_l, dim_h](std::size_t m, std::size_t l,
                                      std::size_t h) {
        return (m * dim_l + l) * dim_h + h;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Per-unit quantised costs and exact penalties.
    const std::size_t K = opt_idx.size();
    std::vector<std::size_t> cost_m(K), cost_l(K), cost_h(K);
    std::vector<Seconds> replay(K), exposed(K);
    for (std::size_t k = 0; k < K; ++k) {
        const UnitProfile &u = units[opt_idx[k]];
        cost_m[k] = static_cast<std::size_t>(
            (static_cast<std::int64_t>(u.memSaved) + gran_m - 1) /
            gran_m);
        replay[k] = u.timeFwd;
        exposed[k] = off.evictCost(u.memSaved);
        // Link occupancy rounds to the nearest bucket: a transfer
        // above half a bucket claims a whole contention slot, while
        // tiny transfers (a fast link) round to zero instead of
        // hitting an artificial cap of maxLinkBuckets offloaded
        // units. Quantisation error is at most half a bucket per
        // unit; instances whose link times are exact bucket
        // multiples quantise exactly (the oracle-test domain).
        const Seconds lt = off.linkTime(u.memSaved);
        cost_l[k] =
            gran_l > 0
                ? static_cast<std::size_t>(
                      std::floor(lt / gran_l + 0.5))
                : dim_l; // no link budget: offload never fits
        cost_h[k] =
            gran_h > 0
                ? std::min(cap_h,
                           static_cast<std::size_t>(std::max(
                               1.0,
                               std::ceil(u.timeFwd / gran_h - 1e-9))))
                : 0;
    }

    // Zero-cost units (memSaved == 0, outside the knapsack) are
    // replayed regardless of the mask; their replay eats into the
    // bubble first, so the start state is pre-charged with them.
    Seconds fixed_replay = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved && units[i].memSaved == 0)
            fixed_replay += units[i].timeFwd;
    }
    std::size_t h0 = 0;
    if (gran_h > 0 && fixed_replay > 0)
        h0 = std::min(cap_h,
                      static_cast<std::size_t>(std::max(
                          1.0,
                          std::ceil(fixed_replay / gran_h - 1e-9))));

    // Trace byte per (unit, state-after): choice in the low 2 bits
    // (0 recompute / 1 save / 2 offload), predecessor hidden-replay
    // coordinate in the high 6 bits; 0xFF = unreachable.
    std::vector<double> prev(n_states, kInf), next(n_states, kInf);
    prev[state(0, 0, h0)] = std::max<Seconds>(fixed_replay - bubble, 0);
    std::vector<std::vector<std::uint8_t>> trace(
        K, std::vector<std::uint8_t>(n_states, 0xFF));

    std::int64_t cells = 0;
    for (std::size_t k = 0; k < K; ++k) {
        std::fill(next.begin(), next.end(), kInf);
        std::vector<std::uint8_t> &tr = trace[k];
        for (std::size_t m = 0; m <= cap_m; ++m) {
            for (std::size_t l = 0; l <= cap_l; ++l) {
                for (std::size_t h = 0; h <= cap_h; ++h) {
                    const double base = prev[state(m, l, h)];
                    if (base == kInf)
                        continue;
                    ++cells;
                    const auto ph = static_cast<std::uint8_t>(h << 2);
                    // Recompute: replay eats bubble first, the rest
                    // is exposed (bubble = 0 makes it all exposed).
                    {
                        const std::size_t h2 =
                            std::min(h + cost_h[k], cap_h);
                        const Seconds already =
                            static_cast<double>(h) * gran_h;
                        const double add = std::max(
                            0.0, already + replay[k] - bubble);
                        const std::size_t s2 = state(m, l, h2);
                        if (base + add < next[s2]) {
                            next[s2] = base + add;
                            tr[s2] = static_cast<std::uint8_t>(0 | ph);
                        }
                    }
                    // Save: spend memory, no penalty.
                    if (m + cost_m[k] <= cap_m) {
                        const std::size_t s2 =
                            state(m + cost_m[k], l, h);
                        if (base < next[s2]) {
                            next[s2] = base;
                            tr[s2] = static_cast<std::uint8_t>(1 | ph);
                        }
                    }
                    // Offload: spend shared link, pay the exposed
                    // transfer share (never bubble-discounted).
                    if (cost_l[k] <= cap_l && l + cost_l[k] <= cap_l) {
                        const std::size_t s2 =
                            state(m, l + cost_l[k], h);
                        if (base + exposed[k] < next[s2]) {
                            next[s2] = base + exposed[k];
                            tr[s2] = static_cast<std::uint8_t>(2 | ph);
                        }
                    }
                }
            }
        }
        prev.swap(next);
    }
    ADAPIPE_OBS_COUNT("recompute_dp.cells", cells);

    // Best final state: minimal exposed penalty; the m-asc, l-asc
    // scan with strict < ties toward the least memory, then the
    // least link occupancy (cheapest resource usage).
    std::size_t best_m = 0, best_l = 0, best_h = 0;
    double best = kInf;
    for (std::size_t m = 0; m <= cap_m; ++m) {
        for (std::size_t l = 0; l <= cap_l; ++l) {
            for (std::size_t h = 0; h <= cap_h; ++h) {
                const double v = prev[state(m, l, h)];
                if (v < best) {
                    best = v;
                    best_m = m;
                    best_l = l;
                    best_h = h;
                }
            }
        }
    }
    ADAPIPE_ASSERT(best < kInf, "tri-choice DP lost the "
                                "all-recompute baseline state");

    // Backtrack the decision path.
    std::size_t m = best_m, l = best_l, h = best_h;
    for (std::size_t k = K; k-- > 0;) {
        const std::uint8_t tr = trace[k][state(m, l, h)];
        ADAPIPE_ASSERT(tr != 0xFF, "tri-choice DP backtrack hit an "
                                   "unreachable state");
        const std::uint8_t ch = tr & 0x3;
        h = static_cast<std::size_t>(tr >> 2);
        if (ch == 1) {
            result.saved[opt_idx[k]] = true;
            m -= cost_m[k];
        } else if (ch == 2) {
            result.offloaded[opt_idx[k]] = true;
            l -= cost_l[k];
        }
    }

    finalize(units, result, bubble, &off);
    return result;
}

} // namespace

RecomputePlanResult
solveRecomputeKnapsack(const std::vector<UnitProfile> &units,
                       std::int64_t budget_per_mb,
                       const RecomputeDpOptions &opts)
{
    ADAPIPE_ASSERT(opts.maxBuckets > 0, "maxBuckets must be positive");
    ADAPIPE_OBS_COUNT("recompute_dp.runs", 1);
    ADAPIPE_OBS_COUNT("recompute_dp.units", units.size());

    if (opts.offload.enabled)
        return solveTriChoice(units, budget_per_mb, opts);
    // Offload disabled: the classic 1D knapsack below runs unchanged
    // (bit-identical plans; result.offloaded stays empty).

    RecomputePlanResult result;
    result.saved.assign(units.size(), false);
    for (std::size_t i = 0; i < units.size(); ++i)
        result.saved[i] = units[i].alwaysSaved;

    const std::vector<std::size_t> opt_idx = optionalUnits(units);
    const std::int64_t budget = std::max<std::int64_t>(budget_per_mb, 0);
    const Seconds bubble = std::max<Seconds>(opts.overlapBubble, 0);
    if (opt_idx.empty() || budget == 0) {
        finalize(units, result, bubble);
        return result;
    }

    // Granularity: GCD of the unit costs (Sec. 5.3), floored so the
    // DP table never exceeds maxBuckets entries. Rounding unit costs
    // up and the budget down keeps every DP solution feasible.
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
        // Everything fits; skip the DP entirely. (With a bubble
        // budget this shortcut is wrong: saving everything can waste
        // memory on replay that would have hidden for free.)
        ADAPIPE_OBS_COUNT("recompute_dp.fastpath", 1);
        for (std::size_t i : opt_idx)
            result.saved[i] = true;
        finalize(units, result, bubble);
        return result;
    }
    // Discounted objective: only enough forward time needs to be
    // *saved* that the leftover replay fits the bubble. Replay of
    // zero-cost units (memSaved == 0, outside the knapsack) eats
    // into the bubble first.
    Seconds t_need = 0; // meaningful only when bubble > 0
    if (bubble > 0) {
        Seconds fixed_replay = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (!units[i].alwaysSaved && units[i].memSaved == 0)
                fixed_replay += units[i].timeFwd;
        }
        t_need = fixed_replay + total_value - bubble;
        if (t_need <= 0) {
            // The bubble swallows every optional replay: save nothing
            // optional and spend no memory at all.
            ADAPIPE_OBS_COUNT("recompute_dp.bubble_free", 1);
            finalize(units, result, bubble);
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
        finalize(units, result, bubble);
        return result;
    }

    // 0/1 knapsack maximising saved forward time. dp[m] = best value
    // using at most m buckets; choice[k * width + m] records whether
    // optional unit k is taken at budget m on the optimal path.
    const std::size_t width = cap + 1;
    std::vector<Seconds> dp(width, 0.0);
    std::vector<Seconds> row(width);
    std::vector<std::uint8_t> choice(opt_idx.size() * width, 0);

    std::int64_t cells = 0; // flushed once; hot loop stays clean
    for (std::size_t k = 0; k < opt_idx.size(); ++k) {
        const UnitProfile &u = units[opt_idx[k]];
        const auto cost = static_cast<std::size_t>(
            (static_cast<std::int64_t>(u.memSaved) + gran - 1) / gran);
        if (cost > cap)
            continue;
        cells += static_cast<std::int64_t>(cap - cost + 1);
        knapsackRow(dp.data(), row.data(), choice.data() + k * width,
                    width, cost, u.timeFwd);
        dp.swap(row);
    }
    ADAPIPE_OBS_COUNT("recompute_dp.cells", cells);

    // Backtrack the decision path. Without a bubble, the best value
    // sits at the full budget. With one, take the *smallest* budget
    // whose value already covers t_need — same critical replay
    // (zero), minimal saved bytes; if no budget covers it, the full
    // budget's maximal value minimises the leftover critical replay.
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
        if (choice[k * width + m]) {
            result.saved[opt_idx[k]] = true;
            const UnitProfile &u = units[opt_idx[k]];
            const auto cost = static_cast<std::size_t>(
                (static_cast<std::int64_t>(u.memSaved) + gran - 1) /
                gran);
            m -= cost;
        }
    }

    finalize(units, result, bubble);
    return result;
}

RecomputePlanResult
bruteForceRecompute(const std::vector<UnitProfile> &units,
                    std::int64_t budget_per_mb, Seconds overlap_bubble)
{
    const std::vector<std::size_t> opt_idx = optionalUnits(units);
    ADAPIPE_ASSERT(opt_idx.size() <= 24,
                   "brute force limited to 24 optional units, got ",
                   opt_idx.size());

    const Seconds bubble = std::max<Seconds>(overlap_bubble, 0);
    Seconds fixed_replay = 0; // recomputed regardless of the mask
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved && units[i].memSaved == 0)
            fixed_replay += units[i].timeFwd;
    }

    RecomputePlanResult best;
    best.saved.assign(units.size(), false);
    for (std::size_t i = 0; i < units.size(); ++i)
        best.saved[i] = units[i].alwaysSaved;
    finalize(units, best, bubble);

    Seconds opt_total = 0;
    for (std::size_t i : opt_idx)
        opt_total += units[i].timeFwd;

    const std::int64_t budget = std::max<std::int64_t>(budget_per_mb, 0);
    const std::size_t combos = std::size_t{1} << opt_idx.size();
    for (std::size_t mask = 1; mask < combos; ++mask) {
        std::int64_t cost = 0;
        Seconds value = 0;
        for (std::size_t k = 0; k < opt_idx.size(); ++k) {
            if (mask & (std::size_t{1} << k)) {
                cost += static_cast<std::int64_t>(
                    units[opt_idx[k]].memSaved);
                value += units[opt_idx[k]].timeFwd;
            }
        }
        if (cost > budget)
            continue;
        bool improves;
        if (bubble > 0) {
            // Lexicographic: minimal critical replay, then minimal
            // saved bytes, then maximal saved forward time.
            const Seconds critical = std::max<Seconds>(
                fixed_replay + opt_total - value - bubble, 0);
            const Seconds best_critical = best.criticalReplayTime;
            improves =
                critical < best_critical ||
                (critical == best_critical &&
                 (cost < static_cast<std::int64_t>(best.savedBytes) ||
                  (cost == static_cast<std::int64_t>(best.savedBytes) &&
                   value > best.savedFwdTime)));
        } else {
            improves = value > best.savedFwdTime;
        }
        if (improves) {
            RecomputePlanResult cand;
            cand.saved.assign(units.size(), false);
            for (std::size_t i = 0; i < units.size(); ++i)
                cand.saved[i] = units[i].alwaysSaved;
            for (std::size_t k = 0; k < opt_idx.size(); ++k) {
                if (mask & (std::size_t{1} << k))
                    cand.saved[opt_idx[k]] = true;
            }
            finalize(units, cand, bubble);
            best = std::move(cand);
        }
    }
    return best;
}

RecomputePlanResult
bruteForceTriChoice(const std::vector<UnitProfile> &units,
                    std::int64_t budget_per_mb,
                    const RecomputeDpOptions &opts)
{
    const std::vector<std::size_t> opt_idx = optionalUnits(units);
    ADAPIPE_ASSERT(opt_idx.size() <= 14,
                   "tri-choice brute force limited to 14 optional "
                   "units, got ",
                   opt_idx.size());
    const OffloadOptions &off = opts.offload;
    const std::string off_err = off.validate();
    ADAPIPE_ASSERT(off_err.empty(), "offload options: ", off_err);

    const Seconds bubble = std::max<Seconds>(opts.overlapBubble, 0);
    const std::int64_t budget = std::max<std::int64_t>(budget_per_mb, 0);
    const Seconds link_budget = std::max<Seconds>(off.linkBudgetPerMb, 0);

    Seconds fixed_replay = 0; // recomputed regardless of the mask
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!units[i].alwaysSaved && units[i].memSaved == 0)
            fixed_replay += units[i].timeFwd;
    }

    const std::size_t K = opt_idx.size();
    std::size_t combos = 1;
    for (std::size_t k = 0; k < K; ++k)
        combos *= 3;

    // Exact objective in seconds (no bucket quantisation): minimal
    // exposed penalty C = critical replay + non-overlapped offload
    // transfer, tie-broken by (saved bytes, link time, -saved fwd).
    bool have_best = false;
    std::size_t best_assign = 0;
    Seconds best_c = 0, best_link = 0, best_value = 0;
    std::int64_t best_bytes = 0;
    std::vector<std::size_t> digit(K);
    for (std::size_t a = 0; a < combos; ++a) {
        std::size_t rem = a;
        std::int64_t bytes = 0;
        Seconds value = 0, replay_sum = 0, link = 0, exposed = 0;
        for (std::size_t k = 0; k < K; ++k) {
            digit[k] = rem % 3; // 0 recompute / 1 save / 2 offload
            rem /= 3;
            const UnitProfile &u = units[opt_idx[k]];
            if (digit[k] == 0) {
                replay_sum += u.timeFwd;
            } else if (digit[k] == 1) {
                bytes += static_cast<std::int64_t>(u.memSaved);
                value += u.timeFwd;
            } else {
                link += off.linkTime(u.memSaved);
                exposed += off.evictCost(u.memSaved);
            }
        }
        if (bytes > budget || link > link_budget + 1e-12)
            continue;
        const Seconds critical = std::max<Seconds>(
            fixed_replay + replay_sum - bubble, 0);
        const Seconds c = critical + exposed;
        const bool improves =
            !have_best || c < best_c ||
            (c == best_c &&
             (bytes < best_bytes ||
              (bytes == best_bytes &&
               (link < best_link ||
                (link == best_link && value > best_value)))));
        if (improves) {
            have_best = true;
            best_assign = a;
            best_c = c;
            best_bytes = bytes;
            best_link = link;
            best_value = value;
        }
    }
    ADAPIPE_ASSERT(have_best, "tri-choice brute force lost the "
                              "all-recompute assignment");

    RecomputePlanResult best;
    best.saved.assign(units.size(), false);
    best.offloaded.assign(units.size(), false);
    for (std::size_t i = 0; i < units.size(); ++i)
        best.saved[i] = units[i].alwaysSaved;
    std::size_t rem = best_assign;
    for (std::size_t k = 0; k < K; ++k) {
        const std::size_t d = rem % 3;
        rem /= 3;
        if (d == 1)
            best.saved[opt_idx[k]] = true;
        else if (d == 2)
            best.offloaded[opt_idx[k]] = true;
    }
    finalize(units, best, bubble, &off);
    return best;
}

} // namespace adapipe
