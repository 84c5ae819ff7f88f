#include "core/partition_dp.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/cost_model.h"
#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One DP state P[s][i] (paper: W, E, M, F, B, T + the split point). */
struct State
{
    Seconds w = kInf;
    Seconds e = kInf;
    Seconds m = kInf;
    Seconds f = 0;
    Seconds b = 0;
    Seconds t = kInf;
    int split = -1; // last layer j of stage s on the optimal path

    bool valid() const { return t < kInf; }
};

/** P[p-1][i]: the last stage alone, with times f and b. */
State
lastStageState(Seconds f, Seconds b, int n, int split)
{
    State st;
    st.f = f;
    st.b = b;
    st.w = f;
    st.e = b;
    st.m = f + b;
    st.t = st.w + st.e + static_cast<double>(std::max(0, n - 1)) * st.m;
    st.split = split;
    return st;
}

/** Stage s with times f and b, split at j, in front of @p next. */
State
extend(const State &next, Seconds f, Seconds b, int s, int p, int n,
       int j)
{
    const double warm = static_cast<double>(p - s - 1);
    State cand;
    cand.f = f;
    cand.b = b;
    cand.w = f + std::max(next.w + next.b, warm * f);
    cand.e = b + std::max(next.e + next.f, warm * b);
    cand.m = std::max(next.m, f + b);
    const double steady = static_cast<double>(std::max(0, n - p + s));
    cand.t = cand.w + cand.e + steady * cand.m;
    cand.split = j;
    return cand;
}

/** @return whether (t, j) beats @p best: smaller t, then smaller j. */
bool
beats(Seconds t, int j, const State &best)
{
    return t < best.t || (t == best.t && j < best.split);
}

/** A split j of one state with the lower bound of its time. */
struct Candidate
{
    Seconds floorT;
    int j;
};

} // namespace

PartitionDpResult
solveAdaptivePartition(StageCostCalculator &calc, int num_layers, int p,
                       int n)
{
    ADAPIPE_ASSERT(p >= 1 && num_layers >= p,
                   "need at least one layer per stage (L=", num_layers,
                   ", p=", p, ")");
    ADAPIPE_OBS_SPAN(obs_span, "partition_dp.solve");
    ADAPIPE_OBS_COUNT("partition_dp.runs", 1);
    const int L = num_layers;
    const int last = p - 1;
    // Exploration counters accumulate locally and flush once so the
    // DP inner loop never touches the registry.
    std::int64_t states_visited = 0;
    std::int64_t transitions = 0;
    std::int64_t infeasible = 0;
    std::int64_t pruned = 0;

    // dp[s][i]: best plan for layers i..L-1 on stages s..p-1. Stage s
    // can only start at i in [s, L - (p - s)] (one layer minimum per
    // stage before and after); stage 0 starts at layer 0, so only
    // dp[0][0] is reachable from the backtrack.
    std::vector<std::vector<State>> dp(
        p, std::vector<State>(L, State{}));
    const auto maxStart = [&](int s) { return s == 0 ? 0 : L - (p - s); };

    // Base case: the last stage takes everything from i to L-1. Its
    // states hold floors until a transition solved exactly reads one.
    std::vector<char> last_exact(L, 0);
    const auto exactLast = [&](int i) -> const State & {
        if (!last_exact[i]) {
            const StageCost &c = calc.cost(last, i, L - 1);
            ADAPIPE_ASSERT(c.feasible, "floor and cost disagree on "
                                       "feasibility at stage ", last);
            dp[last][i] = lastStageState(c.fwd, c.bwd, n, L - 1);
            last_exact[i] = 1;
        }
        return dp[last][i];
    };
    for (int i = last; i <= maxStart(last); ++i) {
        ++states_visited;
        const StageCostFloor fl = calc.costFloor(last, i, L - 1);
        if (!fl.feasible) {
            ++infeasible;
            continue;
        }
        dp[last][i] = lastStageState(fl.fwd, fl.bwd, n, L - 1);
    }

    // Branch and bound per state: every candidate split gets a floor
    // time from the knapsack-free stage floor (and the floor of a
    // last-stage state not yet solved). The floor never exceeds the
    // exact time, so visiting candidates in ascending floor order and
    // solving only while the floor can still beat the best split
    // (smaller t, or equal t at a smaller j — the tie-break of a
    // j-ascending scan with strict <) finds exactly the split the
    // full scan would.
    std::vector<Candidate> cands;
    for (int s = p - 2; s >= 0; --s) {
        const int max_i = L - (p - s);
        for (int i = s; i <= maxStart(s); ++i) {
            ++states_visited;
            cands.clear();
            for (int j = i; j <= max_i; ++j) {
                const State &next = dp[s + 1][j + 1];
                if (!next.valid())
                    continue;
                ++transitions;
                const StageCostFloor fl = calc.costFloor(s, i, j);
                if (!fl.feasible) {
                    ++infeasible;
                    continue;
                }
                cands.push_back(
                    {extend(next, fl.fwd, fl.bwd, s, p, n, j).t, j});
            }
            std::sort(cands.begin(), cands.end(),
                      [](const Candidate &a, const Candidate &b) {
                          return a.floorT < b.floorT ||
                                 (a.floorT == b.floorT && a.j < b.j);
                      });
            State best;
            std::size_t solved = 0;
            for (const Candidate &cand : cands) {
                if (!beats(cand.floorT, cand.j, best))
                    break; // so does every later candidate
                ++solved;
                const State &next = s + 1 == last
                                        ? exactLast(cand.j + 1)
                                        : dp[s + 1][cand.j + 1];
                const StageCost &c = calc.cost(s, i, cand.j);
                ADAPIPE_ASSERT(c.feasible, "floor and cost disagree on "
                                           "feasibility at stage ", s);
                const State exact =
                    extend(next, c.fwd, c.bwd, s, p, n, cand.j);
                if (beats(exact.t, exact.split, best))
                    best = exact;
            }
            pruned += static_cast<std::int64_t>(cands.size() - solved);
            dp[s][i] = best;
        }
    }
    // With p = 1 the root is itself a last-stage state.
    if (p == 1 && dp[0][0].valid())
        (void)exactLast(0);

    ADAPIPE_OBS_COUNT("partition_dp.states_visited", states_visited);
    ADAPIPE_OBS_COUNT("partition_dp.transitions", transitions);
    ADAPIPE_OBS_COUNT("partition_dp.infeasible_cells", infeasible);
    ADAPIPE_OBS_COUNT("partition_dp.pruned", pruned);

    PartitionDpResult result;
    const State &root = dp[0][0];
    if (!root.valid()) {
        ADAPIPE_OBS_COUNT("partition_dp.infeasible_runs", 1);
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

ParseResult<std::vector<std::pair<int, int>>>
evenPartition(int num_layers, int p, int v)
{
    ADAPIPE_ASSERT(num_layers >= 2 && (num_layers - 2) % 2 == 0,
                   "layer sequence must be [embed, blocks..., head]");
    ADAPIPE_ASSERT(p >= 1 && v >= 1, "bad split: p=", p, ", v=", v);
    const int blocks = (num_layers - 2) / 2;
    const int chunks = v * p;
    if (blocks < chunks) {
        std::ostringstream oss;
        if (v == 1) {
            oss << "even partition cannot split " << blocks
                << " attention blocks across " << p
                << " stages (needs at least one block per stage)";
        } else {
            oss << "interleaved partition cannot split " << blocks
                << " attention blocks across " << chunks
                << " virtual chunks (pipeline " << p
                << " * virtual_stages " << v << ")";
        }
        return ParseResult<std::vector<std::pair<int, int>>>::failure(
            oss.str());
    }

    const int base = blocks / chunks;
    const int extra = blocks % chunks;
    std::vector<std::pair<int, int>> ranges;
    int layer = 1; // first attention layer (0 is the embedding)
    for (int g = 0; g < chunks; ++g) {
        const int nblocks = base + (g < extra ? 1 : 0);
        int first = layer;
        int last = layer + 2 * nblocks - 1;
        if (g == 0)
            first = 0; // embedding joins chunk 0
        if (g == chunks - 1)
            last += 1; // decoding head joins the last chunk
        ranges.emplace_back(first, last);
        layer += 2 * nblocks;
    }
    return ParseResult<std::vector<std::pair<int, int>>>::success(
        std::move(ranges));
}

} // namespace adapipe
