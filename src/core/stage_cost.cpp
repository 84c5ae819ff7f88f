#include "core/stage_cost.h"

#include <algorithm>
#include <bit>

#include "core/knapsack_memo.h"
#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

StageCostCalculator::StageCostCalculator(const ProfiledModel &pm, int p,
                                         int n, StageCostOptions opts)
    : pm_(pm),
      mem_model_(pm.model, pm.train, pm.par, pm.optimizer),
      p_(p), n_(n), opts_(opts)
{
    ADAPIPE_ASSERT(p_ >= 1 && n_ >= 1, "invalid pipeline/microbatches");
    ADAPIPE_ASSERT(opts_.memBudgetFraction > 0 &&
                       opts_.memBudgetFraction <= 1.0,
                   "memBudgetFraction out of (0, 1]");
    for (double f : opts_.stageTimeFactor)
        ADAPIPE_ASSERT(f > 0, "stage time factor must be positive");
    for (Seconds b : opts_.overlapBubblePerMb)
        ADAPIPE_ASSERT(b >= 0, "overlap bubble must be >= 0, got ", b);
    for (int m : opts_.inflightOverride)
        ADAPIPE_ASSERT(m >= 1, "in-flight override must be >= 1, got ",
                       m);
    if (opts_.offload.enabled) {
        // Parse paths reject these with a ParseResult diagnostic;
        // this is the last line of defence for programmatic callers
        // (bandwidth <= 0 would propagate inf through the DP,
        // overlapFraction > 1 a negative penalty).
        const std::string err = opts_.offload.validate();
        ADAPIPE_ASSERT(err.empty(), "offload options: ", err);
    }
    // A stage reaches a range's cost only through its in-flight
    // count, time factor and bubble; its class is the first stage
    // with the same three (doubles by bit pattern, as KnapsackMemo).
    const auto stage_values = [this](int s) {
        return std::tuple{inflight(s),
                          std::bit_cast<std::uint64_t>(timeFactor(s)),
                          std::bit_cast<std::uint64_t>(overlapBubble(s))};
    };
    for (int s = 0; s < p_; ++s) {
        int first = 0;
        while (stage_values(first) != stage_values(s))
            ++first;
        stage_class_.push_back(first);
    }
}

StageCostCalculator::~StageCostCalculator()
{
    ADAPIPE_OBS_COUNT("stage_cost.evaluations", evaluations());
    ADAPIPE_OBS_COUNT("stage_cost.cache_hits", cache_hits_);
    ADAPIPE_OBS_COUNT("stage_cost.memo_hits", memo_hits_);
    ADAPIPE_OBS_COUNT("stage_cost.memo_misses", memo_misses_);
}

Bytes
StageCostCalculator::capacity() const
{
    return opts_.memCapacityOverride > 0 ? opts_.memCapacityOverride
                                         : pm_.memCapacity;
}

double
StageCostCalculator::timeFactor(int s) const
{
    if (s < 0 ||
        s >= static_cast<int>(opts_.stageTimeFactor.size()))
        return 1.0;
    return opts_.stageTimeFactor[s];
}

Seconds
StageCostCalculator::overlapBubble(int s) const
{
    if (s < 0 ||
        s >= static_cast<int>(opts_.overlapBubblePerMb.size()))
        return 0;
    return opts_.overlapBubblePerMb[s];
}

int
StageCostCalculator::inflight(int s) const
{
    if (s >= 0 && s < static_cast<int>(opts_.inflightOverride.size()))
        return opts_.inflightOverride[s];
    return MemoryModel::inflightMicroBatches(s, p_, n_);
}

StageCostCalculator::Key
StageCostCalculator::cacheKey(int s, int i, int j) const
{
    const bool has_embed = (i == 0);
    const bool has_head = (j == pm_.numLayers() - 1);
    // The first block-layer kind determines the whole alternating
    // composition for a given length; ranges starting with the
    // embedding key on the kind of layer 1 implicitly via has_embed.
    const int first_kind =
        static_cast<int>(pm_.layers[std::min(i, pm_.numLayers() - 1)]
                             .kind);
    if (opts_.useIsomorphism)
        return {stage_class_[s], has_embed, has_head, j - i, first_kind};
    // Degenerate key: every (s, i, j) is distinct.
    return {s * (pm_.numLayers() + 1) + i, has_embed, has_head, j - i,
            first_kind};
}

StageCostCalculator::MemoryBreakdown
StageCostCalculator::breakdown(int i, int j) const
{
    MemoryBreakdown b;
    b.staticMem =
        mem_model_.staticMemory(pm_.rangeParams(i, j)).total();
    b.buffer = mem_model_.recomputeBufferBytes(pm_.rawLayers, i, j);
    // The residual stream entering the stage is pinned per in-flight
    // micro-batch; stage 0 receives token ids instead (negligible).
    b.input = (i > 0) ? pm_.stageInputBytes : 0;
    for (int l = i; l <= j; ++l)
        b.alwaysSaved += pm_.layers[l].memAlwaysSaved();
    return b;
}

const StageCost &
StageCostCalculator::cost(int s, int i, int j)
{
    ADAPIPE_ASSERT(s >= 0 && s < p_, "stage out of range: ", s);
    ADAPIPE_ASSERT(i >= 0 && j < pm_.numLayers() && i <= j,
                   "bad layer range [", i, ", ", j, "]");
    const Key key = cacheKey(s, i, j);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        // Hot path: millions of lookups per sweep. Hits/misses are
        // tracked in members and flushed to the obs registry once,
        // by the destructor, never from here.
        ++cache_hits_;
        return it->second;
    }
    auto [ins, _] = cache_.emplace(key, compute(s, i, j));
    return ins->second;
}

const StageCostFloor &
StageCostCalculator::costFloor(int s, int i, int j)
{
    ADAPIPE_ASSERT(s >= 0 && s < p_, "stage out of range: ", s);
    ADAPIPE_ASSERT(i >= 0 && j < pm_.numLayers() && i <= j,
                   "bad layer range [", i, ", ", j, "]");
    const Key key = cacheKey(s, i, j);
    auto it = floor_cache_.find(key);
    if (it != floor_cache_.end())
        return it->second;
    const RangeProfile r = rangeProfile(s, i, j, nullptr);
    StageCostFloor floor;
    floor.feasible = r.feasible;
    if (r.feasible) {
        floor.fwd = r.fwdAll;
        floor.bwd = r.bwdAll;
        addStageOverheads(s, i, floor.fwd, floor.bwd);
    }
    auto [ins, _] = floor_cache_.emplace(key, floor);
    return ins->second;
}

StageCostCalculator::RangeProfile
StageCostCalculator::rangeProfile(int s, int i, int j,
                                  std::vector<UnitProfile> *units) const
{
    RangeProfile r;
    r.mem = breakdown(i, j);
    for (int l = i; l <= j; ++l) {
        for (const auto &u : pm_.layers[l].units) {
            r.fwdAll += u.timeFwd;
            r.bwdAll += u.timeBwd;
            if (!u.alwaysSaved)
                r.fwdRecomputable += u.timeFwd;
            r.savedAll += u.memSaved;
            if (units)
                units->push_back(u);
        }
    }
    const int m = inflight(s);
    const Bytes cap = capacity();
    r.budget = static_cast<std::int64_t>(opts_.memBudgetFraction *
                                         static_cast<double>(cap));
    r.noRecomputeTotal =
        r.mem.staticMem +
        static_cast<Bytes>(m) * (r.mem.input + r.savedAll);
    r.minimal = r.mem.staticMem + r.mem.buffer +
                static_cast<Bytes>(m) *
                    (r.mem.input + r.mem.alwaysSaved);
    // Fast path: everything saved fits the budget without a buffer.
    // Disabled under a bubble budget — there the solver's discounted
    // objective may prefer saving *less* (replay hides for free), so
    // "everything fits" no longer implies "save everything".
    r.fastPath = overlapBubble(s) <= 0 &&
                 static_cast<std::int64_t>(r.noRecomputeTotal) <=
                     r.budget;
    // Otherwise the stage must fit with every optional unit
    // recomputed.
    r.feasible = r.fastPath || r.minimal <= cap;
    return r;
}

void
StageCostCalculator::addStageOverheads(int s, int i, Seconds &fwd,
                                       Seconds &bwd) const
{
    if (i > 0) {
        fwd += pm_.p2pTime;
        bwd += pm_.p2pTime;
    }
    const double factor = timeFactor(s);
    if (factor != 1.0) {
        fwd *= factor;
        bwd *= factor;
    }
}

StageCost
StageCostCalculator::compute(int s, int i, int j)
{
    // Gather the range's units. With offloading enabled, the solver
    // itself weighs recompute vs host-staging per unit (tri-choice
    // DP); unit times are passed through unmodified so fwd/bwd
    // accounting always matches what the event simulator replays —
    // the offload share is reported disjointly in offloadExposed.
    std::vector<UnitProfile> units;
    const RangeProfile r = rangeProfile(s, i, j, &units);
    const MemoryBreakdown &mem = r.mem;

    StageCost result;
    result.totalUnits = static_cast<int>(units.size());

    RecomputeDpOptions dp_opts = opts_.dp;
    dp_opts.overlapBubble = overlapBubble(s);
    dp_opts.offload = opts_.offload;
    if (dp_opts.offload.enabled && dp_opts.offload.linkBudgetPerMb <= 0) {
        // Default shared-link budget: the host link can stream while
        // this stage computes one micro-batch's forward + backward,
        // no longer (evictions of micro-batch t overlap with compute
        // of t+1). Range-local, so the isomorphism cache stays valid.
        dp_opts.offload.linkBudgetPerMb = r.fwdAll + r.bwdAll;
    }

    if (r.fastPath) {
        result.feasible = true;
        result.recompute.saved.assign(units.size(), true);
        result.recompute.savedFwdTime = r.fwdRecomputable;
        result.recompute.savedBytes = r.savedAll - mem.alwaysSaved;
        result.recompute.savedUnits = result.totalUnits;
        result.fwd = r.fwdAll;
        result.bwd = r.bwdAll;
        result.memPeak = r.noRecomputeTotal;
    } else if (!r.feasible) {
        result.memPeak = r.minimal;
        return result;
    } else {
        const int m = inflight(s);
        const std::int64_t per_mb =
            (r.budget - static_cast<std::int64_t>(mem.staticMem) -
             static_cast<std::int64_t>(mem.buffer)) /
                m -
            static_cast<std::int64_t>(mem.input) -
            static_cast<std::int64_t>(mem.alwaysSaved);
        if (opts_.knapsackMemo) {
            bool hit = false;
            result.recompute = opts_.knapsackMemo->solve(
                units, per_mb, dp_opts, &hit);
            if (hit) {
                ++memo_hits_;
            } else {
                ++memo_misses_;
                ++knapsack_runs_;
            }
        } else {
            ++knapsack_runs_;
            result.recompute =
                solveRecomputeKnapsack(units, per_mb, dp_opts);
        }
        result.feasible = true;
        result.fwd = r.fwdAll;
        // criticalReplayTime equals (fwd_recomputable - savedFwdTime)
        // without a bubble; with one, the hidden share is discounted
        // off the backward critical path. Offloaded units add their
        // exposed (non-overlapped) transfer share instead of replay;
        // adding exact 0.0 with offload disabled keeps bwd
        // bit-identical to the pre-offload calculator.
        result.bwd = r.bwdAll + result.recompute.criticalReplayTime +
                     result.recompute.offloadExposedTime;
        result.replayHidden = result.recompute.hiddenReplayTime;
        result.replayCritical = result.recompute.criticalReplayTime;
        result.offloadExposed = result.recompute.offloadExposedTime;
        result.offloadLinkTime = result.recompute.offloadLinkTime;
        result.offloadBytes = result.recompute.offloadBytes;
        result.offloadedUnits = result.recompute.offloadedUnits;
        // Offloaded activations live in host memory between forward
        // and backward: they occupy no device bytes per micro-batch
        // (savedBytes already excludes them), so the peak formula is
        // unchanged.
        result.memPeak =
            mem.staticMem + mem.buffer +
            static_cast<Bytes>(m) *
                (mem.input + mem.alwaysSaved +
                 result.recompute.savedBytes);
    }

    addStageOverheads(s, i, result.fwd, result.bwd);
    const double factor = timeFactor(s);
    if (factor != 1.0) {
        result.replayHidden *= factor;
        result.replayCritical *= factor;
        result.offloadExposed *= factor;
        result.offloadLinkTime *= factor;
    }
    return result;
}

StageCost
StageCostCalculator::baselineCost(int s, int i, int j,
                                  RecomputeBaseline mode) const
{
    ADAPIPE_ASSERT(s >= 0 && s < p_, "stage out of range: ", s);
    const int m = inflight(s);
    const MemoryBreakdown mem = breakdown(i, j);

    auto is_selective = [](UnitKind kind) {
        return kind == UnitKind::AttnScores ||
               kind == UnitKind::AttnSoftmax ||
               kind == UnitKind::AttnContext;
    };

    Seconds fwd_all = 0;
    Seconds bwd_all = 0;
    Seconds fwd_blocks = 0;    // recomputed work, full recompute
    Seconds fwd_selective = 0; // recomputed work, selective
    Bytes selective_buffer = 0;
    int total_units = 0;
    int selective_units = 0;
    for (int l = i; l <= j; ++l) {
        const ProfiledLayer &layer = pm_.layers[l];
        fwd_all += layer.timeFwdAll();
        bwd_all += layer.timeBwdAll();
        if (layer.kind == LayerKind::Attention ||
            layer.kind == LayerKind::FeedForward) {
            fwd_blocks += layer.timeFwdAll();
        }
        Bytes layer_selective_mem = 0;
        for (const auto &u : layer.units) {
            if (is_selective(u.kind)) {
                fwd_selective += u.timeFwd;
                layer_selective_mem += u.memSaved;
                ++selective_units;
            }
        }
        selective_buffer =
            std::max(selective_buffer, layer_selective_mem);
        total_units += static_cast<int>(layer.units.size());
    }

    StageCost result;
    result.totalUnits = total_units;
    Bytes saved_per_mb = 0;
    int saved_units = 0;
    switch (mode) {
      case RecomputeBaseline::Full:
        saved_per_mb =
            mem_model_.fullRecomputeSavedPerMb(pm_.rawLayers, i, j);
        result.bwd = bwd_all + fwd_blocks;
        // Only the Embedding/DecodingHead units stay saved.
        for (int l = i; l <= j; ++l) {
            if (pm_.layers[l].kind == LayerKind::Embedding ||
                pm_.layers[l].kind == LayerKind::DecodingHead) {
                saved_units +=
                    static_cast<int>(pm_.layers[l].units.size());
            }
        }
        result.memPeak = mem.staticMem + mem.buffer +
                         static_cast<Bytes>(m) *
                             (mem.input + saved_per_mb);
        break;
      case RecomputeBaseline::None:
        saved_per_mb =
            mem_model_.noRecomputeSavedPerMb(pm_.rawLayers, i, j);
        result.bwd = bwd_all;
        saved_units = total_units;
        result.memPeak = mem.staticMem +
                         static_cast<Bytes>(m) *
                             (mem.input + saved_per_mb);
        break;
      case RecomputeBaseline::Selective:
        saved_per_mb = mem_model_.selectiveRecomputeSavedPerMb(
            pm_.rawLayers, i, j);
        result.bwd = bwd_all + fwd_selective;
        saved_units = total_units - selective_units;
        result.memPeak = mem.staticMem + selective_buffer +
                         static_cast<Bytes>(m) *
                             (mem.input + saved_per_mb);
        break;
    }
    result.fwd = fwd_all;
    // Uniform policies never overlap: all replay is critical.
    result.replayCritical = result.bwd - bwd_all;
    result.recompute.criticalReplayTime = result.replayCritical;
    result.recompute.savedUnits = saved_units;
    result.recompute.savedBytes = saved_per_mb;
    result.feasible = result.memPeak <= capacity();

    addStageOverheads(s, i, result.fwd, result.bwd);
    const double factor = timeFactor(s);
    if (factor != 1.0)
        result.replayCritical *= factor;
    return result;
}

} // namespace adapipe
