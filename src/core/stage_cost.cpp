#include "core/stage_cost.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "core/knapsack_memo.h"
#include "obs/macros.h"
#include "util/logging.h"

namespace adapipe {

StageCostCalculator::StageCostCalculator(const ProfiledModel &pm, int p,
                                         int n, StageCostOptions opts)
    : pm_(pm),
      mem_model_(pm.model, pm.train, pm.par),
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
    budget_ = static_cast<std::int64_t>(opts_.memBudgetFraction *
                                        static_cast<double>(capacity()));
    // A stage reaches a range's cost only through its in-flight
    // count, time factor and bubble; its class is the first stage
    // with the same three (doubles by bit pattern, as KnapsackMemo).
    // A range reaches it only through its length, first layer kind
    // and boundary content, so an interior range is represented by
    // the one of its length at the first layer of its kind.
    const auto stage_values = [this](int s) {
        return std::tuple{inflight(s),
                          std::bit_cast<std::uint64_t>(timeFactor(s)),
                          std::bit_cast<std::uint64_t>(overlapBubble(s))};
    };
    const bool iso = opts_.useIsomorphism;
    for (int s = 0; s < p_; ++s) {
        int first = 0;
        while (iso && stage_values(first) != stage_values(s))
            ++first;
        stage_class_.push_back(iso ? first : s);
    }
    for (int i = 0; i < pm_.numLayers(); ++i) {
        int first = 0;
        while (iso && pm_.layers[first].kind != pm_.layers[i].kind)
            ++first;
        rep_start_.push_back(iso ? first : i);
    }
    starts_.resize(pm_.numLayers());
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

std::pair<int, int>
StageCostCalculator::representative(int i, int j) const
{
    if (j == pm_.numLayers() - 1)
        return {i, j};
    // An interior range keeps its length and moves to the first
    // start of its kind; a range from the embedding stays put.
    const int first = rep_start_[i];
    return {first, first + (j - i)};
}

const StageCostCalculator::RangeSums &
StageCostCalculator::rangeSums(int i, int j)
{
    const int last = pm_.numLayers() - 1;
    StartSums &start = starts_[i];
    if (!start.filled) {
        // One pass from i to the head, in the units' order, so every
        // prefix is bit-equal to a loop over [i, j] alone.
        const bool keep_row = rep_start_[i] == i;
        if (keep_row)
            start.row.reserve(last - i);
        RangeSums r;
        r.mem.input = (i > 0) ? pm_.stageInputBytes : 0;
        std::uint64_t params = 0;
        for (int l = i; l <= last; ++l) {
            const ProfiledLayer &layer = pm_.layers[l];
            for (const auto &u : layer.units) {
                r.fwdAll += u.timeFwd;
                r.bwdAll += u.timeBwd;
                if (!u.alwaysSaved)
                    r.fwdRecomputable += u.timeFwd;
                else
                    r.mem.alwaysSaved += u.memSaved;
                r.savedAll += u.memSaved;
            }
            r.units += static_cast<int>(layer.units.size());
            params += layer.params;
            const Layer &raw = pm_.rawLayers[l];
            if (raw.kind == LayerKind::Attention ||
                raw.kind == LayerKind::FeedForward)
                r.mem.buffer = std::max(r.mem.buffer, raw.memSavedAll());
            if (!keep_row && l < last)
                continue;
            r.mem.staticMem = mem_model_.staticMemory(params).total();
            if (l < last)
                start.row.push_back(r);
            else
                start.head = r;
        }
        start.filled = true;
    }
    return j == last ? start.head : start.row[j - i];
}

const StageCost &
StageCostCalculator::cost(int s, int i, int j)
{
    ADAPIPE_ASSERT(s >= 0 && s < p_, "stage out of range: ", s);
    ADAPIPE_ASSERT(i >= 0 && j < pm_.numLayers() && i <= j,
                   "bad layer range [", i, ", ", j, "]");
    const auto [ri, rj] = representative(i, j);
    const std::int64_t layers = pm_.numLayers();
    const std::int64_t key =
        (stage_class_[s] * layers + ri) * layers + rj;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        // Hot path: millions of lookups per sweep. Hits/misses are
        // tracked in members and flushed to the obs registry once,
        // by the destructor, never from here.
        ++cache_hits_;
        return it->second;
    }
    auto [ins, _] = cache_.emplace(key, compute(s, ri, rj));
    return ins->second;
}

StageCostFloor
StageCostCalculator::costFloor(int s, int i, int j)
{
    ADAPIPE_ASSERT(s >= 0 && s < p_, "stage out of range: ", s);
    ADAPIPE_ASSERT(i >= 0 && j < pm_.numLayers() && i <= j,
                   "bad layer range [", i, ", ", j, "]");
    const auto [ri, rj] = representative(i, j);
    const RangeSums &r = rangeSums(ri, rj);
    StageCostFloor floor;
    floor.feasible = verdict(s, r).feasible;
    if (floor.feasible) {
        floor.fwd = r.fwdAll;
        floor.bwd = r.bwdAll;
        addStageOverheads(s, ri, floor.fwd, floor.bwd);
    }
    return floor;
}

StageCostCalculator::Verdict
StageCostCalculator::verdict(int s, const RangeSums &r) const
{
    Verdict v;
    const int m = inflight(s);
    v.noRecomputeTotal =
        r.mem.staticMem +
        static_cast<Bytes>(m) * (r.mem.input + r.savedAll);
    v.minimal = r.mem.staticMem + r.mem.buffer +
                static_cast<Bytes>(m) *
                    (r.mem.input + r.mem.alwaysSaved);
    // Fast path: everything saved fits the budget without a buffer.
    // Disabled under a bubble budget — there the solver's discounted
    // objective may prefer saving *less* (replay hides for free), so
    // "everything fits" no longer implies "save everything".
    v.fastPath = overlapBubble(s) <= 0 &&
                 static_cast<std::int64_t>(v.noRecomputeTotal) <=
                     budget_;
    // Otherwise the stage must fit with every optional unit
    // recomputed.
    v.feasible = v.fastPath || v.minimal <= capacity();
    return v;
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
    const RangeSums &r = rangeSums(i, j);
    const Verdict v = verdict(s, r);
    const MemoryBreakdown &mem = r.mem;

    StageCost result;
    result.totalUnits = r.units;

    if (v.fastPath) {
        result.feasible = true;
        result.recompute.saved.assign(r.units, true);
        result.recompute.savedFwdTime = r.fwdRecomputable;
        result.recompute.savedBytes = r.savedAll - mem.alwaysSaved;
        result.recompute.savedUnits = result.totalUnits;
        result.fwd = r.fwdAll;
        result.bwd = r.bwdAll;
        result.memPeak = v.noRecomputeTotal;
    } else if (!v.feasible) {
        result.memPeak = v.minimal;
        result.recomputeBuffer = mem.buffer;
        return result;
    } else {
        // Gather the range's units. With offloading enabled, the
        // solver itself weighs recompute vs host-staging per unit
        // (tri-choice DP); unit times are passed through unmodified
        // so fwd/bwd accounting always matches what the event
        // simulator replays — the offload share is reported
        // disjointly in offloadExposed.
        units_.clear();
        for (int l = i; l <= j; ++l) {
            for (const auto &u : pm_.layers[l].units)
                units_.push_back(u);
        }
        RecomputeDpOptions dp_opts;
        dp_opts.maxBuckets = opts_.maxBuckets;
        dp_opts.useGcd = opts_.useGcd;
        dp_opts.overlapBubble = overlapBubble(s);
        dp_opts.offload = opts_.offload;
        if (dp_opts.offload.enabled &&
            dp_opts.offload.linkBudgetPerMb <= 0) {
            // Default shared-link budget: the host link can stream
            // while this stage computes one micro-batch's forward +
            // backward, no longer (evictions of micro-batch t overlap
            // with compute of t+1). Range-local, so the isomorphism
            // cache stays valid.
            dp_opts.offload.linkBudgetPerMb = r.fwdAll + r.bwdAll;
        }
        const int m = inflight(s);
        const std::int64_t per_mb =
            (budget_ - static_cast<std::int64_t>(mem.staticMem) -
             static_cast<std::int64_t>(mem.buffer)) /
                m -
            static_cast<std::int64_t>(mem.input) -
            static_cast<std::int64_t>(mem.alwaysSaved);
        if (opts_.knapsackMemo) {
            bool hit = false;
            result.recompute = opts_.knapsackMemo->solve(
                units_, per_mb, dp_opts, &hit);
            if (hit) {
                ++memo_hits_;
            } else {
                ++memo_misses_;
                ++knapsack_runs_;
            }
        } else {
            ++knapsack_runs_;
            result.recompute =
                solveRecomputeKnapsack(units_, per_mb, dp_opts);
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
        result.recomputeBuffer = mem.buffer;
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
        result.recomputeBuffer = mem.buffer;
        // Only the Embedding/DecodingHead units stay saved.
        for (int l = i; l <= j; ++l) {
            if (pm_.layers[l].kind == LayerKind::Embedding ||
                pm_.layers[l].kind == LayerKind::DecodingHead) {
                saved_units +=
                    static_cast<int>(pm_.layers[l].units.size());
            }
        }
        break;
      case RecomputeBaseline::None:
        saved_per_mb =
            mem_model_.noRecomputeSavedPerMb(pm_.rawLayers, i, j);
        result.bwd = bwd_all;
        saved_units = total_units;
        break;
      case RecomputeBaseline::Selective:
        saved_per_mb = mem_model_.selectiveRecomputeSavedPerMb(
            pm_.rawLayers, i, j);
        result.bwd = bwd_all + fwd_selective;
        // Bounded by one layer's recomputed attention internals.
        result.recomputeBuffer = selective_buffer;
        saved_units = total_units - selective_units;
        break;
    }
    result.memPeak = mem.staticMem + result.recomputeBuffer +
                     static_cast<Bytes>(m) * (mem.input + saved_per_mb);
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
