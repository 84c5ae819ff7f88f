/**
 * @file
 * Differential test of the pipeline runtime over its whole knob
 * product: the paper's Fig. 10 claim that recomputation never changes
 * the math, extended to overlapped replay, host offload, threads,
 * channel depth, injected faults and crash recovery.
 *
 * One seeded generator draws a case: blocks; p in 1..4; v in
 * {1, 2, 4} with v·p <= blocks (n % p == 0 when v > 1); n in 1..6;
 * steps in 1..3; intra-stage threads in {1, 2, 4}; channel capacity
 * in 1..3; per block keep, attention or full recompute, plus an
 * offload flag; overlap on or off; staging async, sync or sync with
 * forced misses; and a fault: none, a seeded straggler with stalls
 * and send delays, or (p >= 2) a one-shot crash, thrown or hung under
 * the watchdog, recovered by runPipelineWithRecovery with a snapshot
 * every step. One checker holds every case to:
 *  - losses EXPECT_EQ to trainTinyLM keeping every activation (for a
 *    crash, the stitched losses after exactly one attempt that
 *    resumes on p - 1 stages from the crash step's snapshot);
 *  - fwdOps == bwdOps == n·steps at every chain position;
 *  - hidden replay <= replay (ops and seconds), none with overlap off;
 *  - per chunk, replayOps == (recompute blocks not offloaded)·n·steps
 *    + offloadFetchMisses, and no replay time with neither;
 *  - per worker, fetches + misses == evictions; no bytes evicted
 *    without an offloaded block; sync staging evicts every offloaded
 *    block·n·steps; forced misses fetch nothing and miss every one;
 *  - the merged registry's offload.evictions, offload.fetch_miss and
 *    runtime.overlap.warms equal the per-chunk sums;
 *  - a straggler case rerun at 1 thread (4 if it drew 1) gives the
 *    same nonempty faultEventSignature list.
 *
 * Corners shards replay the grids of the tests this one replaced;
 * Seeded shards draw cases 1..64; DISABLED_Wide shards draw cases
 * 65..2112 for CI (--gtest_also_run_disabled_tests). A failure names
 * the case, its seed, every drawn value and the --gtest_filter that
 * reruns its shard. The seeds are fixed: there is no option.
 *
 * Replaced tests -> the corner shard that runs their grid:
 *  - PipelineRuntime.MatchesSingleThreadedTrainer and
 *    TrajectoryIdenticalAcrossStageCounts: <mode>_p{1,2,4}_v1 and
 *    p3_capacity1 (every trajectory equals one reference);
 *  - PipelineRuntime.CapacityOneChannelsDoNotDeadlock: p3_capacity1;
 *  - PipelineRuntime.InterleavedMatchesSingleThreadedTrainer:
 *    interleaved_blocks8; InterleavedSingleWorkerSelfEdges:
 *    <mode>_p1_v2;
 *  - OverlapBitExactness and OffloadBitExactness
 *    .SweepMatchesReferenceAtEveryCorner: <mode>_p<p>_v<v> (the sync
 *    eviction count is the sync invariant);
 *  - OffloadFallback.ForcedFetchMissesRecomputeBitIdentically:
 *    keep_p2_v1's sync+miss corners;
 *  - FaultInjection.DeterministicAcrossThreadsAndChunks and
 *    Recovery.CrashBeforeFirstSnapshotRestartsFresh: faults.
 * Former release-bench runtime smoke-benchmark gates -> check:
 *  - equal final losses across thread, overlap, offload and v
 *    siblings; no hidden replay when lazy; no bytes without offload:
 *    the invariants above;
 *  - some p = 4 overlap run with recompute hides replay: every corner
 *    shard that has such runs; every p = 4 offload run moves bytes:
 *    every such corner;
 *  - recovered losses match: the crash corners and drawn crashes;
 *  - tokens/s and recovered wall time > 0 were timings: perfbench's
 *    train-* workloads and pipeline_training --recover --metrics-out
 *    (recovery.*_us) report them.
 * Not asserted: that a worker runs Schedule::deviceOrder. Nothing
 * outside the runtime observes op order; the worker loop iterates
 * deviceOrder directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/trainer.h"
#include "obs/registry.h"
#include "runtime/fault_injector.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/recovery.h"
#include "util/rng.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

constexpr int kMaxBlocks = 8;
constexpr BlockRecompute kModes[] = {BlockRecompute::None,
                                     BlockRecompute::AttentionOnly,
                                     BlockRecompute::Full};
const char *const kModeNames[] = {"keep", "attn", "full"};

enum class Staging { Async, Sync, ForceMiss };
enum class Fault { None, Straggler, Crash };

/** One run of the runtime, with every knob drawn. */
struct Case
{
    /** "corner 3" or "case 17 (seed 17)". */
    std::string label;
    int blocks = 6;
    int p = 1;
    int v = 1;
    int n = 4;
    int steps = 2;
    int threads = 1;
    int capacity = 2;
    /** Per block: the recompute mode and the host-offload flag. */
    std::vector<BlockRecompute> modes;
    std::vector<bool> offload;
    bool overlap = false;
    Staging staging = Staging::Async;
    Fault fault = Fault::None;
    RuntimeFaultSpec faults;
};

/** One ctest entry: its cases run in order in one process. */
struct Shard
{
    std::string name;
    bool corners = false;
    std::vector<Case> cases;
};

void
PrintTo(const Shard &shard, std::ostream *os)
{
    *os << shard.name;
}

std::string
describe(const Case &c)
{
    const char *const staging[] = {"async", "sync", "sync+miss"};
    std::ostringstream os;
    os << c.label << ": blocks=" << c.blocks << " p=" << c.p
       << " v=" << c.v << " n=" << c.n << " steps=" << c.steps
       << " threads=" << c.threads << " capacity=" << c.capacity
       << " overlap=" << c.overlap
       << " staging=" << staging[static_cast<int>(c.staging)]
       << " actions=[";
    for (int b = 0; b < c.blocks; ++b) {
        os << (b ? " " : "")
           << kModeNames[static_cast<int>(c.modes[b])]
           << (c.offload[b] ? "+offload" : "");
    }
    os << "]";
    const RuntimeFaultSpec &f = c.faults;
    if (c.fault == Fault::Straggler) {
        os << " fault=straggler seed=" << f.seed
           << " worker=" << f.slowdowns[0].device
           << " factor=" << f.slowdowns[0].factor
           << " stall_probability=" << f.stalls.probability
           << " stall_base=" << f.stalls.base
           << " stall_retries=" << f.stalls.maxRetries
           << " send_delay_us=" << f.sendDelayUs
           << " send_jitter=" << f.sendDelayJitter;
    } else if (c.fault == Fault::Crash) {
        os << " fault=crash(" << (f.crash.hang ? "hang" : "throw")
           << ") worker=" << f.crash.worker << " step=" << f.crash.step
           << " after_ops=" << f.crash.afterOps;
    }
    return os.str();
}

TinyLmConfig
configOf(const Case &c)
{
    TinyLmConfig cfg = smallConfig();
    cfg.blocks = c.blocks;
    return cfg;
}

std::vector<StageSpec>
specsOf(const Case &c)
{
    std::vector<StageSpec> specs =
        evenStageSpecs(c.blocks, c.v * c.p, BlockRecompute::None);
    for (StageSpec &spec : specs) {
        spec.recompute.assign(c.modes.begin() + spec.firstBlock,
                              c.modes.begin() + spec.lastBlock + 1);
        spec.offload.assign(c.offload.begin() + spec.firstBlock,
                            c.offload.begin() + spec.lastBlock + 1);
    }
    return specs;
}

RuntimeOptions
optionsOf(const Case &c)
{
    RuntimeOptions opts = smallOpts(c.steps);
    opts.microBatches = c.n;
    opts.virtualStages = c.v;
    opts.intraStageThreads = c.threads;
    opts.channelCapacity = c.capacity;
    opts.overlapReplay = c.overlap;
    opts.offloadSync = c.staging != Staging::Async;
    opts.offloadForceMiss = c.staging == Staging::ForceMiss;
    if (c.fault != Fault::None)
        opts.faults = &c.faults;
    if (c.faults.crash.hang) {
        // recovery_test's timeout, which holds under TSan too.
        opts.watchdog.enabled = true;
        opts.watchdog.stallTimeoutUs = 3e5;
        opts.watchdog.pollIntervalUs = 2e4;
    }
    return opts;
}

/** Keep every block, every knob at its default. */
Case
uniformCase(int blocks, int p, int v, int steps, BlockRecompute mode)
{
    Case c;
    c.blocks = blocks;
    c.p = p;
    c.v = v;
    c.steps = steps;
    c.modes.assign(static_cast<std::size_t>(blocks), mode);
    c.offload.assign(static_cast<std::size_t>(blocks), false);
    return c;
}

std::vector<Shard>
cornerShards()
{
    std::vector<Shard> shards;
    // The overlap and offload sweeps: every (threads, overlap,
    // staging) at each (mode, p, v), staging every other block;
    // forced misses only at 1 thread, lazy, as the fallback test ran.
    const std::pair<int, int> pvs[] = {
        {1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 1}};
    for (int m = 0; m < 3; ++m) {
        for (const auto &[p, v] : pvs) {
            Shard shard{std::string(kModeNames[m]) + "_p" +
                            std::to_string(p) + "_v" +
                            std::to_string(v),
                        true,
                        {}};
            for (const int threads : {1, 4}) {
                for (const bool overlap : {false, true}) {
                    Case c = uniformCase(6, p, v, 2, kModes[m]);
                    c.threads = threads;
                    c.overlap = overlap;
                    shard.cases.push_back(c);
                    for (int b = 0; b < c.blocks; b += 2)
                        c.offload[b] = true;
                    for (const Staging staging :
                         {Staging::Async, Staging::Sync,
                          Staging::ForceMiss}) {
                        if (staging == Staging::ForceMiss &&
                            (threads > 1 || overlap))
                            continue;
                        c.staging = staging;
                        shard.cases.push_back(c);
                    }
                }
            }
            shards.push_back(std::move(shard));
        }
    }
    Shard interleaved{"interleaved_blocks8", true, {}};
    Shard p3{"p3_capacity1", true, {}};
    for (int m = 0; m < 3; ++m) {
        for (const int v : {1, 2, 4})
            interleaved.cases.push_back(
                uniformCase(8, 2, v, 3, kModes[m]));
        p3.cases.push_back(uniformCase(6, 3, 1, 3, kModes[m]));
    }
    Case tight = uniformCase(6, 3, 1, 2, BlockRecompute::None);
    tight.capacity = 1;
    p3.cases.push_back(tight);
    shards.push_back(std::move(interleaved));
    shards.push_back(std::move(p3));

    Shard faults{"faults", true, {}};
    for (const int v : {1, 2}) {
        Case c = uniformCase(6, 2, v, 2, BlockRecompute::None);
        c.threads = 4;
        c.fault = Fault::Straggler;
        c.faults.seed = 11;
        c.faults.slowdowns.push_back({1, 1.05});
        c.faults.stalls.probability = 0.3;
        c.faults.stalls.base = 2e-4;
        c.faults.stalls.maxRetries = 2;
        c.faults.sendDelayUs = 100;
        c.faults.sendDelayJitter = 0.5;
        faults.cases.push_back(c);
    }
    // Crashes thrown at v = 1, 2, and hung at v = 1 as release-bench's
    // recovery check ran it.
    const std::pair<int, bool> crashes[] = {
        {1, false}, {2, false}, {1, true}};
    for (const auto &[v, hang] : crashes) {
        Case c = uniformCase(6, 2, v, 3, BlockRecompute::None);
        c.fault = Fault::Crash;
        c.faults.crash.worker = 1;
        c.faults.crash.step = 2;
        c.faults.crash.afterOps = 1;
        c.faults.crash.hang = hang;
        faults.cases.push_back(c);
    }
    // A crash before the first snapshot restarts from step 0.
    Case fresh = uniformCase(6, 3, 1, 4, BlockRecompute::None);
    fresh.fault = Fault::Crash;
    fresh.faults.crash.worker = 0;
    fresh.faults.crash.afterOps = 1;
    faults.cases.push_back(fresh);
    shards.push_back(std::move(faults));

    for (Shard &shard : shards) {
        for (std::size_t k = 0; k < shard.cases.size(); ++k)
            shard.cases[k].label = "corner " + std::to_string(k);
    }
    return shards;
}

Case
drawCase(int number)
{
    Rng rng(static_cast<std::uint64_t>(number));
    const auto pick = [&rng](int lo, int hi) {
        return static_cast<int>(rng.uniformInt(lo, hi));
    };
    Case c;
    c.label = "case " + std::to_string(number) + " (seed " +
              std::to_string(number) + ")";
    c.p = pick(1, 4);
    c.v = 1 << pick(0, 2);
    while (c.v * c.p > kMaxBlocks)
        c.v /= 2;
    // Megatron's interleaving constraint: n % p == 0 when v > 1.
    c.n = c.v > 1 ? c.p * pick(1, 6 / c.p) : pick(1, 6);
    c.steps = pick(1, 3);
    c.blocks = pick(c.v * c.p, kMaxBlocks);
    c.threads = 1 << pick(0, 2);
    c.capacity = pick(1, 3);
    for (int b = 0; b < c.blocks; ++b) {
        c.modes.push_back(kModes[pick(0, 2)]);
        c.offload.push_back(pick(0, 2) == 0);
    }
    c.overlap = pick(0, 1) == 1;
    c.staging = static_cast<Staging>(pick(0, 2));
    const int branch = pick(0, 3);
    if (branch == 2) {
        c.fault = Fault::Straggler;
        c.faults.seed = rng();
        c.faults.slowdowns.push_back(
            {pick(0, c.p - 1), rng.uniform(1.01, 1.2)});
        c.faults.stalls.probability = rng.uniform(0.0, 0.3);
        c.faults.stalls.base = rng.uniform(1e-4, 2e-4);
        c.faults.stalls.maxRetries = pick(1, 2);
        c.faults.sendDelayUs = rng.uniform(0.0, 150.0);
        c.faults.sendDelayJitter = rng.uniform(0.0, 0.5);
    } else if (branch == 3 && c.p >= 2) {
        c.fault = Fault::Crash;
        c.faults.crash.worker = pick(0, c.p - 1);
        c.faults.crash.step = pick(0, c.steps - 1);
        // A worker runs 2·n·v ops a step, so the crash always fires.
        c.faults.crash.afterOps = pick(0, 2 * c.n * c.v - 1);
        // A hang costs the 300 ms watchdog timeout: draw fewer.
        c.faults.crash.hang = pick(0, 7) == 0;
    }
    return c;
}

/** Cases first .. first + shards·per_shard - 1, per_shard a shard. */
std::vector<Shard>
randomShards(int first, int shards, int per_shard)
{
    std::vector<Shard> out;
    for (int s = 0; s < shards; ++s) {
        const int lo = first + s * per_shard;
        const int hi = lo + per_shard - 1;
        Shard shard{"cases_" + std::to_string(lo) + "_to_" +
                        std::to_string(hi),
                    false,
                    {}};
        for (int k = lo; k <= hi; ++k)
            shard.cases.push_back(drawCase(k));
        out.push_back(std::move(shard));
    }
    return out;
}

/** trainTinyLM keeping every activation, once per (blocks, n,
 *  steps): no action, knob or fault may change a loss bit. */
const std::vector<double> &
reference(const Case &c)
{
    static std::map<std::tuple<int, int, int>, std::vector<double>>
        cache;
    std::vector<double> &ref = cache[{c.blocks, c.n, c.steps}];
    if (ref.empty()) {
        ref = referenceLosses(
            configOf(c), optionsOf(c),
            evenStageSpecs(c.blocks, 1, BlockRecompute::None));
    }
    return ref;
}

std::vector<std::string>
signatures(const RuntimeResult &run)
{
    std::vector<std::string> out;
    for (const FaultEvent &event : run.faultEvents)
        out.push_back(faultEventSignature(event));
    return out;
}

/**
 * The metric identities of a successful run of @p specs on
 * @p workers workers over @p steps steps, and of its merged
 * @p metrics registry when there is one.
 */
void
checkMetrics(const Case &c, const std::vector<StageSpec> &specs,
             int workers, int steps, const RuntimeResult &run,
             const obs::Registry *metrics)
{
    ASSERT_EQ(run.stages.size(), specs.size());
    const std::int64_t ops = static_cast<std::int64_t>(c.n) * steps;
    std::int64_t offloaded = 0;
    std::int64_t evictions = 0;
    std::int64_t fetches = 0;
    std::int64_t misses = 0;
    std::int64_t hidden = 0;
    std::uint64_t bytes = 0;
    std::vector<std::int64_t> worker_misses(
        static_cast<std::size_t>(workers), 0);
    for (std::size_t g = 0; g < specs.size(); ++g) {
        SCOPED_TRACE("chain position " + std::to_string(g));
        const StageSpec &spec = specs[g];
        const StageMetrics &sm = run.stages[g];
        EXPECT_EQ(sm.fwdOps, ops);
        EXPECT_EQ(sm.bwdOps, ops);
        EXPECT_LE(sm.replayHiddenOps, sm.replayOps);
        EXPECT_LE(sm.replayHiddenSeconds, sm.replaySeconds);
        if (!c.overlap) {
            EXPECT_EQ(sm.replayHiddenOps, 0);
            EXPECT_EQ(sm.replayHiddenSeconds, 0.0);
        }
        std::int64_t recomputed = 0;
        for (std::size_t i = 0; i < spec.offload.size(); ++i) {
            offloaded += spec.offload[i] ? 1 : 0;
            if (!spec.offload[i] &&
                spec.recompute[i] != BlockRecompute::None)
                ++recomputed;
        }
        EXPECT_EQ(sm.replayOps,
                  recomputed * ops + sm.offloadFetchMisses);
        if (recomputed == 0 && sm.offloadFetchMisses == 0) {
            EXPECT_EQ(sm.replaySeconds, 0.0);
        }
        worker_misses[g % static_cast<std::size_t>(workers)] +=
            sm.offloadFetchMisses;
        evictions += sm.offloadEvictions;
        fetches += sm.offloadFetches;
        misses += sm.offloadFetchMisses;
        hidden += sm.replayHiddenOps;
        bytes += sm.offloadBytesEvicted;
    }
    // The stager's totals land on each worker's first chunk, whose
    // chain position is the worker index.
    for (int w = 0; w < workers; ++w) {
        const StageMetrics &first =
            run.stages[static_cast<std::size_t>(w)];
        EXPECT_EQ(first.offloadFetches +
                      worker_misses[static_cast<std::size_t>(w)],
                  first.offloadEvictions)
            << "worker " << w;
    }
    const std::int64_t staged = offloaded * ops;
    EXPECT_LE(evictions, staged);
    if (offloaded == 0) {
        EXPECT_EQ(bytes, 0u);
    }
    if (c.staging != Staging::Async) {
        EXPECT_EQ(evictions, staged);
    }
    if (c.staging == Staging::ForceMiss) {
        EXPECT_EQ(fetches, 0);
        EXPECT_EQ(misses, staged);
    }
    if (metrics) {
        EXPECT_EQ(metrics->counter("offload.evictions"), evictions);
        EXPECT_EQ(metrics->counter("offload.fetch_miss"), misses);
        EXPECT_EQ(metrics->counter("runtime.overlap.warms"), hidden);
    }
}

/** Run @p c and check it; @p last gets the (final) run. */
void
runCase(const Case &c, const std::string &snapshot_path,
        RuntimeResult &last)
{
    const TinyLmConfig cfg = configOf(c);
    const std::vector<StageSpec> specs = specsOf(c);
    RuntimeOptions opts = optionsOf(c);
    const std::vector<double> &ref = reference(c);
    TinyLM model(cfg);

    if (c.fault == Fault::Crash) {
        opts.snapshot.every = 1;
        opts.snapshot.path = snapshot_path;
        std::remove(snapshot_path.c_str());
        const ProfiledModel pm = profileTinyLm(cfg, c.p, c.n);
        RecoveryOptions rec;
        rec.pm = &pm;
        const RecoveryResult res =
            runPipelineWithRecovery(model, specs, opts, rec);
        std::remove(snapshot_path.c_str());
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.losses, ref);
        ASSERT_EQ(res.attempts.size(), 1u);
        const RecoveryAttempt &attempt = res.attempts[0];
        const RuntimeCrash &crash = c.faults.crash;
        EXPECT_EQ(attempt.failedWorker, crash.worker);
        EXPECT_EQ(attempt.kind, crash.hang
                                    ? RuntimeFailureKind::WatchdogStall
                                    : RuntimeFailureKind::WorkerError);
        // Step k's snapshot holds the k steps before it; there is none
        // before step 1, so a step-0 crash restarts fresh.
        EXPECT_EQ(attempt.resumedFromStep, crash.step);
        EXPECT_EQ(attempt.restoredFromSnapshot, crash.step > 0);
        EXPECT_EQ(res.finalStages, c.p - 1);
        checkMetrics(c, res.finalSpecs, res.finalStages,
                     c.steps - crash.step, res.finalRun, nullptr);
        last = res.finalRun;
        return;
    }

    obs::Registry metrics;
    const RuntimeResult run = runPipeline(model, specs, opts, &metrics);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.losses, ref);
    checkMetrics(c, specs, c.p, c.steps, run, &metrics);
    last = run;
    if (c.fault != Fault::Straggler)
        return;

    RuntimeOptions again = opts;
    again.intraStageThreads = c.threads == 1 ? 4 : 1;
    TinyLM fresh(cfg);
    const RuntimeResult rerun = runPipeline(fresh, specs, again);
    ASSERT_TRUE(rerun.ok) << rerun.error;
    EXPECT_EQ(rerun.losses, ref);
    EXPECT_FALSE(run.faultEvents.empty());
    EXPECT_EQ(signatures(rerun), signatures(run));
}

class RuntimeDifferential : public testing::TestWithParam<Shard>
{
};

TEST_P(RuntimeDifferential, MatchesReference)
{
    const Shard &shard = GetParam();
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    const std::string suite = info->test_suite_name();
    const std::string rerun =
        "rerun: --gtest_filter=" + suite + "." + info->name() +
        (suite.rfind("DISABLED_", 0) == 0
             ? " --gtest_also_run_disabled_tests"
             : "");
    bool p4_overlap_recompute = false;
    double p4_hidden_seconds = 0;
    for (std::size_t k = 0; k < shard.cases.size(); ++k) {
        const Case &c = shard.cases[k];
        SCOPED_TRACE(describe(c) + "; " + rerun);
        RuntimeResult run;
        runCase(c,
                testing::TempDir() + "runtime_differential_" +
                    shard.name + "_" + std::to_string(k) + ".snap",
                run);
        if (!shard.corners || c.p != 4)
            continue;
        double hidden = 0;
        std::uint64_t bytes = 0;
        for (const StageMetrics &sm : run.stages) {
            hidden += sm.replayHiddenSeconds;
            bytes += sm.offloadBytesEvicted;
        }
        if (std::count(c.offload.begin(), c.offload.end(), true) > 0) {
            EXPECT_GT(bytes, 0u);
        }
        if (c.overlap && std::count(c.modes.begin(), c.modes.end(),
                                    BlockRecompute::None) < c.blocks) {
            p4_overlap_recompute = true;
            p4_hidden_seconds += hidden;
        }
    }
    if (p4_overlap_recompute) {
        EXPECT_GT(p4_hidden_seconds, 0.0)
            << "no p = 4 overlap corner with recompute hid replay; "
            << rerun;
    }
}

std::string
shardName(const testing::TestParamInfo<Shard> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Corners, RuntimeDifferential,
                         testing::ValuesIn(cornerShards()), shardName);
INSTANTIATE_TEST_SUITE_P(Seeded, RuntimeDifferential,
                         testing::ValuesIn(randomShards(1, 8, 8)),
                         shardName);
INSTANTIATE_TEST_SUITE_P(DISABLED_Wide, RuntimeDifferential,
                         testing::ValuesIn(randomShards(65, 16, 128)),
                         shardName);

} // namespace
} // namespace adapipe
