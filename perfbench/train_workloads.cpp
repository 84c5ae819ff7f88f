/**
 * @file
 * Training workloads: a stored AdaPipe plan executed by the pipeline
 * runtime through its public entry points, stageSpecsFromPlan and
 * runPipeline.
 *
 * A timed episode trains a freshly initialised model for one
 * optimizer step. Every episode therefore computes the same loss and
 * the same updated parameters, and one single-threaded trainTinyLM
 * reference, run after the timed window, checks all of them bit for
 * bit. The parameter hash checks the step's gradients and update,
 * which the loss alone does not.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "autograd/engine.h"
#include "autograd/optim.h"
#include "autograd/tensor_pool.h"
#include "autograd/trainer.h"
#include "core/plan_io.h"
#include "hw/cluster.h"
#include "obs/registry.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"
#include "util/file_io.h"
#include "util/json.h"
#include "host_speed.h"
#include "workloads.h"

using namespace adapipe;

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/** Learning rate shared by the runtime and the reference trainer. */
constexpr float kLr = 4e-3f;

/** Model shape, plan call and execution knobs of one workload. */
struct TrainSpec
{
    std::string name;
    TinyLmConfig model;
    int stages = 1;
    int microBatches = 1;
    /** Backward-engine threads per stage. */
    int threads = 1;
    /** Planner memory cap (memCapacityOverride). */
    double capMiB = 0;
    bool offload = false;
    /** Host-link bandwidth of the tri-choice knapsack, bytes/s. */
    double linkBandwidth = 0;
};

TinyLmConfig
tinyLm(int vocab, int dim, int blocks, int ffn, int seq)
{
    TinyLmConfig cfg;
    cfg.vocab = vocab;
    cfg.dim = dim;
    cfg.blocks = blocks;
    cfg.ffnHidden = ffn;
    cfg.maxSeq = seq;
    return cfg;
}

const std::vector<TrainSpec> &
trainSpecs()
{
    static const std::vector<TrainSpec> specs = {
        // The paper's case: 1F1B memory imbalance handled per stage
        // by the tri-choice plan (host staging, recompute, keep).
        {"train-pipeline", tinyLm(64, 64, 8, 128, 32), 4, 8, 1, 2.0,
         true, 6e9},
        // Kernels at 4x the matmul work per token and the parallel
        // backward engine; no channels, stager or planner calls.
        {"train-single", tinyLm(64, 128, 4, 512, 64), 1, 1, 4, 20.0,
         false, 0},
    };
    return specs;
}

const TrainSpec &
specFor(const std::string &name)
{
    for (const TrainSpec &spec : trainSpecs()) {
        if (spec.name == name)
            return spec;
    }
    throw std::runtime_error("unknown training workload " + name);
}

JsonValue
modelJson(const TinyLmConfig &cfg)
{
    JsonValue m = JsonValue::object();
    m.set("vocab", JsonValue::integer(cfg.vocab));
    m.set("dim", JsonValue::integer(cfg.dim));
    m.set("blocks", JsonValue::integer(cfg.blocks));
    m.set("ffn_hidden", JsonValue::integer(cfg.ffnHidden));
    m.set("seq_len", JsonValue::integer(cfg.maxSeq));
    m.set("heads", JsonValue::integer(cfg.numHeads));
    return m;
}

/** The planner call recorded beside each stored plan document. */
JsonValue
generatingCall(const TrainSpec &spec)
{
    JsonValue call = JsonValue::object();
    call.set("call",
             JsonValue::string(
                 "makeInterleavedPlan(buildProfiledModel("
                 "tinyLmModelConfig(model), train, parallel, "
                 "clusterA(1)), PlanMethod::AdaPipe, v, opts)"));
    call.set("method", JsonValue::string("adapipe"));
    call.set("v", JsonValue::integer(1));
    call.set("p", JsonValue::integer(spec.stages));
    call.set("n", JsonValue::integer(spec.microBatches));
    call.set("cap_bytes",
             JsonValue::integer(static_cast<std::int64_t>(
                 spec.capMiB * kMiB)));
    call.set("offload", JsonValue::boolean(spec.offload));
    call.set("link_bandwidth", JsonValue::number(spec.linkBandwidth));
    call.set("cluster", JsonValue::string("clusterA(1)"));
    call.set("model", modelJson(spec.model));
    return call;
}

PlanResult
solvePlan(const TrainSpec &spec)
{
    TrainConfig train;
    train.seqLen = spec.model.maxSeq;
    train.microBatch = 1;
    train.globalBatch = spec.microBatches;
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = spec.stages;
    par.data = 1;
    const ProfiledModel pm = buildProfiledModel(
        tinyLmModelConfig(spec.model), train, par, clusterA(1));
    StageCostOptions opts;
    opts.memCapacityOverride =
        static_cast<Bytes>(spec.capMiB * kMiB);
    if (spec.offload) {
        opts.offload.enabled = true;
        opts.offload.bandwidth = spec.linkBandwidth;
    }
    return makeInterleavedPlan(pm, PlanMethod::AdaPipe, 1, opts);
}

std::string
planPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".json";
}

/**
 * Load a stored plan document and check that it was generated for
 * this workload's model and call.
 */
ParseResult<PipelinePlan>
loadPlanDoc(const std::string &dir, const TrainSpec &spec)
{
    const std::string path = planPath(dir, spec.name);
    const ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<PipelinePlan>::failure(text.error());
    const ParseResult<JsonValue> root = JsonValue::tryParse(text.value());
    if (!root.ok())
        return ParseResult<PipelinePlan>::failure(path + ": " +
                                                  root.error());
    if (!root.value().contains("generated_by") ||
        !root.value().contains("plan") ||
        root.value().at("generated_by").dump(0) !=
            generatingCall(spec).dump(0)) {
        return ParseResult<PipelinePlan>::failure(
            path + ": generated_by does not match the workload; rerun "
                   "adapipe_perfbench --regen-plans");
    }
    return tryPlanFromJson(root.value().at("plan"));
}

const char *
actionName(const StageSpec &spec, int i)
{
    if (i < static_cast<int>(spec.offload.size()) && spec.offload[i])
        return "offload";
    const BlockRecompute mode =
        i < static_cast<int>(spec.recompute.size())
            ? spec.recompute[static_cast<std::size_t>(i)]
            : BlockRecompute::None;
    switch (mode) {
      case BlockRecompute::None:
        return "keep";
      case BlockRecompute::AttentionOnly:
        return "recompute-attn";
      case BlockRecompute::Full:
        return "recompute";
    }
    return "?";
}

std::string
actionMix(const StageMapping &mapping)
{
    std::ostringstream oss;
    for (std::size_t s = 0; s < mapping.stages.size(); ++s) {
        const StageSpec &spec = mapping.stages[s];
        oss << (s ? " | " : "") << "stage " << s << ":";
        for (int i = 0; i < spec.numBlocks(); ++i)
            oss << " b" << spec.firstBlock + i << "=" << actionName(spec, i);
    }
    return oss.str();
}

/** Per-block recompute modes for the reference trainer; host-staged
 *  blocks compute the floats of a kept block. */
std::vector<BlockRecompute>
referenceModes(const StageMapping &mapping)
{
    std::vector<BlockRecompute> modes;
    for (const StageSpec &spec : mapping.stages) {
        for (int i = 0; i < spec.numBlocks(); ++i) {
            const bool off =
                i < static_cast<int>(spec.offload.size()) &&
                spec.offload[static_cast<std::size_t>(i)];
            modes.push_back(
                off || spec.recompute.empty()
                    ? BlockRecompute::None
                    : spec.recompute[static_cast<std::size_t>(i)]);
        }
    }
    return modes;
}

/** Everything the timed window needs, produced by one set-up. */
struct Prepared
{
    StageMapping mapping;
    RuntimeOptions opts;
};

/**
 * One set-up: model init, plan load and mapping, and a warm-up
 * episode. Starts from an empty tensor pool so every repetition pays
 * the same cold-start cost.
 */
ParseResult<Prepared>
setUp(const RunArgs &args, const TrainSpec &spec,
      const TinyLmConfig &cfg, std::uint64_t data_seed)
{
    TensorPool::instance().trim();
    obs::ScopedSpan span("bench.setup");
    TinyLM model(cfg);
    ParseResult<PipelinePlan> plan = loadPlanDoc(args.plansDir, spec);
    if (!plan.ok())
        return ParseResult<Prepared>::failure(plan.error());
    Prepared prep;
    {
        obs::ScopedSpan map_span("bench.stage_specs_from_plan");
        prep.mapping = stageSpecsFromPlan(plan.value(), cfg);
    }
    prep.opts.steps = 1;
    prep.opts.seqLen = cfg.maxSeq;
    prep.opts.microBatches = spec.microBatches;
    prep.opts.lr = kLr;
    prep.opts.dataSeed = data_seed;
    prep.opts.virtualStages = prep.mapping.virtualStages;
    prep.opts.overlapReplay = prep.mapping.overlap;
    prep.opts.intraStageThreads = spec.threads;
    obs::ScopedSpan warm_span("bench.run_pipeline");
    const RuntimeResult warm =
        runPipeline(model, prep.mapping.stages, prep.opts);
    if (!warm.ok)
        return ParseResult<Prepared>::failure("warm-up: " + warm.error);
    return ParseResult<Prepared>::success(std::move(prep));
}

/** FNV-1a over the bytes of every parameter value. */
std::uint64_t
paramHash(const TinyLM &model)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Variable &v : model.params()) {
        const std::vector<float> &data = v.value().data();
        const auto *bytes = reinterpret_cast<const unsigned char *>(
            data.data());
        for (std::size_t i = 0; i < data.size() * sizeof(float); ++i)
            h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
    return h;
}

/** One timed episode's measurements. */
struct Episode
{
    double stepSeconds = 0;
    /** Hash of the parameters after the episode (paramHash). */
    std::uint64_t params = 0;
    RuntimeResult run;
    /** Whether the episode ran with a registry (traced runs trace
     *  every other episode). */
    bool traced = false;
    /** Registry counters of a traced episode. */
    double replays = 0;
    double tasks = 0;
    double steals = 0;
    double readyPeak = 0;
};

/**
 * Activation peak of stage @p s. With one stage the process meter is
 * exact at any engine width; with several, each stage thread's own
 * meter is its device's peak (1 backward thread per stage).
 */
double
stagePeakMiB(const RuntimeResult &run, std::size_t s)
{
    const std::int64_t floats = run.stages.size() == 1
                                    ? run.peakActivationFloats
                                    : run.stages[s].peakActivationFloats;
    return static_cast<double>(floats) * 4 / kMiB;
}

double
devicePeakMiB(const RuntimeResult &run)
{
    double peak = 0;
    for (std::size_t s = 0; s < run.stages.size(); ++s)
        peak = std::max(peak, stagePeakMiB(run, s));
    return peak;
}

/**
 * The memory-probe episode: one untimed episode with host-staging
 * transfers run inline on the stage threads (offloadSync). A stage's
 * activation meter is thread-local, so in the default asynchronous
 * mode an eviction lands on the stager thread's meter and the stage
 * still counts the evicted activations; inline, the stage meter sees
 * every eviction and fetch at the schedule's own points.
 */
Episode
memoryProbe(const TinyLmConfig &cfg, const Prepared &prep)
{
    TinyLM model(cfg);
    RuntimeOptions opts = prep.opts;
    opts.offloadSync = true;
    Episode ep;
    {
        obs::ScopedSpan span("bench.memory_probe");
        ep.run = runPipeline(model, prep.mapping.stages, opts);
    }
    ep.params = paramHash(model);
    return ep;
}

/**
 * Run episodes until the window closes. Untraced episodes go into
 * @p steps, which runs a calibration burst after each. With @p trace
 * set, every odd episode passes a registry to runPipeline and the
 * even ones run untraced, so both halves see the same machine state
 * and their ratio is the tracing overhead.
 */
std::vector<Episode>
timedEpisodes(const TinyLmConfig &cfg, const Prepared &prep,
              double seconds, obs::Registry *trace, SpeedScaled &steps,
              Report &report)
{
    std::vector<Episode> episodes;
    std::size_t traced_count = 0;
    const double start = now();
    while (keepTiming(start, seconds, episodes.size())) {
        TinyLM model(cfg);
        obs::Registry metrics;
        Episode ep;
        ep.traced = trace && episodes.size() % 2 == 1;
        const double t0 = now();
        {
            obs::ScopedSpan span("bench.run_pipeline");
            ep.run = runPipeline(model, prep.mapping.stages, prep.opts,
                                 ep.traced ? &metrics : nullptr);
        }
        const double t1 = now();
        if (!ep.run.ok) {
            report.fail("runPipeline failed: " + ep.run.error);
            report.attempt(false);
            break;
        }
        ep.stepSeconds = t1 - t0;
        if (!ep.traced)
            steps.add(ep.stepSeconds * 1e3);
        ep.params = paramHash(model);
        if (ep.traced) {
            // The first episodes' runtime spans go into the Chrome
            // trace; the rest only feed the counters below.
            if (traced_count++ < 3)
                trace->merge(metrics);
            ep.replays =
                static_cast<double>(metrics.counter("checkpoint.replays"));
            ep.tasks = static_cast<double>(metrics.counter("engine.tasks"));
            ep.steals =
                static_cast<double>(metrics.counter("engine.steals"));
            ep.readyPeak = metrics.gauge("engine.ready_peak");
        }
        episodes.push_back(std::move(ep));
    }
    steps.flush();
    return episodes;
}

/** Median seconds of @p timed over a ~0.2 s budget, each call
 *  after an untimed @p prepare. */
double
medianSeconds(const std::function<void()> &prepare,
              const std::function<void()> &timed)
{
    std::vector<double> samples;
    const double start = now();
    while (samples.size() < 5 ||
           (now() - start < 0.2 && samples.size() < 2000)) {
        prepare();
        const double t0 = now();
        timed();
        samples.push_back(now() - t0);
    }
    return median(samples);
}

Tensor
onesLike(const Variable &v)
{
    return Tensor::full(v.value().shape(), 1.0f);
}

/**
 * Time the autograd, module and optimizer layers from outside at the
 * workload's shapes.
 */
void
layerMicrobench(const TinyLmConfig &cfg, const TrainSpec &spec,
                const std::vector<BlockRecompute> &modes, Report &report)
{
    obs::ScopedSpan span("bench.layer_microbench");
    Rng rng(cfg.seed ^ 0x5eedULL);
    const int rows = cfg.maxSeq;
    const int dim = cfg.dim;
    const int ffn = cfg.ffnHidden;
    auto leaf = [&](int r, int c) {
        return Variable(Tensor::randn({r, c}, rng, 0.02f), true);
    };
    const Variable x = leaf(rows, dim);
    const Variable w = leaf(dim, dim);
    const Variable w1 = leaf(dim, ffn);
    const Variable b1 = Variable(Tensor::randn({ffn}, rng, 0.02f), true);
    const Variable scores = leaf(rows, rows);
    const Variable gamma = Variable(Tensor::full({dim}, 1.0f), true);
    const Variable beta = Variable(Tensor::full({dim}, 0.0f), true);
    Variable out;
    auto none = [] {};

    report.set("ops.matmul.fwd_us",
               1e6 * medianSeconds(none, [&] { out = ops::matmul(x, w); }));
    report.set("ops.matmul.bwd_us",
               1e6 * medianSeconds([&] { out = ops::matmul(x, w); },
                                   [&] { out.backward(onesLike(out)); }));
    report.set("ops.linear_gelu.fwd_us",
               1e6 * medianSeconds(none, [&] {
                   out = ops::linearBiasGelu(x, w1, b1);
               }));
    report.set("ops.linear_gelu.bwd_us",
               1e6 * medianSeconds(
                         [&] { out = ops::linearBiasGelu(x, w1, b1); },
                         [&] { out.backward(onesLike(out)); }));
    report.set("ops.softmax.fwd_us",
               1e6 * medianSeconds(none, [&] {
                   out = ops::softmaxRows(scores, true);
               }));
    report.set("ops.layernorm.fwd_us",
               1e6 * medianSeconds(none, [&] {
                   out = ops::layerNorm(x, gamma, beta);
               }));

    TinyLM model(cfg);
    report.set("block.fwd_ms",
               1e3 * medianSeconds(none, [&] {
                   out = model.blockForward(0, x, BlockRecompute::None);
               }));
    report.set("block.fwd_ckpt_ms",
               1e3 * medianSeconds(none, [&] {
                   out = model.blockForward(0, x, BlockRecompute::Full);
               }));
    report.set("block.bwd_ms",
               1e3 * medianSeconds(
                         [&] {
                             out = model.blockForward(
                                 0, x, BlockRecompute::None);
                         },
                         [&] { out.backward(onesLike(out)); }));
    // Replay time of a checkpointed block's backward, read from the
    // checkpoint layer's own counter.
    std::vector<double> replay_ms;
    for (int i = 0; i < 20; ++i) {
        out = model.blockForward(0, x, BlockRecompute::Full);
        obs::Registry reg;
        obs::ScopedRegistry scope(&reg);
        out.backward(onesLike(out));
        replay_ms.push_back(
            static_cast<double>(reg.counter("checkpoint.replay_us")) / 1e3);
    }
    report.set("block.replay_ms", median(replay_ms), 20);

    // Whole-model backward on the workload's engine width.
    std::vector<int> tokens;
    std::vector<int> targets;
    makeBigramBatch(cfg.vocab, cfg.maxSeq, 0, 7, tokens, targets);
    BackwardEngine engine(EngineOptions{spec.threads});
    std::vector<double> busy;
    for (int i = 0; i < 10; ++i) {
        const Variable loss = model.loss(tokens, targets, modes);
        obs::Registry reg;
        double wall = 0;
        {
            obs::ScopedSpan engine_span("bench.engine_run");
            obs::ScopedRegistry scope(&reg);
            const double t0 = now();
            engine.run(loss, onesLike(loss));
            wall = now() - t0;
        }
        double sum = 0;
        for (int t = 0; t < spec.threads; ++t)
            sum += reg.gauge("engine.thread." + std::to_string(t) +
                             ".busy_seconds");
        busy.push_back(wall > 0 ? sum / (spec.threads * wall) : 0);
    }
    report.set("engine.busy_share", median(busy), 10);

    Adam adam(model.params(), kLr);
    report.set("optim.adam_step_ms",
               1e3 * medianSeconds(none, [&] {
                   obs::ScopedSpan adam_span("bench.adam_step");
                   adam.step();
               }));
}

/**
 * Per-layer metrics of the traced window's episodes (one step each);
 * stage peaks come from the memory-probe episode.
 */
void
runtimeLayers(const std::vector<Episode> &episodes, const Episode &probe,
              const TrainSpec &spec, Report &report)
{
    const std::size_t n = episodes.size();
    const std::int64_t samples = static_cast<std::int64_t>(n);
    for (int s = 0; s < spec.stages; ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        std::vector<double> fwd, bwd, recv, send, replay;
        for (const Episode &ep : episodes) {
            const StageMetrics &sm = ep.run.stages[si];
            fwd.push_back(sm.fwdSeconds);
            bwd.push_back(sm.bwdComputeSeconds());
            recv.push_back(sm.recvWaitSeconds);
            send.push_back(sm.sendBlockedSeconds);
            replay.push_back(sm.replayCriticalSeconds());
        }
        const std::string prefix = "runtime.stage" + std::to_string(s);
        report.set(prefix + ".fwd_s", median(fwd), samples);
        report.set(prefix + ".bwd_compute_s", median(bwd), samples);
        report.set(prefix + ".recv_wait_s", median(recv), samples);
        report.set(prefix + ".send_blocked_s", median(send), samples);
        report.set(prefix + ".replay_critical_s", median(replay), samples);
        report.set(prefix + ".peak_activation_mib",
                   stagePeakMiB(probe.run, si));
    }

    std::vector<double> idle, replays, replay_s, replay_share, evictions,
        bytes, tasks, steals;
    double fetches = 0, misses = 0, ready_peak = 0;
    for (const Episode &ep : episodes) {
        double wait = 0, replay = 0, compute = 0, ev = 0, by = 0;
        for (const StageMetrics &sm : ep.run.stages) {
            wait += sm.recvWaitSeconds + sm.sendBlockedSeconds;
            replay += sm.replaySeconds;
            compute += sm.fwdSeconds + sm.bwdSeconds;
            ev += static_cast<double>(sm.offloadEvictions);
            by += static_cast<double>(sm.offloadBytesEvicted);
            fetches += static_cast<double>(sm.offloadFetches);
            misses += static_cast<double>(sm.offloadFetchMisses);
        }
        const double wall = ep.run.wallSeconds;
        idle.push_back(wall > 0 ? wait / (spec.stages * wall) : 0);
        replay_s.push_back(replay);
        replay_share.push_back(compute > 0 ? replay / compute : 0);
        evictions.push_back(ev);
        bytes.push_back(by);
        replays.push_back(ep.replays);
        tasks.push_back(ep.tasks);
        steals.push_back(ep.steals);
        ready_peak = std::max(ready_peak, ep.readyPeak);
    }
    report.set("runtime.idle_share", median(idle), samples);
    report.set("checkpoint.replays", median(replays), samples);
    report.set("checkpoint.replay_s", median(replay_s), samples);
    report.set("checkpoint.replay_share", median(replay_share), samples);
    report.set("offload.evictions", median(evictions), samples);
    report.set("offload.bytes_evicted", median(bytes), samples);
    report.set("offload.fetch_hit_ratio",
               fetches + misses > 0 ? fetches / (fetches + misses) : 0,
               samples);
    report.set("engine.tasks", median(tasks), samples);
    report.set("engine.steals", median(steals), samples);
    report.set("engine.ready_peak", ready_peak, samples);
}

} // namespace

bool
isTrainWorkload(const std::string &name)
{
    for (const TrainSpec &spec : trainSpecs()) {
        if (spec.name == name)
            return true;
    }
    return false;
}

int
regeneratePlans(const std::string &dir)
{
    for (const TrainSpec &spec : trainSpecs()) {
        const PlanResult result = solvePlan(spec);
        if (!result.ok) {
            std::cerr << spec.name << ": plan infeasible: "
                      << result.oomReason << "\n";
            return 1;
        }
        JsonValue doc = JsonValue::object();
        doc.set("generated_by", generatingCall(spec));
        doc.set("plan", planToJson(result.plan));
        const ParseStatus wrote =
            writeTextFile(planPath(dir, spec.name), doc.dump(2) + "\n");
        if (!wrote.ok()) {
            std::cerr << wrote.error() << "\n";
            return 1;
        }
        std::cout << "wrote " << planPath(dir, spec.name) << "\n";
    }
    return 0;
}

void
runTrainWorkload(const RunArgs &args, Report &report)
{
    const TrainSpec &spec = specFor(args.workload);
    TinyLmConfig cfg = spec.model;
    cfg.seed = mix(args.seed, 1, 0);
    const std::uint64_t data_seed = mix(args.seed, 2, 0);

    obs::Registry trace;
    std::optional<obs::ScopedRegistry> tracing;
    if (args.trace)
        tracing.emplace(&trace);

    // Calibration bursts are as wide as the threads an episode keeps
    // busy: one per stage worker, or the single stage's engine.
    const int width = spec.stages * spec.threads;
    std::vector<double> setup_s;
    ParseResult<Prepared> prep =
        ParseResult<Prepared>::failure("no set-up ran");
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = now();
        prep = setUp(args, spec, cfg, data_seed);
        setup_s.push_back(scaledSetupSeconds(now() - t0, width));
        if (!prep.ok()) {
            report.fail("set-up failed: " + prep.error());
            report.attempt(false);
            return;
        }
    }
    const Prepared &p = prep.value();
    report.note(spec.name + ": " + std::to_string(spec.stages) +
                " stage(s), n=" + std::to_string(spec.microBatches) +
                ", " + std::to_string(spec.threads) +
                " backward thread(s) per stage, one optimizer step per "
                "episode");
    report.note("actions: " + actionMix(p.mapping));
    report.note("stageSpecsFromPlan notes: " +
                std::to_string(p.mapping.notes.size()));
    for (const std::string &n : p.mapping.notes)
        report.note("  note: " + n);

    const double tokens = static_cast<double>(cfg.maxSeq) * spec.microBatches;
    const TensorPool::Stats pool_before = TensorPool::instance().stats();
    SpeedScaled steps(width);
    const std::vector<Episode> episodes = timedEpisodes(
        cfg, p, args.seconds, args.trace ? &trace : nullptr, steps, report);
    const TensorPool::Stats pool_after = TensorPool::instance().stats();
    const Episode probe = memoryProbe(cfg, p);
    if (!probe.run.ok) {
        report.fail("memory probe failed: " + probe.run.error);
        report.attempt(false);
        return;
    }

    // Reference: the single-threaded trainer on the same seed, data
    // and per-block actions, outside the timed window.
    TrainOptions ref_opts;
    ref_opts.steps = 1;
    ref_opts.seqLen = p.opts.seqLen;
    ref_opts.lr = kLr;
    ref_opts.dataSeed = data_seed;
    ref_opts.microBatches = p.opts.microBatches;
    ref_opts.recompute = referenceModes(p.mapping);
    std::vector<double> ref_step_s;
    TrainStats ref;
    std::uint64_t ref_params = 0;
    for (int rep = 0; rep < (args.trace ? 3 : 1); ++rep) {
        TinyLM ref_model(cfg);
        obs::ScopedSpan span("bench.train_tiny_lm");
        const double t0 = now();
        ref = trainTinyLM(ref_model, ref_opts);
        ref_step_s.push_back(now() - t0);
        ref_params = paramHash(ref_model);
    }
    auto matches = [&](const Episode &ep) {
        return ep.run.losses == ref.losses && ep.params == ref_params;
    };
    std::size_t mismatches = 0;
    for (const Episode &ep : episodes) {
        const bool ok = matches(ep);
        report.attempt(ok);
        mismatches += ok ? 0 : 1;
    }
    if (mismatches) {
        report.fail(std::to_string(mismatches) +
                    " episode(s) lost bit-equality with trainTinyLM");
    }
    report.attempt(matches(probe));
    if (!matches(probe))
        report.fail("memory probe lost bit-equality with trainTinyLM");
    char loss_line[160];
    std::snprintf(loss_line, sizeof(loss_line),
                  "reference trainTinyLM: loss %.17g, parameters fnv1a "
                  "%016llx; bit-equal in %zu of %zu episodes",
                  ref.losses.back(),
                  static_cast<unsigned long long>(ref_params),
                  episodes.size() - mismatches, episodes.size());
    report.note(loss_line);

    std::vector<double> traced_ms;
    std::vector<Episode> traced;
    for (const Episode &ep : episodes) {
        if (ep.traced) {
            traced_ms.push_back(ep.stepSeconds * 1e3);
            traced.push_back(ep);
        }
    }
    const std::int64_t n =
        static_cast<std::int64_t>(steps.scaledMs().size());
    if (!args.trace) {
        const double latency_ms = interquartileMean(steps.scaledMs());
        report.set("throughput",
                   latency_ms > 0 ? tokens / (latency_ms / 1e3) : 0, n);
        report.set("latency_ms", latency_ms, n);
        report.note(speedLine(steps));
        report.note(latencyLine(steps.scaledMs()));
        report.set("peak_mem_mib", devicePeakMiB(probe.run));
        report.set("setup_s", median(setup_s), kSetupReps);
        return;
    }

    const std::vector<double> &step_ms = steps.rawMs();
    report.set("trace.overhead_share",
               step_ms.empty() ? 0 : median(traced_ms) / median(step_ms) - 1,
               static_cast<std::int64_t>(traced_ms.size()));
    report.set("runtime.scaling_efficiency",
               median(ref_step_s) * 1e3 / (spec.stages * median(step_ms)),
               n);
    const double episode_count = static_cast<double>(episodes.size());
    const double allocs =
        static_cast<double>(pool_after.heapAllocs - pool_before.heapAllocs);
    const double reuses =
        static_cast<double>(pool_after.reuses - pool_before.reuses);
    report.set("pool.heap_allocs", allocs / episode_count);
    report.set("pool.reuse_ratio",
               allocs + reuses > 0 ? reuses / (allocs + reuses) : 0);
    if (!traced.empty())
        runtimeLayers(traced, probe, spec, report);
    layerMicrobench(cfg, spec, referenceModes(p.mapping), report);

    writeChromeTrace(args, trace, report);
}

} // namespace perfbench
