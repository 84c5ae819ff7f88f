/**
 * @file
 * Pipeline training CLI: execute an AdaPipe plan on the multithreaded
 * runtime (src/runtime) and compare the cost model's predictions with
 * the measured execution.
 *
 * The stage specs come from one of three sources, in order:
 *   --recompute none|attn|full  even split, uniform recompute, no
 *                               planner (and thus no predictions)
 *   --plan plan.json            a plan exported by export_plan
 *                               --model tiny-lm
 *   (default)                   plan in-process with --method
 *
 * The per-stage table has a row per StageField, the list the gauges
 * runtime.stage.<s>.<row> are set from, then the plan's predicted
 * activation peak; below it, step time against the plan's timing.
 *
 * Usage:
 *   pipeline_training --stages 2 --steps 20 --micro-batches 4 \
 *       --method adapipe --seed 42
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/trainer.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "sim/interleaved_planner.h"
#include "memory/memory_model.h"
#include "obs/sinks.h"
#include "runtime/fault_injector.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "runtime/recovery.h"
#include "runtime/snapshot.h"
#include "util/cli.h"
#include "util/file_io.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

namespace {

std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/**
 * Short per-stage summary of the block actions, e.g. "none x2" or
 * "offload,full" (blockActionKey per block).
 */
std::string
actionLabel(const StageSpec &spec)
{
    if (spec.numBlocks() == 0)
        return "-";
    const std::string first = blockActionKey(spec, 0);
    std::string joined = first;
    bool uniform = true;
    for (int i = 1; i < spec.numBlocks(); ++i) {
        const std::string key = blockActionKey(spec, i);
        uniform = uniform && key == first;
        joined += "," + key;
    }
    return uniform ? first + " x" + std::to_string(spec.numBlocks())
                   : joined;
}

/** One table cell in @p unit; floats print as bytes, next to the
 *  plan's prediction. */
std::string
formatStageValue(StageUnit unit, double value)
{
    if (unit == StageUnit::Microseconds)
        return formatSeconds(value * 1e-6);
    if (unit == StageUnit::Count)
        return fmt("%.0f", value);
    const double scale = unit == StageUnit::Floats ? sizeof(float) : 1;
    return formatBytes(static_cast<Bytes>(value * scale));
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("pipeline_training");
    cli.addInt("stages", 2, "pipeline stages (worker threads)");
    cli.addInt("blocks", 6, "transformer blocks");
    cli.addInt("dim", 32, "model width");
    cli.addInt("ffn-hidden", 96, "feed-forward inner width");
    cli.addInt("vocab", 64, "vocabulary size");
    cli.addInt("heads", 1, "attention heads");
    cli.addInt("seq", 32, "tokens per micro-batch");
    cli.addInt("steps", 20, "optimizer steps");
    cli.addInt("micro-batches", 0,
               "micro-batches per step (0 = plan's n, else 4)");
    cli.addString("lr", "4e-3", "learning rate");
    cli.addInt("seed", 42,
               "model-init seed (identical across stage counts)");
    cli.addInt("data-seed", 7, "data-stream seed");
    cli.addInt("channel-capacity", 2,
               "bounded-channel depth per pipeline edge");
    cli.addInt("virtual-stages", 0,
               "model chunks per worker (interleaved 1F1B; 0 = "
               "plan's value, else 1)");
    cli.addInt("intra-stage-threads", 1,
               "backward-engine workers per stage (bit-identical "
               "losses at any value)");
    cli.addFlag("overlap",
                "overlapped recomputation: plan with the "
                "bubble-discounted knapsack (in-process planning) and "
                "warm checkpoint replays inside recv/send waits "
                "(bit-identical losses)");
    cli.addString("plan", "", "exported plan JSON (export_plan)");
    cli.addString("method", "adapipe",
                  "in-process planning method: adapipe|even|"
                  "dapple-full|dapple-non|dapple-selective");
    cli.addInt("mem-cap-mb", 0,
               "planner memory capacity override in MiB (forces "
               "recompute decisions; 0 = cluster default)");
    cli.addString("recompute", "",
                  "skip planning: even split with uniform "
                  "none|attn|full recompute");
    cli.addString("metrics-out", "",
                  "write runtime metrics as JSON-lines");
    cli.addString("fault-spec", "",
                  "runtime fault-injection spec JSON (seeded "
                  "slowdowns/stalls/send delays/one-shot crash)");
    cli.addInt("stall-timeout-ms", 0,
               "enable the watchdog: a worker silent this long is "
               "declared stalled (0 = watchdog off)");
    cli.addInt("snapshot-every", 0,
               "write a training-state snapshot every N steps "
               "(0 = off)");
    cli.addString("snapshot-path", "pipeline_snapshot.bin",
                  "snapshot target file");
    cli.addString("resume-from", "",
                  "restore a snapshot and resume; --steps counts "
                  "the whole job including the snapshotted part");
    cli.addFlag("recover",
                "on a detected fault, replan onto fewer stages, "
                "restore the latest snapshot and resume");
    cli.addInt("max-recoveries", 1,
               "replan-and-resume rounds before giving up");
    cli.addString("degraded-plan-out", "",
                  "write each recovery round's degraded plan (with "
                  "provenance) to this JSON file");
    cli.addFlag("reference",
                "also train single-threaded and compare losses");
    cli.addFlag("quiet", "suppress the tables");
    cli.parse(argc, argv);

    // One registry observes the in-process plan, the run and any
    // recovery replan; --metrics-out writes it at the end.
    obs::Registry metrics;
    obs::ScopedRegistry obs_scope(&metrics);

    TinyLmConfig cfg;
    cfg.vocab = static_cast<int>(cli.getInt("vocab"));
    cfg.dim = static_cast<int>(cli.getInt("dim"));
    cfg.blocks = static_cast<int>(cli.getInt("blocks"));
    cfg.ffnHidden = static_cast<int>(cli.getInt("ffn-hidden"));
    cfg.numHeads = static_cast<int>(cli.getInt("heads"));
    cfg.maxSeq = static_cast<int>(cli.getInt("seq"));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));

    RuntimeOptions opts;
    opts.steps = static_cast<int>(cli.getInt("steps"));
    opts.seqLen = static_cast<int>(cli.getInt("seq"));
    opts.lr = std::stof(cli.getString("lr"));
    opts.dataSeed = static_cast<std::uint64_t>(cli.getInt("data-seed"));
    opts.channelCapacity =
        static_cast<int>(cli.getInt("channel-capacity"));
    int micro_batches = static_cast<int>(cli.getInt("micro-batches"));

    const int stages_flag = static_cast<int>(cli.getInt("stages"));
    const int vs_flag =
        static_cast<int>(cli.getInt("virtual-stages"));
    std::vector<StageSpec> specs;
    std::vector<std::string> notes;
    bool have_plan = false;
    PipelinePlan plan;

    const std::string recompute_key = cli.getString("recompute");
    const std::string plan_path = cli.getString("plan");
    if (!recompute_key.empty()) {
        const RecomputeStrategy *strategy =
            findRecomputeStrategy(recompute_key);
        if (!strategy) {
            std::cerr << "pipeline_training: error: unknown "
                         "recompute strategy '"
                      << recompute_key
                      << "' (expected none|attn|full)\n";
            return 1;
        }
        const int v = vs_flag > 0 ? vs_flag : 1;
        specs = evenStageSpecs(cfg.blocks, stages_flag * v,
                               strategy->mode);
        opts.virtualStages = v;
        notes.push_back("manual mode: no plan, no predictions");
    } else if (!plan_path.empty()) {
        const ParseResult<PipelinePlan> loaded =
            loadPlanFile(plan_path);
        if (!loaded.ok()) {
            std::cerr << "pipeline_training: error: "
                      << loaded.error() << "\n";
            return 1;
        }
        plan = loaded.value();
        have_plan = true;
    } else {
        PlanMethod method;
        const std::string method_name = cli.getString("method");
        if (method_name == "adapipe") {
            method = PlanMethod::AdaPipe;
        } else if (method_name == "even") {
            method = PlanMethod::EvenPartition;
        } else if (method_name == "dapple-full") {
            method = PlanMethod::DappleFull;
        } else if (method_name == "dapple-non") {
            method = PlanMethod::DappleNon;
        } else if (method_name == "dapple-selective") {
            method = PlanMethod::DappleSelective;
        } else {
            std::cerr << "pipeline_training: error: unknown method '"
                      << method_name
                      << "' (expected adapipe|even|dapple-full|"
                         "dapple-non|dapple-selective)\n";
            return 1;
        }

        if (micro_batches == 0)
            micro_batches = 4;
        TrainConfig train;
        train.seqLen = opts.seqLen;
        train.microBatch = 1;
        train.globalBatch = micro_batches; // d = 1: n micro-batches
        ParallelConfig par;
        par.tensor = 1;
        par.pipeline = stages_flag;
        par.data = 1;
        const ClusterSpec cluster =
            clusterA((stages_flag + 7) / 8);
        const ProfiledModel pm = buildProfiledModel(
            tinyLmModelConfig(cfg), train, par, cluster);
        StageCostOptions cost_opts;
        const long long cap_mb = cli.getInt("mem-cap-mb");
        if (cap_mb > 0)
            cost_opts.memCapacityOverride =
                static_cast<Bytes>(cap_mb) * 1024 * 1024;
        const int v = vs_flag > 0 ? vs_flag : 1;
        const PlanResult result =
            cli.getFlag("overlap")
                ? makeOverlapPlan(pm, method, v, cost_opts)
                : makeInterleavedPlan(pm, method, v, cost_opts);
        if (!result.ok) {
            std::cerr << "pipeline_training: plan infeasible: "
                      << result.oomReason << "\n";
            return 1;
        }
        plan = result.plan;
        have_plan = true;
    }

    const int intra_threads =
        static_cast<int>(cli.getInt("intra-stage-threads"));
    if (intra_threads < 1) {
        std::cerr << "pipeline_training: error: --intra-stage-threads "
                     "must be >= 1\n";
        return 1;
    }
    opts.intraStageThreads = intra_threads;

    // Eager replay follows the plan's annotation (a loaded overlap
    // plan turns it on) or the explicit flag (manual/lazy-plan runs).
    opts.overlapReplay = cli.getFlag("overlap");
    if (have_plan) {
        StageMapping mapping = stageSpecsFromPlan(plan, cfg);
        specs = std::move(mapping.stages);
        opts.virtualStages = mapping.virtualStages;
        opts.overlapReplay = opts.overlapReplay || mapping.overlap;
        notes.insert(notes.end(), mapping.notes.begin(),
                     mapping.notes.end());
        if (micro_batches == 0)
            micro_batches = plan.microBatches > 0 ? plan.microBatches
                                                  : 4;
    }
    if (micro_batches == 0)
        micro_batches = 4;
    opts.microBatches = micro_batches;

    RuntimeFaultSpec faults;
    const std::string fault_path = cli.getString("fault-spec");
    if (!fault_path.empty()) {
        const ParseResult<RuntimeFaultSpec> loaded =
            loadRuntimeFaultSpecFile(fault_path);
        if (!loaded.ok()) {
            std::cerr << "pipeline_training: error: "
                      << loaded.error() << "\n";
            return 1;
        }
        faults = loaded.value();
        if (!faults.empty())
            opts.faults = &faults;
    }
    const long long stall_ms = cli.getInt("stall-timeout-ms");
    if (stall_ms > 0) {
        opts.watchdog.enabled = true;
        opts.watchdog.stallTimeoutUs =
            static_cast<double>(stall_ms) * 1000.0;
    }
    const int snapshot_every =
        static_cast<int>(cli.getInt("snapshot-every"));
    if (snapshot_every > 0) {
        opts.snapshot.every = snapshot_every;
        opts.snapshot.path = cli.getString("snapshot-path");
    }

    TrainingSnapshot resume;
    const std::string resume_path = cli.getString("resume-from");
    if (!resume_path.empty()) {
        const ParseResult<TrainingSnapshot> loaded =
            loadSnapshotFile(resume_path);
        if (!loaded.ok()) {
            std::cerr << "pipeline_training: error: "
                      << loaded.error() << "\n";
            return 1;
        }
        resume = loaded.value();
        if (resume.dataSeed != opts.dataSeed) {
            std::cerr << "pipeline_training: error: snapshot was "
                         "trained on data-seed "
                      << resume.dataSeed
                      << " but this run uses --data-seed "
                      << opts.dataSeed
                      << " (resuming would change the stream)\n";
            return 1;
        }
        if (resume.step >= opts.steps) {
            std::cerr << "pipeline_training: error: snapshot "
                         "already holds "
                      << resume.step << " steps; --steps "
                      << opts.steps << " adds nothing\n";
            return 1;
        }
        opts.firstStep = static_cast<int>(resume.step);
        opts.steps -= opts.firstStep;
        opts.restore = &resume;
    }

    const int p = static_cast<int>(specs.size());
    const int workers = p / opts.virtualStages;
    std::cout << "Training a " << cfg.blocks
              << "-block transformer LM (dim " << cfg.dim << ") on "
              << workers << " pipeline stages";
    if (opts.virtualStages > 1) {
        std::cout << " x " << opts.virtualStages
                  << " virtual chunks (interleaved 1F1B)";
    }
    std::cout << ", " << opts.steps << " steps x "
              << opts.microBatches << " micro-batches";
    if (opts.intraStageThreads > 1) {
        std::cout << ", " << opts.intraStageThreads
                  << " backward threads per stage";
    }
    if (opts.overlapReplay)
        std::cout << ", overlapped recomputation";
    std::cout << "\n";
    for (const std::string &note : notes)
        std::cout << "note: " << note << "\n";
    std::cout << "\n";

    TinyLM model(cfg);
    if (opts.restore) {
        const ParseStatus applied = restoreTinyLM(model, resume);
        if (!applied.ok()) {
            std::cerr << "pipeline_training: error: "
                      << applied.error() << "\n";
            return 1;
        }
        std::cout << "resumed from " << resume_path << " at step "
                  << opts.firstStep << "\n";
    }

    RuntimeResult run;
    std::vector<double> losses;
    std::vector<RecoveryAttempt> attempts;
    if (cli.getFlag("recover")) {
        // Recovery replans against a healthy profile of the current
        // job, whichever way the stage specs were sourced.
        TrainConfig train;
        train.seqLen = opts.seqLen;
        train.microBatch = 1;
        train.globalBatch = opts.microBatches;
        ParallelConfig par;
        par.tensor = 1;
        par.pipeline = workers;
        par.data = 1;
        const ProfiledModel recovery_pm = buildProfiledModel(
            tinyLmModelConfig(cfg), train, par,
            clusterA((workers + 7) / 8));
        RecoveryOptions rec;
        rec.maxRecoveries =
            static_cast<int>(cli.getInt("max-recoveries"));
        rec.pm = &recovery_pm;
        rec.degradedPlanOut = cli.getString("degraded-plan-out");
        if (have_plan)
            rec.originalPlan = &plan;
        const RecoveryResult res = runPipelineWithRecovery(
            model, specs, opts, rec, &metrics);
        attempts = res.attempts;
        for (const RecoveryAttempt &a : attempts) {
            std::cout
                << "recovery: worker " << a.failedWorker
                << (a.kind == RuntimeFailureKind::WatchdogStall
                        ? " went silent (watchdog, detected after "
                        : " failed (detected after ")
                << fmt("%.0f", a.detectSeconds * 1e3)
                << " ms); replanned onto " << a.newStages
                << " stages, ";
            if (a.restoredFromSnapshot) {
                std::cout << "restored snapshot at step "
                          << a.resumedFromStep;
            } else {
                std::cout << "fresh restart (no snapshot yet)";
            }
            std::cout << ", " << a.lostIterations
                      << " iterations lost\n";
        }
        if (!res.ok) {
            std::cerr << "pipeline_training: runtime failed: "
                      << res.error << "\n";
            return 1;
        }
        run = res.finalRun;
        specs = res.finalSpecs;
        opts.virtualStages = res.finalVirtualStages;
        losses = res.losses;
    } else {
        run = runPipeline(model, specs, opts, &metrics);
        if (!run.ok) {
            std::cerr << "pipeline_training: runtime failed";
            if (run.failedWorker >= 0)
                std::cerr << " (worker " << run.failedWorker << ")";
            std::cerr << ": " << run.error << "\n";
            return 1;
        }
        losses = run.losses;
    }

    // Recovery may have finished on a different partition.
    const int pf = static_cast<int>(specs.size());

    // Predicted per-stage activation bytes: the plan's peak minus its
    // static (parameter/gradient/optimizer) part, which the runtime
    // meter does not count.
    std::vector<std::string> predicted = {"plan activation peak"};
    predicted.resize(static_cast<std::size_t>(pf) + 1, "-");
    if (have_plan &&
        static_cast<int>(plan.stages.size()) == pf) {
        const ModelConfig model_cfg = tinyLmModelConfig(cfg);
        const MemoryModel mm(model_cfg, plan.train, plan.par);
        const std::vector<Layer> layers = buildLayerSequence(
            model_cfg, plan.train, plan.par);
        for (int s = 0; s < pf; ++s) {
            const StagePlan &sp =
                plan.stages[static_cast<std::size_t>(s)];
            std::uint64_t params = 0;
            for (int l = sp.firstLayer; l <= sp.lastLayer; ++l)
                params +=
                    layers[static_cast<std::size_t>(l)].params;
            const double bytes =
                static_cast<double>(sp.memPeak) -
                static_cast<double>(mm.staticMemory(params).total());
            if (bytes >= 0)
                predicted[static_cast<std::size_t>(s) + 1] =
                    formatBytes(static_cast<Bytes>(bytes));
        }
    }

    if (!cli.getFlag("quiet")) {
        std::vector<std::string> header = {"Stage"};
        std::vector<std::string> blocks = {"blocks"};
        std::vector<std::string> actions = {"actions"};
        for (const StageSpec &spec : specs) {
            std::ostringstream range;
            if (spec.numBlocks() > 0)
                range << spec.firstBlock << "-" << spec.lastBlock;
            else
                range << "-";
            if (spec.embedding)
                range << " +emb";
            if (spec.head)
                range << " +head";
            header.push_back(std::to_string(header.size() - 1));
            blocks.push_back(range.str());
            actions.push_back(actionLabel(spec));
        }
        Table table(header);
        table.addRow(blocks);
        table.addRow(actions);
        for (const StageField &f : stageFields()) {
            std::vector<std::string> row = {f.suffix};
            for (const StageMetrics &sm : run.stages)
                row.push_back(formatStageValue(f.unit, f.value(sm)));
            table.addRow(std::move(row));
        }
        table.addRow(predicted);
        table.print(std::cout);

        std::cout << "\nmeasured step time "
                  << formatSeconds(run.stepSeconds(opts.steps));
        if (have_plan) {
            std::cout << ", predicted "
                      << formatSeconds(plan.timing.total)
                      << " (cost model scale-free: ordering, not "
                         "wall clock)";
        }
        std::cout << "\n";
        if (have_plan && plan.overlap &&
            static_cast<int>(plan.stages.size()) == pf) {
            double hidden = 0, critical = 0;
            for (const StagePlan &sp : plan.stages) {
                hidden += sp.timeReplayHidden;
                critical += sp.timeReplayCritical;
            }
            std::cout << "plan budgeted replay (per micro-batch, all "
                         "stages): hidden "
                      << formatSeconds(hidden) << ", critical "
                      << formatSeconds(critical) << "\n";
        }
    }

    // Exact (round-trippable) final loss, printed even with --quiet
    // so kill-and-restore harnesses can compare runs bit-for-bit.
    std::cout << "final loss " << fmt("%.17g", losses.back())
              << " after " << (opts.firstStep + opts.steps)
              << " steps\n";

    if (cli.getFlag("reference")) {
        if (opts.firstStep > 0) {
            std::cout << "reference comparison skipped: the run "
                         "resumed at step "
                      << opts.firstStep << "\n";
        } else {
            // The reference trainer's engine, pool and checkpoint
            // counts are not the pipeline run's.
            obs::ScopedRegistry ref_scope(nullptr);
            TinyLM ref(cfg); // same seed: identical initialisation
            TrainOptions ref_opts;
            ref_opts.steps = opts.steps;
            ref_opts.seqLen = opts.seqLen;
            ref_opts.lr = opts.lr;
            ref_opts.dataSeed = opts.dataSeed;
            ref_opts.microBatches = opts.microBatches;
            ref_opts.recompute = referenceRecompute(specs);
            const TrainStats ref_stats = trainTinyLM(ref, ref_opts);
            double max_delta = 0;
            for (std::size_t i = 0; i < losses.size(); ++i)
                max_delta = std::max(
                    max_delta, std::abs(losses[i] - ref_stats.losses[i]));
            std::cout
                << "reference (single-threaded) max loss delta "
                << fmt("%.3g", max_delta) << " over "
                << losses.size() << " steps\n";
        }
    }

    const std::string metrics_out = cli.getString("metrics-out");
    if (!metrics_out.empty()) {
        const ParseStatus wrote = writeTextFile(
            metrics_out, obs::toJsonLines(metrics));
        if (!wrote.ok()) {
            std::cerr << "pipeline_training: error: "
                      << wrote.error() << "\n";
            return 1;
        }
        std::cout << "metrics -> " << metrics_out << "\n";
    }
    return 0;
}
