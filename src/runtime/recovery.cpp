#include "runtime/recovery.h"

#include <utility>

#include "robust/replan.h"
#include "robust/replan_io.h"
#include "runtime/plan_mapping.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace adapipe {

namespace {

/** Overwrite @p out at the run's global-step offset. */
void
stitchLosses(std::vector<double> &out, int offset,
             const std::vector<double> &losses)
{
    for (std::size_t i = 0; i < losses.size(); ++i) {
        const std::size_t at = static_cast<std::size_t>(offset) + i;
        if (at < out.size())
            out[at] = losses[i];
    }
}

/** Re-initialise @p model to its seed state (fresh restart when no
 *  snapshot was ever written). */
void
reinitModel(TinyLM &model)
{
    TinyLM fresh(model.config());
    std::vector<Variable> params = model.params();
    const std::vector<Variable> seed_params = fresh.params();
    ADAPIPE_ASSERT(params.size() == seed_params.size(),
                   "model parameter count changed");
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i].mutableValue() = seed_params[i].value();
}

} // namespace

RecoveryResult
runPipelineWithRecovery(TinyLM &model,
                        const std::vector<StageSpec> &stages,
                        const RuntimeOptions &opts,
                        const RecoveryOptions &rec,
                        obs::Registry *metrics)
{
    RecoveryResult out;
    out.losses.assign(static_cast<std::size_t>(opts.steps), 0.0);
    // Exclusive global-step bound of the whole job.
    const int end_step = opts.firstStep + opts.steps;

    std::vector<StageSpec> specs = stages;
    RuntimeOptions run_opts = opts;
    // Own the fault spec so resumed rounds can clear the one-shot
    // crash without touching the caller's copy.
    RuntimeFaultSpec faults;
    if (opts.faults) {
        faults = *opts.faults;
        run_opts.faults = &faults;
    }
    TrainingSnapshot snap;

    const double job_start_us = obs::nowUs();
    const auto finish = [&](bool ok, std::string error,
                            RuntimeResult run) {
        out.ok = ok;
        out.error = std::move(error);
        out.finalRun = std::move(run);
        out.finalSpecs = specs;
        out.finalVirtualStages = run_opts.virtualStages;
        out.finalStages = static_cast<int>(specs.size()) /
                          run_opts.virtualStages;
        out.wallSeconds = (obs::nowUs() - job_start_us) * 1e-6;
        return out;
    };

    for (int round = 0;; ++round) {
        RuntimeResult run = runPipeline(model, specs, run_opts,
                                        metrics);
        stitchLosses(out.losses,
                     run_opts.firstStep - opts.firstStep,
                     run.losses);
        if (run.ok)
            return finish(true, "", std::move(run));

        // A failure with no attributable worker is a configuration
        // error, not a fault — recovery cannot help.
        if (run.failureKind == RuntimeFailureKind::None ||
            round >= rec.maxRecoveries) {
            return finish(false, run.error, std::move(run));
        }

        RecoveryAttempt attempt;
        attempt.failedWorker = run.failedWorker;
        attempt.kind = run.failureKind;
        attempt.error = run.error;
        attempt.detectSeconds = run.detectSeconds;
        if (metrics)
            metrics->add("recovery.detections", 1);

        // --- Load the latest snapshot (missing file = fresh
        // restart; corrupt file = hard stop). ---
        const double restore_start_us = obs::nowUs();
        bool restored = false;
        int resume_step = opts.firstStep;
        if (run_opts.snapshot.every > 0) {
            ParseResult<std::string> bytes =
                readTextFile(run_opts.snapshot.path);
            if (bytes.ok()) {
                ParseResult<TrainingSnapshot> loaded =
                    snapshotFromBytes(bytes.value());
                if (!loaded.ok()) {
                    out.attempts.push_back(std::move(attempt));
                    return finish(
                        false,
                        "recovery: refusing to restore corrupt "
                        "snapshot " +
                            run_opts.snapshot.path + ": " +
                            loaded.error(),
                        std::move(run));
                }
                snap = std::move(loaded).value();
                restored = true;
                resume_step = static_cast<int>(snap.step);
            }
        }

        // --- Replan onto one fewer stage. ---
        const int workers = static_cast<int>(specs.size()) /
                            run_opts.virtualStages;
        if (workers <= 1) {
            out.attempts.push_back(std::move(attempt));
            return finish(false,
                          "recovery: cannot replan below one "
                          "surviving stage",
                          std::move(run));
        }
        if (rec.pm == nullptr) {
            out.attempts.push_back(std::move(attempt));
            return finish(false,
                          "recovery: replanning requires a "
                          "profiled model (RecoveryOptions::pm)",
                          std::move(run));
        }
        const double replan_start_us = obs::nowUs();
        ProfiledModel pm = *rec.pm;
        pm.par.pipeline = workers;
        DegradedScenario scenario;
        scenario.lostStages = 1;
        const ReplanResult replanned =
            replanDegraded(pm, scenario, rec.costOpts);
        if (!replanned.ok) {
            out.attempts.push_back(std::move(attempt));
            return finish(false,
                          "recovery: replan failed: " +
                              replanned.reason,
                          std::move(run));
        }
        const StageMapping mapping =
            stageSpecsFromPlan(replanned.plan, model.config());
        specs = mapping.stages;
        run_opts.virtualStages = mapping.virtualStages;
        attempt.replanSeconds =
            (obs::nowUs() - replan_start_us) * 1e-6;
        attempt.newVirtualStages = mapping.virtualStages;
        attempt.newStages = static_cast<int>(specs.size()) /
                            mapping.virtualStages;

        if (!rec.degradedPlanOut.empty()) {
            DegradedPlanDoc doc;
            doc.plan = replanned.plan;
            doc.scenario = scenario;
            doc.degradedCapacity = replanned.degradedCapacity;
            if (rec.originalPlan)
                doc.originalFingerprint =
                    planFingerprint(*rec.originalPlan);
            const ParseStatus saved = saveDegradedPlanFile(
                rec.degradedPlanOut, doc);
            if (!saved.ok()) {
                out.attempts.push_back(std::move(attempt));
                return finish(false,
                              "recovery: " + saved.error(),
                              std::move(run));
            }
        }

        // --- Restore training state and aim the resumed run. ---
        if (restored) {
            const ParseStatus applied = restoreTinyLM(model, snap);
            if (!applied.ok()) {
                out.attempts.push_back(std::move(attempt));
                return finish(false,
                              "recovery: " + applied.error(),
                              std::move(run));
            }
            run_opts.restore = &snap;
        } else {
            reinitModel(model);
            run_opts.restore = nullptr;
        }
        attempt.restoredFromSnapshot = restored;
        attempt.resumedFromStep = resume_step;
        const int completed = run_opts.firstStep +
                              static_cast<int>(run.losses.size());
        attempt.lostIterations =
            completed > resume_step ? completed - resume_step : 0;
        attempt.restoreSeconds =
            (obs::nowUs() - restore_start_us) * 1e-6 -
            attempt.replanSeconds;
        run_opts.firstStep = resume_step;
        run_opts.steps = end_step - resume_step;

        // The one-shot crash fired; environmental faults persist.
        faults.crash = RuntimeCrash{};
        run_opts.faults = faults.empty() ? nullptr : &faults;

        if (metrics) {
            metrics->add("recovery.resumes", 1);
            metrics->add("recovery.lost_iterations",
                         attempt.lostIterations);
            metrics->set("recovery.replan_us",
                         attempt.replanSeconds * 1e6);
            metrics->set("recovery.restore_us",
                         attempt.restoreSeconds * 1e6);
            metrics->set("recovery.detect_us",
                         attempt.detectSeconds * 1e6);
            metrics->set("recovery.stages",
                         attempt.newStages);
        }
        out.attempts.push_back(std::move(attempt));
    }
}

} // namespace adapipe
