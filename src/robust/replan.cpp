#include "robust/replan.h"

#include <iomanip>
#include <ostream>

#include "obs/macros.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "util/units.h"

namespace adapipe {

ReplanResult
replanDegraded(const ProfiledModel &pm, const DegradedScenario &scenario,
               StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "robust.replan");
    ADAPIPE_OBS_COUNT("robust.replans", 1);

    ReplanResult result;
    const int p = pm.par.pipeline;
    if (scenario.lostStages < 0 || scenario.lostStages >= p) {
        result.reason = "lost stages must be in [0, pipeline)";
        return result;
    }
    const int surviving = p - scenario.lostStages;
    if (scenario.stragglerStage >= surviving) {
        result.reason = "straggler stage out of the surviving range";
        return result;
    }
    if (scenario.stragglerFactor < 1.0) {
        result.reason = "straggler factor must be >= 1";
        return result;
    }
    if (scenario.memFactor <= 0 || scenario.memFactor > 1.0) {
        result.reason = "memory factor must be in (0, 1]";
        return result;
    }
    if (scenario.hostLinkFactor <= 0 || scenario.hostLinkFactor > 1.0) {
        result.reason = "host link factor must be in (0, 1]";
        return result;
    }

    ProfiledModel degraded = pm;
    degraded.par.pipeline = surviving;

    StageCostOptions degraded_opts = opts;
    Bytes cap = opts.memCapacityOverride > 0 ? opts.memCapacityOverride
                                             : pm.memCapacity;
    if (scenario.memFactor < 1.0) {
        cap = static_cast<Bytes>(scenario.memFactor *
                                 static_cast<double>(cap));
    }
    degraded_opts.memCapacityOverride = cap;
    if (scenario.stragglerStage >= 0 &&
        scenario.stragglerFactor != 1.0) {
        degraded_opts.stageTimeFactor.assign(surviving, 1.0);
        degraded_opts.stageTimeFactor[scenario.stragglerStage] =
            scenario.stragglerFactor;
    }
    if (degraded_opts.offload.enabled &&
        scenario.hostLinkFactor < 1.0) {
        // A slower PCIe link raises every unit's evict+fetch cost;
        // the tri-choice knapsack reacts by moving marginal units
        // back to recomputation.
        degraded_opts.offload.bandwidth *= scenario.hostLinkFactor;
    }

    PlanResult planned =
        makePlan(degraded, PlanMethod::AdaPipe, degraded_opts);
    if (!planned.ok) {
        ADAPIPE_OBS_COUNT("robust.replan_infeasible", 1);
        result.reason = planned.oomReason;
        return result;
    }

    result.ok = true;
    result.plan = std::move(planned.plan);
    result.degradedCapacity = cap;
    result.healthyTimes = planStageTimes(result.plan);
    if (scenario.stragglerStage >= 0) {
        StageTimes &st = result.healthyTimes[scenario.stragglerStage];
        st.fwd /= scenario.stragglerFactor;
        st.bwd /= scenario.stragglerFactor;
    }
    return result;
}

ReplanResult
replanDegradedIncremental(const ProfiledModel &pm,
                          const DegradedScenario &scenario,
                          const PipelinePlan &base,
                          StageCostOptions opts)
{
    const bool neutral =
        (scenario.stragglerStage < 0 ||
         scenario.stragglerFactor == 1.0) &&
        scenario.memFactor == 1.0 && scenario.lostStages == 0 &&
        scenario.hostLinkFactor == 1.0;
    const bool base_matches =
        base.method == PlanMethod::AdaPipe &&
        base.virtualStages == 1 &&
        static_cast<int>(base.stages.size()) == pm.par.pipeline;
    if (neutral && base_matches) {
        ADAPIPE_OBS_COUNT("robust.replan_shortcircuit", 1);
        ReplanResult result;
        result.ok = true;
        result.plan = base;
        result.degradedCapacity = opts.memCapacityOverride > 0
                                      ? opts.memCapacityOverride
                                      : pm.memCapacity;
        result.healthyTimes = planStageTimes(base);
        return result;
    }
    return replanDegraded(pm, scenario, opts);
}

Seconds
simulateUnderFault(const std::vector<StageTimes> &healthy_times,
                   int micro_batches, const FaultSpec &faults)
{
    const int p = static_cast<int>(healthy_times.size());
    const Schedule sched = build1F1B(p, micro_batches);
    return simulate(sched, healthy_times, faults).iterationTime;
}

RobustnessReport
buildSensitivityReport(const ProfiledModel &pm,
                       const PipelinePlan &original,
                       int straggler_stage,
                       const std::vector<double> &severities,
                       std::uint64_t seed, StageCostOptions opts)
{
    ADAPIPE_OBS_SPAN(obs_span, "robust.sensitivity_report");

    RobustnessReport report;
    report.model = pm.model.name;
    report.stragglerStage = straggler_stage;
    report.seed = seed;

    const int n = original.microBatches;
    const std::vector<StageTimes> original_times =
        planStageTimes(original);
    {
        FaultSpec none;
        none.seed = seed;
        report.healthyTime = simulateUnderFault(original_times, n, none);
    }

    for (double severity : severities) {
        SensitivityRow row;
        row.severity = severity;

        FaultSpec faults;
        faults.seed = seed;
        if (severity > 1.0)
            faults.slowdowns.push_back({straggler_stage, severity});
        row.originalTime = simulateUnderFault(original_times, n, faults);

        DegradedScenario scenario;
        scenario.stragglerStage = straggler_stage;
        scenario.stragglerFactor = severity;
        const ReplanResult replanned =
            replanDegraded(pm, scenario, opts);
        if (replanned.ok) {
            row.replanOk = true;
            row.replannedTime =
                simulateUnderFault(replanned.healthyTimes,
                                   replanned.plan.microBatches,
                                   faults);
            row.speedup = row.replannedTime > 0
                              ? row.originalTime / row.replannedTime
                              : 1.0;
        } else {
            row.replannedTime = row.originalTime;
        }
        ADAPIPE_OBS_COUNT("robust.report_rows", 1);
        report.rows.push_back(row);
    }
    return report;
}

JsonValue
reportToJson(const RobustnessReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("model", JsonValue::string(report.model));
    root.set("straggler_stage",
             JsonValue::integer(report.stragglerStage));
    root.set("seed", JsonValue::integer(
                         static_cast<std::int64_t>(report.seed)));
    root.set("healthy_time", JsonValue::number(report.healthyTime));
    JsonValue rows = JsonValue::array();
    for (const SensitivityRow &row : report.rows) {
        JsonValue entry = JsonValue::object();
        entry.set("severity", JsonValue::number(row.severity));
        entry.set("original_time",
                  JsonValue::number(row.originalTime));
        entry.set("replanned_time",
                  JsonValue::number(row.replannedTime));
        entry.set("replan_ok", JsonValue::boolean(row.replanOk));
        entry.set("speedup", JsonValue::number(row.speedup));
        rows.push(std::move(entry));
    }
    root.set("rows", std::move(rows));
    return root;
}

void
printReport(const RobustnessReport &report, std::ostream &os)
{
    os << "Robustness report: " << report.model << ", straggler on stage "
       << report.stragglerStage << " (seed " << report.seed << ")\n";
    os << "healthy iteration: " << formatSeconds(report.healthyTime)
       << "\n\n";
    os << std::left << std::setw(10) << "severity" << std::setw(14)
       << "original" << std::setw(14) << "replanned" << std::setw(10)
       << "speedup" << "note\n";
    for (const SensitivityRow &row : report.rows) {
        os << std::left << std::setw(10)
           << formatDouble(row.severity, 2) << std::setw(14)
           << formatSeconds(row.originalTime) << std::setw(14)
           << formatSeconds(row.replannedTime) << std::setw(10)
           << formatDouble(row.speedup, 3)
           << (row.replanOk ? "" : "replan failed") << "\n";
    }
}

} // namespace adapipe
