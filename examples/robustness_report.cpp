/**
 * @file
 * Robustness report: plan a model with AdaPipe, then quantify how the
 * plan degrades under a straggling device and how much degraded-mode
 * replanning (src/robust) recovers.
 *
 * For each severity in the sweep the tool simulates one 1F1B
 * iteration of (a) the original plan and (b) the replanned plan under
 * the same seeded fault scenario, and prints the sensitivity table.
 * An explicit --fault-spec JSON (slowdowns, stalls, hard failure) can
 * be layered on top of the straggler sweep.
 *
 * Usage:
 *   robustness_report --model gpt3 --seq 16384 --nodes 8 \
 *       --tensor 8 --pipeline 8 --data 1 --global-batch 32 \
 *       --straggler 1 --severities 1.1,1.25,1.5,2.0 --seed 42 \
 *       --report-out report.json
 */

#include <iostream>
#include <sstream>

#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "obs/registry.h"
#include "obs/sinks.h"
#include "robust/fault_spec.h"
#include "robust/replan.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "util/cli.h"
#include "util/file_io.h"
#include "util/units.h"

using namespace adapipe;

namespace {

[[nodiscard]] int
fail(const std::string &msg)
{
    std::cerr << "robustness_report: error: " << msg << "\n";
    return 1;
}

/** Parse a comma-separated severity list like "1.1,1.5,2.0". */
ParseResult<std::vector<double>>
parseSeverities(const std::string &text)
{
    using Result = ParseResult<std::vector<double>>;
    std::vector<double> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        std::size_t used = 0;
        double value = 0;
        try {
            value = std::stod(item, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != item.size() || item.empty())
            return Result::failure("--severities: '" + item +
                                   "' is not a number");
        if (value < 1.0)
            return Result::failure("--severities: factor " + item +
                                   " must be >= 1");
        out.push_back(value);
    }
    if (out.empty())
        return Result::failure("--severities: empty list");
    return Result::success(std::move(out));
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("robustness_report");
    cli.addString("model", "gpt3", "model: gpt3|llama2|gpt3-13b");
    cli.addInt("seq", 16384, "sequence length");
    cli.addInt("nodes", 8, "cluster A nodes (8 devices each)");
    cli.addInt("tensor", 8, "tensor-parallel size");
    cli.addInt("pipeline", 8, "pipeline-parallel size");
    cli.addInt("data", 1, "data-parallel size");
    cli.addInt("global-batch", 32, "global batch size");
    cli.addInt("straggler", 1, "stage hit by the straggler");
    cli.addString("severities", "1.1,1.25,1.5,2.0",
                  "comma-separated slowdown factors (each >= 1)");
    cli.addInt("seed", 42, "fault-scenario seed");
    cli.addString("fault-spec", "",
                  "JSON fault spec to additionally simulate verbatim");
    cli.addString("report-out", "", "write the report JSON here");
    cli.addString("metrics-out", "",
                  "write search metrics as JSON-lines");
    cli.parse(argc, argv);

    obs::Registry metrics;
    obs::ScopedRegistry obs_scope(&metrics);

    ModelConfig model;
    const std::string which = cli.getString("model");
    if (which == "gpt3") {
        model = gpt3_175b();
    } else if (which == "llama2") {
        model = llama2_70b();
    } else if (which == "gpt3-13b") {
        model = gpt3_13b();
    } else {
        return fail("unknown model '" + which +
                    "' (expected gpt3|llama2|gpt3-13b)");
    }

    const ParseResult<std::vector<double>> severities =
        parseSeverities(cli.getString("severities"));
    if (!severities.ok())
        return fail(severities.error());

    TrainConfig train;
    train.seqLen = static_cast<int>(cli.getInt("seq"));
    train.globalBatch = static_cast<int>(cli.getInt("global-batch"));
    ParallelConfig par;
    par.tensor = static_cast<int>(cli.getInt("tensor"));
    par.pipeline = static_cast<int>(cli.getInt("pipeline"));
    par.data = static_cast<int>(cli.getInt("data"));
    const ClusterSpec cluster =
        clusterA(static_cast<int>(cli.getInt("nodes")));

    const int straggler = static_cast<int>(cli.getInt("straggler"));
    if (straggler < 0 || straggler >= par.pipeline)
        return fail("--straggler must be in [0, pipeline)");
    const auto seed =
        static_cast<std::uint64_t>(cli.getInt("seed"));

    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const PlanResult original = makePlan(pm, PlanMethod::AdaPipe);
    if (!original.ok)
        return fail("healthy plan infeasible: " + original.oomReason);

    // Optional verbatim scenario first: report what one iteration of
    // the original plan looks like under the full fault spec.
    const std::string spec_path = cli.getString("fault-spec");
    if (!spec_path.empty()) {
        const ParseResult<FaultSpec> spec =
            loadFaultSpecFile(spec_path);
        if (!spec.ok())
            return fail(spec.error());
        const std::vector<StageTimes> times =
            planStageTimes(original.plan);
        const Schedule sched = build1F1B(
            static_cast<int>(times.size()),
            original.plan.microBatches);
        const SimResult sim = simulate(sched, times, spec.value());
        std::cout << "Fault spec " << spec_path << ": ";
        if (sim.completed) {
            std::cout << "iteration "
                      << formatSeconds(sim.iterationTime)
                      << " (stall time "
                      << formatSeconds(sim.stallTime) << ")\n\n";
        } else {
            std::cout << "iteration did not complete — device "
                      << sim.failedDevice << " failed; last op ended "
                      << formatSeconds(sim.iterationTime) << "\n\n";
        }
    }

    const RobustnessReport report = buildSensitivityReport(
        pm, original.plan, straggler, severities.value(), seed);
    printReport(report, std::cout);

    const std::string report_out = cli.getString("report-out");
    if (!report_out.empty()) {
        const ParseStatus wrote = writeTextFile(
            report_out, reportToJson(report).dump(2) + "\n");
        if (!wrote.ok())
            return fail(wrote.error());
        std::cout << "\nreport -> " << report_out << "\n";
    }
    const std::string metrics_out = cli.getString("metrics-out");
    if (!metrics_out.empty()) {
        const ParseStatus wrote =
            writeTextFile(metrics_out, obs::toJsonLines(metrics));
        if (!wrote.ok())
            return fail(wrote.error());
        std::cout << "metrics -> " << metrics_out << "\n";
    }
    return 0;
}
