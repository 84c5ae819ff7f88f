/**
 * @file
 * Plan + trace export tool: search a plan, save it as JSON (the
 * hand-off format an execution engine would consume) and dump a
 * chrome://tracing-compatible timeline of its simulated execution.
 *
 * Usage:
 *   export_plan --model gpt3 --seq 16384 --nodes 8 \
 *       --tensor 8 --pipeline 8 --data 1 --global-batch 32 \
 *       --method adapipe --plan-out plan.json --trace-out trace.json
 */

#include <iostream>

#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "hw/profile_io.h"
#include "model/model_config.h"
#include "runtime/plan_mapping.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "sim/trace_export.h"
#include "util/cli.h"
#include "util/file_io.h"
#include "util/units.h"

using namespace adapipe;

int
main(int argc, char **argv)
{
    CliParser cli("export_plan");
    cli.addString("model", "gpt3",
                  "model: gpt3|llama2|gpt3-13b|tiny-lm");
    cli.addInt("seq", 16384, "sequence length");
    cli.addInt("nodes", 8, "cluster A nodes (8 devices each)");
    cli.addInt("tensor", 8, "tensor-parallel size");
    cli.addInt("pipeline", 8, "pipeline-parallel size");
    cli.addInt("data", 1, "data-parallel size");
    cli.addInt("global-batch", 32, "global batch size");
    cli.addString("method", "adapipe",
                  "adapipe|even|dapple-full|dapple-non");
    cli.addString("profile", "",
                  "measured unit-profile table JSON (hw/profile_io)");
    cli.addString("plan-out", "plan.json", "plan JSON output path");
    cli.addString("trace-out", "", "chrome trace output path");
    cli.addFlag("quiet", "suppress the summary");
    cli.parse(argc, argv);

    ModelConfig model;
    const std::string which = cli.getString("model");
    if (which == "gpt3") {
        model = gpt3_175b();
    } else if (which == "llama2") {
        model = llama2_70b();
    } else if (which == "gpt3-13b") {
        model = gpt3_13b();
    } else if (which == "tiny-lm") {
        // The 6-block model pipeline_training executes for real;
        // plans exported here feed straight into the runtime.
        TinyLmConfig tiny;
        tiny.blocks = 6;
        tiny.ffnHidden = 96;
        model = tinyLmModelConfig(tiny);
    } else {
        std::cerr << "export_plan: error: unknown model '" << which
                  << "' (expected gpt3|llama2|gpt3-13b|tiny-lm)\n";
        return 1;
    }

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
    } else {
        std::cerr << "export_plan: error: unknown method '"
                  << method_name
                  << "' (expected adapipe|even|dapple-full|"
                     "dapple-non)\n";
        return 1;
    }

    TrainConfig train;
    train.seqLen = static_cast<int>(cli.getInt("seq"));
    train.globalBatch = static_cast<int>(cli.getInt("global-batch"));
    ParallelConfig par;
    par.tensor = static_cast<int>(cli.getInt("tensor"));
    par.pipeline = static_cast<int>(cli.getInt("pipeline"));
    par.data = static_cast<int>(cli.getInt("data"));
    const ClusterSpec cluster =
        clusterA(static_cast<int>(cli.getInt("nodes")));

    ProfiledModel pm = buildProfiledModel(model, train, par, cluster);

    const std::string profile_path = cli.getString("profile");
    if (!profile_path.empty()) {
        const ParseResult<ProfileTable> table =
            loadProfileTableFile(profile_path);
        if (!table.ok()) {
            std::cerr << "export_plan: error: " << table.error()
                      << "\n";
            return 1;
        }
        const ParseStatus applied =
            tryApplyProfileTable(pm, table.value());
        if (!applied.ok()) {
            std::cerr << "export_plan: error: " << profile_path
                      << ": " << applied.error() << "\n";
            return 1;
        }
    }

    const PlanResult result = makePlan(pm, method);
    if (!result.ok) {
        std::cerr << "plan infeasible: " << result.oomReason << "\n";
        return 1;
    }

    const std::string plan_path = cli.getString("plan-out");
    {
        const ParseStatus wrote = writeTextFile(
            plan_path, planToJsonString(result.plan) + "\n");
        if (!wrote.ok()) {
            std::cerr << "export_plan: error: " << wrote.error()
                      << "\n";
            return 1;
        }
    }

    const std::string trace_path = cli.getString("trace-out");
    if (!trace_path.empty()) {
        const Schedule sched =
            build1F1B(par.pipeline, result.plan.microBatches);
        const SimResult sim =
            simulate(sched, planStageTimes(result.plan));
        const ParseStatus wrote =
            writeTextFile(trace_path, toChromeTrace(sched, sim) + "\n");
        if (!wrote.ok()) {
            std::cerr << "export_plan: error: " << wrote.error()
                      << "\n";
            return 1;
        }
    }

    if (!cli.getFlag("quiet")) {
        std::cout << "planned " << model.name << " with "
                  << planMethodName(method) << ": iteration "
                  << formatSeconds(result.plan.timing.total)
                  << ", plan -> " << plan_path;
        if (!trace_path.empty())
            std::cout << ", trace -> " << trace_path;
        std::cout << "\n";
    }
    return 0;
}
