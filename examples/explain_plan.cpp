/**
 * @file
 * Plan explainer: read a plan JSON (from export_plan or your own
 * tooling) and print a human-readable analysis — per-stage balance,
 * recomputation intensity, the 1F1B phase decomposition and the
 * bubble ratio.
 *
 * Usage: explain_plan <plan.json>
 */

#include <cmath>
#include <iostream>
#include <string>

#include "core/cost_model.h"
#include "core/plan_io.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

int
main(int argc, char **argv)
{
    static const char usage[] = "usage: explain_plan <plan.json>\n";
    if (argc == 2 && std::string(argv[1]) == "--help") {
        std::cout << usage;
        return 0;
    }
    if (argc != 2) {
        std::cerr << usage;
        return 1;
    }
    const ParseResult<PipelinePlan> loaded = loadPlanFile(argv[1]);
    if (!loaded.ok()) {
        std::cerr << "explain_plan: error: " << loaded.error() << "\n";
        return 1;
    }
    const PipelinePlan &plan = loaded.value();

    std::cout << "Plan: " << planMethodName(plan.method)
              << ", strategy " << plan.par.toString() << ", seq "
              << plan.train.seqLen << ", n = " << plan.microBatches
              << " micro-batches\n\n";

    Table stages({"Stage", "Layers", "#Layers", "Saved units",
                  "F", "B", "F+B", "Peak mem"});
    Seconds min_step = 1e30;
    Seconds max_step = 0;
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
        const StagePlan &sp = plan.stages[s];
        const Seconds step = sp.timeFwd + sp.timeBwd;
        min_step = std::min(min_step, step);
        max_step = std::max(max_step, step);
        stages.addRow({std::to_string(s),
                       std::to_string(sp.firstLayer) + "-" +
                           std::to_string(sp.lastLayer),
                       std::to_string(sp.numLayers()),
                       std::to_string(sp.savedUnits) + "/" +
                           std::to_string(sp.totalUnits),
                       formatSeconds(sp.timeFwd),
                       formatSeconds(sp.timeBwd),
                       formatSeconds(step), formatBytes(sp.memPeak)});
    }
    stages.print(std::cout);

    // Recompute the phase decomposition from the stage times to
    // cross-check the stored timing.
    const PipelineTiming t =
        evaluate1F1B(planStageTimes(plan), plan.microBatches);

    Seconds busy = 0;
    for (const auto &sp : plan.stages)
        busy += (sp.timeFwd + sp.timeBwd);

    std::cout << "\n1F1B decomposition: warmup "
              << formatSeconds(t.warmup) << " + steady "
              << formatSeconds(t.total - t.warmup - t.ending) << " ("
              << formatSeconds(t.steadyPerMb)
              << "/micro-batch) + ending " << formatSeconds(t.ending)
              << " = " << formatSeconds(t.total) << "\n"
              << "Stage balance (slowest/fastest micro-step): "
              << formatDouble(max_step / min_step) << "x\n"
              << "Stored prediction: " << formatSeconds(plan.timing.total)
              << (std::abs(plan.timing.total - t.total) <
                          1e-6 * t.total
                      ? " (consistent)"
                      : " (MISMATCH with stage times!)")
              << "\n";
    return 0;
}
