/**
 * @file
 * AdaPipe benchmark binary (built and invoked by run.py).
 *
 *   adapipe_perfbench --workload train-pipeline --seed 1 --seconds 10
 *                     --trace 0 --plans perfbench/plans
 *   adapipe_perfbench --regen-plans perfbench/plans
 *
 * Prints the host record, the workload's notes and, as its last line,
 * one JSON object with correct / attempted / failed and the measured
 * metrics with their sample counts (run.py adds the units).
 */

#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "util/cli.h"
#include "workloads.h"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    adapipe::CliParser cli("adapipe_perfbench");
    cli.addString("workload", "", "workload name");
    cli.addInt("seed", 1, "workload seed (model init, data, requests)");
    cli.addString("seconds", "10", "length of the timed window");
    cli.addInt("trace", 0, "1 = traced run printing per-layer metrics");
    cli.addString("plans", "perfbench/plans", "stored plan documents");
    cli.addString("out-dir", ".bench_build/out", "Chrome trace directory");
    cli.addString("regen-plans", "",
                  "re-run the planner calls and write the plan documents "
                  "into this directory");
    cli.parse(argc, argv);

    if (!cli.getString("regen-plans").empty())
        return regeneratePlans(cli.getString("regen-plans"));

    RunArgs args;
    args.workload = cli.getString("workload");
    args.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    args.trace = cli.getInt("trace") != 0;
    args.plansDir = cli.getString("plans");
    args.outDir = cli.getString("out-dir");
    try {
        args.seconds = std::stod(cli.getString("seconds"));
    } catch (const std::exception &) {
        std::cerr << "adapipe_perfbench: --seconds must be a number\n";
        return 2;
    }
    const bool train = isTrainWorkload(args.workload);
    if ((!train && !isPlanWorkload(args.workload)) || args.seconds <= 0) {
        std::cerr << "adapipe_perfbench: unknown workload '"
                  << args.workload << "' or non-positive --seconds\n";
        return 2;
    }

    std::cout << hostRecord() << "\n";
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " seconds " << args.seconds << " trace " << args.trace
              << "\n";
    Report report;
    if (train)
        runTrainWorkload(args, report);
    else
        runPlanWorkload(args, report);
    report.print();
    return 0;
}
