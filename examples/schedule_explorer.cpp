/**
 * @file
 * Schedule explorer: render the four pipeline schedules as ASCII
 * timelines for a configurable (p, n, F, B).
 *
 * Usage: schedule_explorer [p] [n] [fwd] [bwd]
 * Defaults: p=4, n=8, F=1, B=2.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "sim/timeline.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

int
main(int argc, char **argv)
{
    static const char usage[] =
        "usage: schedule_explorer [p>=2] [n>=1] [fwd>0] [bwd>0]\n";
    if (argc == 2 && std::string(argv[1]) == "--help") {
        std::cout << usage;
        return 0;
    }
    const int p = argc > 1 ? std::atoi(argv[1]) : 4;
    const int n = argc > 2 ? std::atoi(argv[2]) : 8;
    const double fwd = argc > 3 ? std::atof(argv[3]) : 1.0;
    const double bwd = argc > 4 ? std::atof(argv[4]) : 2.0;
    if (p < 2 || n < 1 || fwd <= 0 || bwd <= 0) {
        std::cerr << usage;
        return 1;
    }

    const std::vector<StageTimes> stages(p, StageTimes{fwd, bwd});

    std::cout << "Pipeline schedules for p=" << p << ", n=" << n
              << ", F=" << fwd << ", B=" << bwd << "\n\n";

    Table summary({"Schedule", "Iteration", "Bubble/device",
                   "Peak in-flight"});

    std::vector<Schedule> schedules;
    schedules.push_back(buildGPipe(p, n));
    schedules.push_back(build1F1B(p, n));
    if (p % 2 == 0 && n % 2 == 0)
        schedules.push_back(buildChimera(p, n));
    if (p % 2 == 0 && n % 4 == 0)
        schedules.push_back(buildChimeraD(p, n));

    for (const Schedule &sched : schedules) {
        const SimResult sim = simulate(sched, stages);
        std::cout << renderTimeline(sched, sim, 100) << "\n";

        int peak = 0;
        for (int alive : sim.peakAlive)
            peak = std::max(peak, alive);
        summary.addRow(
            {sched.name, formatDouble(sim.iterationTime, 1),
             formatDouble(sim.totalBubbleTime() / p, 2),
             std::to_string(peak)});
    }
    summary.print(std::cout);
    std::cout << "\nForward passes print the micro-batch digit, "
                 "backward passes a letter, idle '.'.\n";
    return 0;
}
