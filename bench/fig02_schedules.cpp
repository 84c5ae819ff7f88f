/**
 * @file
 * Figure 2: GPipe vs 1F1B scheduling, rendered as ASCII timelines
 * with bubble counts and per-stage peak in-flight micro-batches
 * (the background facts Sec. 2.1 builds on).
 */

#include <iostream>

#include "sim/baseline_eval.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "sim/timeline.h"
#include "util/table.h"
#include "util/units.h"

using namespace adapipe;

int
main()
{
    const int p = 3;
    const int n = 6;
    // Backward is twice the forward time, as in the paper's figure.
    const std::vector<StageTimes> stages(p, StageTimes{1.0, 2.0});

    std::cout << "Figure 2: schedules with p=" << p << ", n=" << n
              << ", F=1, B=2\n\n";

    Table summary({"Schedule", "Iteration", "Bubble total",
                   "Peak in-flight (per stage)"});

    for (const Schedule &sched : {buildGPipe(p, n), build1F1B(p, n)}) {
        const SimResult sim = simulate(sched, stages);
        std::cout << renderTimeline(sched, sim, 90) << "\n";

        std::string alive;
        for (int s = 0; s < p; ++s) {
            if (s)
                alive += " ";
            alive += std::to_string(sim.peakAlive[s]);
        }
        summary.addRow({sched.name,
                        formatDouble(sim.iterationTime, 1),
                        formatDouble(sim.totalBubbleTime(), 1),
                        alive});
    }
    summary.print(std::cout);
    std::cout
        << "\nShape check vs paper: both schedules have 2(p-1) "
           "bubbles; 1F1B cuts peak in-flight\n"
        << "micro-batches from n (GPipe) to p - s per stage.\n";
    return 0;
}
