/**
 * @file
 * Entry points of the benchmark's workloads.
 */

#ifndef ADAPIPE_PERFBENCH_WORKLOADS_H
#define ADAPIPE_PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace perfbench {

/** @return whether @p name is a training workload. */
bool isTrainWorkload(const std::string &name);

/** @return whether @p name is a plan-service workload. */
bool isPlanWorkload(const std::string &name);

/** Run train-pipeline or train-single into @p report. */
void runTrainWorkload(const RunArgs &args, Report &report);

/** Run one plan-service workload into @p report. */
void runPlanWorkload(const RunArgs &args, Report &report);

/**
 * Re-run the planner call behind each stored training plan document
 * and write the documents into @p dir.
 * @return process exit code
 */
int regeneratePlans(const std::string &dir);

} // namespace perfbench

#endif // ADAPIPE_PERFBENCH_WORKLOADS_H
