#include "core/plan.h"

#include "util/logging.h"

namespace adapipe {

const char *
planMethodName(PlanMethod method)
{
    switch (method) {
      case PlanMethod::AdaPipe: return "AdaPipe";
      case PlanMethod::EvenPartition: return "Even Partitioning";
      case PlanMethod::DappleFull: return "DAPPLE-Full";
      case PlanMethod::DappleNon: return "DAPPLE-Non";
      case PlanMethod::DappleSelective: return "DAPPLE-Selective";
    }
    return "?";
}

std::optional<RecomputeBaseline>
uniformPolicy(PlanMethod method)
{
    switch (method) {
      case PlanMethod::DappleFull: return RecomputeBaseline::Full;
      case PlanMethod::DappleNon: return RecomputeBaseline::None;
      case PlanMethod::DappleSelective:
        return RecomputeBaseline::Selective;
      case PlanMethod::AdaPipe:
      case PlanMethod::EvenPartition: break;
    }
    return std::nullopt;
}

const PipelinePlan &
PlanResult::value() const
{
    ADAPIPE_ASSERT(ok, "accessing plan of infeasible result: ",
                   oomReason);
    return plan;
}

std::vector<StageTimes>
planStageTimes(const PipelinePlan &plan)
{
    std::vector<StageTimes> times;
    times.reserve(plan.stages.size());
    for (const StagePlan &sp : plan.stages)
        times.push_back({sp.timeFwd, sp.timeBwd});
    return times;
}

} // namespace adapipe
