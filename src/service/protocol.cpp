#include "service/protocol.h"

#include "util/canonical_json.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace adapipe {

namespace {

/** Wire name -> preset; nullptr-equivalent reported via fail(). */
ModelConfig
modelByName(const std::string &name, const JsonReader &where)
{
    if (name == "gpt3")
        return gpt3_175b();
    if (name == "llama2")
        return llama2_70b();
    if (name == "gpt3-13b")
        return gpt3_13b();
    if (name == "gpt3-6.7b")
        return gpt3_6_7b();
    if (name == "llama2-13b")
        return llama2_13b();
    if (name == "tiny-test")
        return tinyTestModel();
    where.fail("unknown model '" + name +
               "' (expected gpt3|llama2|gpt3-13b|gpt3-6.7b|"
               "llama2-13b|tiny-test)");
}

PlanMethod
methodByName(const std::string &name, const JsonReader &where)
{
    if (name == "adapipe")
        return PlanMethod::AdaPipe;
    if (name == "even")
        return PlanMethod::EvenPartition;
    if (name == "dapple-full")
        return PlanMethod::DappleFull;
    if (name == "dapple-non")
        return PlanMethod::DappleNon;
    if (name == "dapple-selective")
        return PlanMethod::DappleSelective;
    where.fail("unknown method '" + name +
               "' (expected adapipe|even|dapple-full|dapple-non|"
               "dapple-selective)");
}

const char *
methodWireName(PlanMethod method)
{
    switch (method) {
      case PlanMethod::AdaPipe:
        return "adapipe";
      case PlanMethod::EvenPartition:
        return "even";
      case PlanMethod::DappleFull:
        return "dapple-full";
      case PlanMethod::DappleNon:
        return "dapple-non";
      case PlanMethod::DappleSelective:
        return "dapple-selective";
    }
    ADAPIPE_FATAL("unhandled plan method");
}

int
positiveInt(const JsonReader &node)
{
    const std::int64_t v = node.asInteger();
    if (v < 1 || v > 1'000'000'000)
        node.fail("expected a positive integer");
    return static_cast<int>(v);
}

PlanRequest
readPlanRequest(const JsonReader &plan)
{
    PlanRequest req;
    if (plan.has("model"))
        req.model = plan.key("model").asString();
    // Resolve now so an unknown name fails at the field that named
    // it (or at the plan object when the default is somehow bad).
    const JsonReader model_node =
        plan.has("model") ? plan.key("model") : plan;
    const ModelConfig model = modelByName(req.model, model_node);
    if (plan.has("cluster")) {
        const JsonReader cluster = plan.key("cluster");
        if (cluster.has("name")) {
            req.clusterName = cluster.key("name").asString();
            if (req.clusterName != "a" && req.clusterName != "b") {
                cluster.key("name").fail(
                    "unknown cluster '" + req.clusterName +
                    "' (expected a|b)");
            }
        }
        if (cluster.has("nodes"))
            req.clusterNodes = positiveInt(cluster.key("nodes"));
    }
    if (plan.has("train")) {
        const JsonReader train = plan.key("train");
        if (train.has("micro_batch"))
            req.train.microBatch =
                positiveInt(train.key("micro_batch"));
        if (train.has("seq_len"))
            req.train.seqLen = positiveInt(train.key("seq_len"));
        if (train.has("global_batch"))
            req.train.globalBatch =
                positiveInt(train.key("global_batch"));
    }
    if (plan.has("parallel")) {
        const JsonReader par = plan.key("parallel");
        if (par.has("tensor"))
            req.par.tensor = positiveInt(par.key("tensor"));
        if (par.has("pipeline"))
            req.par.pipeline = positiveInt(par.key("pipeline"));
        if (par.has("data"))
            req.par.data = positiveInt(par.key("data"));
        if (par.has("sequence_parallel"))
            req.par.sequenceParallel =
                par.key("sequence_parallel").asBool();
        if (par.has("flash_attention"))
            req.par.flashAttention =
                par.key("flash_attention").asBool();
    }
    if (plan.has("method")) {
        req.method =
            methodByName(plan.key("method").asString(),
                         plan.key("method"));
    }
    if (plan.has("schedule")) {
        const JsonReader schedule = plan.key("schedule");
        if (schedule.has("family")) {
            req.scheduleFamily = schedule.key("family").asString();
            if (req.scheduleFamily != "1f1b" &&
                req.scheduleFamily != "interleaved" &&
                req.scheduleFamily != "best") {
                schedule.key("family").fail(
                    "unknown schedule family '" +
                    req.scheduleFamily +
                    "' (expected 1f1b|interleaved|best)");
            }
        }
        if (schedule.has("virtual_stages")) {
            req.virtualStages =
                positiveInt(schedule.key("virtual_stages"));
        }
    }
    if (plan.has("offload")) {
        const JsonReader offload = plan.key("offload");
        if (offload.has("enabled"))
            req.offload = offload.key("enabled").asBool();
        if (offload.has("bandwidth")) {
            req.offloadBandwidth =
                offload.key("bandwidth").asNumber();
            if (!(req.offloadBandwidth > 0)) {
                offload.key("bandwidth")
                    .fail("bandwidth must be > 0 bytes/s");
            }
        }
        if (offload.has("overlap_fraction")) {
            req.offloadOverlapFraction =
                offload.key("overlap_fraction").asNumber();
            if (req.offloadOverlapFraction < 0 ||
                req.offloadOverlapFraction > 1.0) {
                offload.key("overlap_fraction")
                    .fail("overlap_fraction must be in [0, 1]");
            }
        }
    }
    if (plan.has("mem_budget_fraction")) {
        req.memBudgetFraction =
            plan.key("mem_budget_fraction").asNumber();
        if (req.memBudgetFraction <= 0 ||
            req.memBudgetFraction > 1.0) {
            plan.key("mem_budget_fraction")
                .fail("mem_budget_fraction must be in (0, 1]");
        }
    }

    // Cross-field validation: everything that would otherwise trip a
    // fatal assertion in the profiler or planner aborts the *request*
    // here instead of the server.
    const ClusterSpec cluster = req.clusterSpec();
    if (req.par.tensor > cluster.devicesPerNode) {
        plan.fail("parallel.tensor " +
                  std::to_string(req.par.tensor) +
                  " exceeds devices per node " +
                  std::to_string(cluster.devicesPerNode));
    }
    if (req.par.totalDevices() > cluster.totalDevices()) {
        plan.fail("parallel strategy needs " +
                  std::to_string(req.par.totalDevices()) +
                  " devices but the cluster has " +
                  std::to_string(cluster.totalDevices()));
    }
    if (model.numHeads % req.par.tensor != 0 ||
        model.numKvHeads % req.par.tensor != 0) {
        plan.fail("parallel.tensor " +
                  std::to_string(req.par.tensor) +
                  " does not divide the head counts of " +
                  model.name);
    }
    if (req.par.pipeline > model.numBlocks + 2) {
        plan.fail("parallel.pipeline " +
                  std::to_string(req.par.pipeline) +
                  " exceeds the model's " +
                  std::to_string(model.numBlocks + 2) + " layers");
    }
    const int denom = req.train.microBatch * req.par.data;
    if (req.train.globalBatch % denom != 0) {
        plan.fail("train.global_batch " +
                  std::to_string(req.train.globalBatch) +
                  " not divisible by micro_batch*data = " +
                  std::to_string(denom));
    }
    if (req.scheduleFamily != "interleaved")
        req.virtualStages = req.scheduleFamily == "1f1b" ? 1 : 0;
    return req;
}

DegradedScenario
readFault(const JsonReader &fault)
{
    DegradedScenario scenario;
    if (fault.has("straggler_stage")) {
        const std::int64_t s =
            fault.key("straggler_stage").asInteger();
        if (s < -1)
            fault.key("straggler_stage")
                .fail("straggler_stage must be >= -1");
        scenario.stragglerStage = static_cast<int>(s);
    }
    if (fault.has("straggler_factor")) {
        scenario.stragglerFactor =
            fault.key("straggler_factor").asNumber();
        if (scenario.stragglerFactor < 1.0)
            fault.key("straggler_factor")
                .fail("straggler_factor must be >= 1");
    }
    if (fault.has("mem_factor")) {
        scenario.memFactor = fault.key("mem_factor").asNumber();
        if (scenario.memFactor <= 0 || scenario.memFactor > 1.0)
            fault.key("mem_factor")
                .fail("mem_factor must be in (0, 1]");
    }
    if (fault.has("lost_stages")) {
        const std::int64_t lost =
            fault.key("lost_stages").asInteger();
        if (lost < 0)
            fault.key("lost_stages")
                .fail("lost_stages must be >= 0");
        scenario.lostStages = static_cast<int>(lost);
    }
    if (fault.has("host_link_factor")) {
        scenario.hostLinkFactor =
            fault.key("host_link_factor").asNumber();
        if (scenario.hostLinkFactor <= 0 ||
            scenario.hostLinkFactor > 1.0) {
            fault.key("host_link_factor")
                .fail("host_link_factor must be in (0, 1]");
        }
    }
    return scenario;
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Plan:
        return "plan";
      case RequestKind::Explain:
        return "explain";
      case RequestKind::Replan:
        return "replan";
      case RequestKind::Stats:
        return "stats";
      case RequestKind::Shutdown:
        return "shutdown";
    }
    ADAPIPE_FATAL("unhandled request kind");
}

ModelConfig
PlanRequest::modelConfig() const
{
    if (model == "gpt3")
        return gpt3_175b();
    if (model == "llama2")
        return llama2_70b();
    if (model == "gpt3-13b")
        return gpt3_13b();
    if (model == "gpt3-6.7b")
        return gpt3_6_7b();
    if (model == "llama2-13b")
        return llama2_13b();
    if (model == "tiny-test")
        return tinyTestModel();
    ADAPIPE_FATAL("unvalidated model name '", model, "'");
}

ClusterSpec
PlanRequest::clusterSpec() const
{
    if (clusterName == "a")
        return clusterA(clusterNodes);
    if (clusterName == "b")
        return clusterB(clusterNodes);
    ADAPIPE_FATAL("unvalidated cluster name '", clusterName, "'");
}

ParseResult<ServiceRequest>
tryServiceRequestFromJsonString(const std::string &line)
{
    ParseResult<JsonValue> json = JsonValue::tryParse(line);
    if (!json.ok())
        return ParseResult<ServiceRequest>::failure(json.error());
    return readJson<ServiceRequest>(
        json.value(), "service", [](JsonReader root) {
            ServiceRequest req;
            const std::string kind = root.key("kind").asString();
            if (kind == "plan") {
                req.kind = RequestKind::Plan;
            } else if (kind == "explain") {
                req.kind = RequestKind::Explain;
            } else if (kind == "replan") {
                req.kind = RequestKind::Replan;
            } else if (kind == "stats") {
                req.kind = RequestKind::Stats;
                return req;
            } else if (kind == "shutdown") {
                req.kind = RequestKind::Shutdown;
                return req;
            } else {
                root.key("kind").fail(
                    "unknown request kind '" + kind +
                    "' (expected plan|explain|replan|stats|"
                    "shutdown)");
            }
            req.plan = readPlanRequest(root.key("plan"));
            if (req.kind == RequestKind::Replan) {
                if (root.has("fault"))
                    req.fault = readFault(root.key("fault"));
            } else if (root.has("fault")) {
                root.key("fault").fail(
                    "fault reports are only valid on replan "
                    "requests");
            }
            return req;
        });
}

JsonValue
planRequestToJson(const PlanRequest &request)
{
    JsonValue root = JsonValue::object();
    root.set("model", JsonValue::string(request.model));
    JsonValue cluster = JsonValue::object();
    cluster.set("name", JsonValue::string(request.clusterName));
    cluster.set("nodes", JsonValue::integer(request.clusterNodes));
    root.set("cluster", std::move(cluster));
    JsonValue train = JsonValue::object();
    train.set("micro_batch",
              JsonValue::integer(request.train.microBatch));
    train.set("seq_len", JsonValue::integer(request.train.seqLen));
    train.set("global_batch",
              JsonValue::integer(request.train.globalBatch));
    root.set("train", std::move(train));
    JsonValue par = JsonValue::object();
    par.set("tensor", JsonValue::integer(request.par.tensor));
    par.set("pipeline", JsonValue::integer(request.par.pipeline));
    par.set("data", JsonValue::integer(request.par.data));
    par.set("sequence_parallel",
            JsonValue::boolean(request.par.sequenceParallel));
    par.set("flash_attention",
            JsonValue::boolean(request.par.flashAttention));
    root.set("parallel", std::move(par));
    root.set("method",
             JsonValue::string(methodWireName(request.method)));
    JsonValue schedule = JsonValue::object();
    schedule.set("family",
                 JsonValue::string(request.scheduleFamily));
    schedule.set("virtual_stages",
                 JsonValue::integer(request.virtualStages));
    root.set("schedule", std::move(schedule));
    root.set("mem_budget_fraction",
             JsonValue::number(request.memBudgetFraction));
    JsonValue offload = JsonValue::object();
    offload.set("enabled", JsonValue::boolean(request.offload));
    offload.set("bandwidth",
                JsonValue::number(request.offloadBandwidth));
    offload.set("overlap_fraction",
                JsonValue::number(request.offloadOverlapFraction));
    root.set("offload", std::move(offload));
    return root;
}

std::string
requestFingerprint(const PlanRequest &request)
{
    return jsonFingerprint(planRequestToJson(request));
}

std::string
errorResponse(const std::string &kind, const std::string &error)
{
    JsonValue root = JsonValue::object();
    root.set("ok", JsonValue::boolean(false));
    if (!kind.empty())
        root.set("kind", JsonValue::string(kind));
    root.set("error", JsonValue::string(error));
    return root.dump(0);
}

JsonValue
successEnvelope(const std::string &kind)
{
    JsonValue root = JsonValue::object();
    root.set("ok", JsonValue::boolean(true));
    root.set("kind", JsonValue::string(kind));
    return root;
}

} // namespace adapipe
