#include "service/handlers.h"

#include <chrono>
#include <utility>

#include "core/plan_io.h"
#include "core/planner.h"
#include "obs/macros.h"
#include "robust/replan_io.h"
#include "sim/interleaved_planner.h"
#include "util/stats.h"

namespace adapipe {

namespace {

double
nowMicros()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** What a request plans on: its profiled model and the stage-cost
 *  options it plans with, sharing the service's knapsack memo. */
struct PlanInputs
{
    ProfiledModel pm;
    StageCostOptions opts;
};

PlanInputs
planInputs(const PlanRequest &request, KnapsackMemo &memo)
{
    PlanInputs in;
    in.pm = buildProfiledModel(request.modelConfig(), request.train,
                               request.par, request.clusterSpec());
    in.opts.memBudgetFraction = request.memBudgetFraction;
    in.opts.knapsackMemo = &memo;
    in.opts.offload.enabled = request.offload;
    in.opts.offload.bandwidth = request.offloadBandwidth;
    in.opts.offload.overlapFraction = request.offloadOverlapFraction;
    return in;
}

/** Quantile summary of a latency sample as a JSON object. */
JsonValue
latencyJson(const std::vector<double> &sample)
{
    JsonValue out = JsonValue::object();
    out.set("count",
            JsonValue::integer(
                static_cast<std::int64_t>(sample.size())));
    if (sample.empty()) {
        out.set("p50", JsonValue::number(0));
        out.set("p99", JsonValue::number(0));
    } else {
        out.set("p50", JsonValue::number(quantile(sample, 0.5)));
        out.set("p99", JsonValue::number(quantile(sample, 0.99)));
    }
    return out;
}

/** Per-stage explanation table of a plan. */
JsonValue
explainJson(const PipelinePlan &plan)
{
    JsonValue out = JsonValue::object();
    out.set("method",
            JsonValue::string(planMethodName(plan.method)));
    out.set("micro_batches", JsonValue::integer(plan.microBatches));
    out.set("virtual_stages",
            JsonValue::integer(plan.virtualStages));
    JsonValue timing = JsonValue::object();
    timing.set("warmup", JsonValue::number(plan.timing.warmup));
    timing.set("ending", JsonValue::number(plan.timing.ending));
    timing.set("steady_per_mb",
               JsonValue::number(plan.timing.steadyPerMb));
    timing.set("total", JsonValue::number(plan.timing.total));
    out.set("timing", std::move(timing));
    JsonValue stages = JsonValue::array();
    int bottleneck = 0;
    double bottleneck_time = -1;
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
        const StagePlan &sp = plan.stages[s];
        JsonValue row = JsonValue::object();
        row.set("stage",
                JsonValue::integer(static_cast<std::int64_t>(s)));
        row.set("first_layer", JsonValue::integer(sp.firstLayer));
        row.set("last_layer", JsonValue::integer(sp.lastLayer));
        row.set("time_fwd", JsonValue::number(sp.timeFwd));
        row.set("time_bwd", JsonValue::number(sp.timeBwd));
        row.set("mem_peak",
                JsonValue::integer(
                    static_cast<std::int64_t>(sp.memPeak)));
        row.set("saved_units", JsonValue::integer(sp.savedUnits));
        row.set("total_units", JsonValue::integer(sp.totalUnits));
        stages.push(std::move(row));
        if (sp.timeFwd + sp.timeBwd > bottleneck_time) {
            bottleneck_time = sp.timeFwd + sp.timeBwd;
            bottleneck = static_cast<int>(s);
        }
    }
    out.set("stages", std::move(stages));
    out.set("bottleneck_stage", JsonValue::integer(bottleneck));
    return out;
}

} // namespace

PlanService::PlanService(PlanServiceOptions opts)
    : opts_(opts), cache_(opts.cacheBytes, opts.persistDir)
{}

std::string
PlanService::handleLine(const std::string &line)
{
    const double start_us = nowMicros();
    requests_.fetch_add(1, std::memory_order_relaxed);
    ADAPIPE_OBS_COUNT("service.requests", 1);

    ParseResult<ServiceRequest> parsed =
        tryServiceRequestFromJsonString(line);
    if (!parsed.ok()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        ADAPIPE_OBS_COUNT("service.errors", 1);
        return errorResponse("", parsed.error());
    }
    const ServiceRequest &req = parsed.value();

    // A cached response under @p key, else @p cold's, timed either
    // way.
    const auto serve = [&](const std::string &key, const auto &cold) {
        std::string response;
        if (cache_.get(key, &response)) {
            ADAPIPE_OBS_COUNT("service.cache_hits", 1);
            recordLatency(nowMicros() - start_us, true);
            return response;
        }
        ADAPIPE_OBS_COUNT("service.cache_misses", 1);
        response = cold();
        recordLatency(nowMicros() - start_us, false);
        return response;
    };
    // Each fingerprint is a canonical JSON dump: computed once here,
    // then passed to the handler.
    switch (req.kind) {
      case RequestKind::Stats:
        stats_requests_.fetch_add(1, std::memory_order_relaxed);
        return handleStats();
      case RequestKind::Shutdown:
        shutdown_.store(true, std::memory_order_release);
        ADAPIPE_OBS_COUNT("service.shutdowns", 1);
        return successEnvelope("shutdown").dump(0);
      case RequestKind::Plan: {
        plan_requests_.fetch_add(1, std::memory_order_relaxed);
        const std::string fp = requestFingerprint(req.plan);
        return serve("plan:" + fp, [&] {
            std::string response;
            basePlan(req.plan, fp, &response);
            return response;
        });
      }
      case RequestKind::Explain: {
        explain_requests_.fetch_add(1, std::memory_order_relaxed);
        const std::string fp = requestFingerprint(req.plan);
        const std::string key = "explain:" + fp;
        return serve(key,
                     [&] { return handleExplain(req.plan, fp, key); });
      }
      case RequestKind::Replan: {
        // Fault reports carry measured factors, so a replan's line is
        // almost never asked for again: answer it directly, uncached.
        replan_requests_.fetch_add(1, std::memory_order_relaxed);
        std::string response = handleReplan(
            req.plan, req.fault, requestFingerprint(req.plan));
        recordLatency(nowMicros() - start_us, false);
        return response;
      }
    }
    ADAPIPE_FATAL("unhandled request kind");
}

PlanResult
PlanService::solve(const PlanRequest &request)
{
    ADAPIPE_OBS_SPAN(obs_span, "service.solve");
    const PlanInputs in = planInputs(request, memo_);
    if (request.scheduleFamily == "interleaved") {
        return makeInterleavedPlan(in.pm, request.method,
                                   request.virtualStages, in.opts);
    }
    if (request.scheduleFamily == "best")
        return makeBestSchedulePlan(in.pm, request.method, in.opts);
    return makePlan(in.pm, request.method, in.opts);
}

PlanResult
PlanService::basePlan(const PlanRequest &request, const std::string &fp,
                      std::string *response)
{
    const std::string key = "plan:" + fp;

    std::string cached;
    if (cache_.get(key, &cached)) {
        // Recover the plan struct from the cached response line; the
        // round-trip is exact (golden_plan_test pins it).
        PlanResult result;
        const JsonValue root = JsonValue::parse(cached);
        ParseResult<PipelinePlan> plan =
            tryPlanFromJson(root.at("plan"));
        if (plan.ok()) {
            result.ok = true;
            result.plan = std::move(plan).value();
            if (response)
                *response = std::move(cached);
            return result;
        }
        // Unparseable cache entry: fall through and replan.
    }

    std::string document;
    if (cache_.getDocument(fp, &document)) {
        ParseResult<PipelinePlan> plan =
            tryPlanFromJsonString(document);
        if (plan.ok()) {
            PlanResult result;
            result.ok = true;
            result.plan = std::move(plan).value();
            JsonValue envelope = successEnvelope("plan");
            envelope.set("fingerprint", JsonValue::string(fp));
            envelope.set("plan", planToJson(result.plan));
            const std::string line = envelope.dump(0);
            cache_.put(key, line);
            if (response)
                *response = line;
            return result;
        }
    }

    PlanResult result = solve(request);
    if (!result.ok) {
        ADAPIPE_OBS_COUNT("service.infeasible", 1);
        if (response) {
            *response = errorResponse(
                "plan", "plan infeasible: " + result.oomReason);
        }
        return result;
    }
    JsonValue envelope = successEnvelope("plan");
    envelope.set("fingerprint", JsonValue::string(fp));
    envelope.set("plan", planToJson(result.plan));
    const std::string line = envelope.dump(0);
    cache_.put(key, line);
    cache_.putDocument(fp, planToJsonString(result.plan, 2) + "\n");
    if (response)
        *response = line;
    return result;
}

std::string
PlanService::handleExplain(const PlanRequest &request,
                           const std::string &fp,
                           const std::string &key)
{
    PlanResult base = basePlan(request, fp, nullptr);
    if (!base.ok) {
        return errorResponse("explain",
                             "plan infeasible: " + base.oomReason);
    }
    JsonValue envelope = successEnvelope("explain");
    envelope.set("fingerprint", JsonValue::string(fp));
    envelope.set("explain", explainJson(base.plan));
    const std::string line = envelope.dump(0);
    cache_.put(key, line);
    return line;
}

std::string
PlanService::handleReplan(const PlanRequest &request,
                          const DegradedScenario &fault,
                          const std::string &fp)
{
    PlanResult base = basePlan(request, fp, nullptr);
    if (!base.ok) {
        return errorResponse("replan",
                             "base plan infeasible: " +
                                 base.oomReason);
    }

    const PlanInputs in = planInputs(request, memo_);
    const ReplanResult replanned =
        replanDegradedIncremental(in.pm, fault, base.plan, in.opts);
    if (!replanned.ok) {
        ADAPIPE_OBS_COUNT("service.infeasible", 1);
        return errorResponse("replan",
                             "replan infeasible: " +
                                 replanned.reason);
    }

    DegradedPlanDoc doc;
    doc.plan = replanned.plan;
    doc.scenario = fault;
    doc.originalFingerprint = planFingerprint(base.plan);
    doc.degradedCapacity = replanned.degradedCapacity;

    JsonValue envelope = successEnvelope("replan");
    envelope.set("fingerprint", JsonValue::string(fp));
    envelope.set("degraded_plan", degradedPlanToJson(doc));
    return envelope.dump(0);
}

std::string
PlanService::handleStats()
{
    JsonValue envelope = successEnvelope("stats");

    JsonValue requests = JsonValue::object();
    requests.set("total", JsonValue::integer(requests_.load()));
    requests.set("plan", JsonValue::integer(plan_requests_.load()));
    requests.set("explain",
                 JsonValue::integer(explain_requests_.load()));
    requests.set("replan",
                 JsonValue::integer(replan_requests_.load()));
    requests.set("stats",
                 JsonValue::integer(stats_requests_.load()));
    requests.set("errors", JsonValue::integer(errors_.load()));
    envelope.set("requests", std::move(requests));

    const PlanCacheStats cs = cache_.stats();
    JsonValue cache = JsonValue::object();
    cache.set("hits", JsonValue::integer(cs.hits));
    cache.set("misses", JsonValue::integer(cs.misses));
    cache.set("evictions", JsonValue::integer(cs.evictions));
    cache.set("disk_hits", JsonValue::integer(cs.diskHits));
    cache.set("entries", JsonValue::integer(cs.entries));
    cache.set("bytes", JsonValue::integer(cs.bytes));
    cache.set("capacity_bytes",
              JsonValue::integer(cs.capacityBytes));
    envelope.set("cache", std::move(cache));

    const KnapsackMemoStats ms = memo_.stats();
    JsonValue memo = JsonValue::object();
    memo.set("hits", JsonValue::integer(ms.hits));
    memo.set("misses", JsonValue::integer(ms.misses));
    memo.set("entries", JsonValue::integer(ms.entries));
    envelope.set("memo", std::move(memo));

    std::vector<double> cold;
    std::vector<double> warm;
    {
        std::lock_guard<std::mutex> lock(latency_mutex_);
        cold = cold_us_;
        warm = warm_us_;
    }
    JsonValue latency = JsonValue::object();
    latency.set("cold", latencyJson(cold));
    latency.set("warm", latencyJson(warm));
    envelope.set("latency_us", std::move(latency));

    return envelope.dump(0);
}

void
PlanService::recordLatency(double us, bool warm)
{
    std::lock_guard<std::mutex> lock(latency_mutex_);
    (warm ? warm_us_ : cold_us_).push_back(us);
}

} // namespace adapipe
