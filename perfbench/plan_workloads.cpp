/**
 * @file
 * Plan-service workloads: an in-process PlanServer (1 worker) driven
 * over TCP by one closed-loop PlanClient. The whole process runs on
 * one vCPU at a time, moving on after each calibration burst, so the
 * bursts that scale its latencies run where the server ran. Each
 * workload is one request class, because latency is multimodal across
 * classes and each class isolates one planner layer:
 *
 *   plan-tight   distinct cold plans whose memory budget forces the
 *                knapsack to choose (recompute_dp, stage_cost)
 *   plan-roomy   distinct cold plans where every unit fits: profile,
 *                partition DP and rendering, no knapsack
 *   plan-warm    byte-identical repeats served from the response cache
 *   plan-replan  straggler reports against cached base plans
 *                (robust replanning and the knapsack memo)
 *
 * Requests are pure functions of (seed, index), so the same seed
 * sends the same requests.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <memory>
#include <optional>
#include <sstream>

#include "core/partition_dp.h"
#include "core/plan_io.h"
#include "core/profiled_model.h"
#include "obs/registry.h"
#include "robust/replan.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/json.h"
#include "host_speed.h"
#include "workloads.h"

using namespace adapipe;

namespace perfbench {

namespace {

/** Distinct cached requests the warm class cycles over. */
constexpr std::uint64_t kWarmSet = 64;
/** Cached base plans the replan class reports faults against. */
constexpr std::uint64_t kReplanBases = 4;
/** Responses kept for the plan-quality figures. */
constexpr std::size_t kKeptResponses = 400;
/** Cold requests re-solved phase by phase in a traced run. */
constexpr std::size_t kSplitRequests = 12;
/** Requests after which the process's peak memory is read: a fixed
 *  count, so a faster service does not grow its memo and cache
 *  further within the window. Every window runs at least this many. */
constexpr std::size_t kMemoryRequests = 100;
/** Requests among which a traced run traces every odd one; also the
 *  cap on spans a trace keeps from the server. */
constexpr std::uint64_t kTracedRequests = 2000;

enum class PlanClass { Tight, Roomy, Warm, Replan };

std::optional<PlanClass>
classOf(const std::string &workload)
{
    if (workload == "plan-tight")
        return PlanClass::Tight;
    if (workload == "plan-roomy")
        return PlanClass::Roomy;
    if (workload == "plan-warm")
        return PlanClass::Warm;
    if (workload == "plan-replan")
        return PlanClass::Replan;
    return std::nullopt;
}

/** Index streams of mix(): timed requests, warm-ups, bases. */
enum Stream : std::uint64_t {
    kTimed = 11,
    kWarmup = 12,
    kWarmBase = 13,
    kReplanBase = 14,
    kPick = 15,
};

/**
 * A budget fraction in [lo, hi) that is distinct for every index: a
 * golden-ratio walk from a seeded start, so no two requests of a run
 * share a fingerprint and every cold request is really cold.
 */
double
distinctFraction(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index, double lo, double hi)
{
    const double start = unit(seed, stream, 0);
    const double walk = start + static_cast<double>(index) *
                                    0.6180339887498949;
    return lo + (hi - lo) * (walk - std::floor(walk));
}

std::string
planBody(const char *model, int tensor, int pipeline, int seq,
         double fraction)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "\"plan\":{\"model\":\"%s\",\"cluster\":{\"name\":\"a\","
                  "\"nodes\":2},\"train\":{\"seq_len\":%d,"
                  "\"global_batch\":32},\"parallel\":{\"tensor\":%d,"
                  "\"pipeline\":%d},\"mem_budget_fraction\":%.12f}",
                  model, seq, tensor, pipeline, fraction);
    return buf;
}

/** A tight request: 13B presets at t=2, p=2, seq 4096 and a budget
 *  fraction in [0.50, 0.60), where the knapsack must choose. */
std::string
tightRequest(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    const char *model =
        mix(seed, kPick, stream * 1000003 + i) % 2 ? "llama2-13b"
                                                   : "gpt3-13b";
    return "{\"kind\":\"plan\"," +
           planBody(model, 2, 2, 4096,
                    distinctFraction(seed, stream, i, 0.50, 0.60)) +
           "}";
}

/** A roomy request, also the warm class's cached set: GPT-3 6.7B at
 *  t=4, p=2, where every unit fits at any budget fraction in
 *  [0.70, 0.95). */
std::string
roomyRequest(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    static const int seqs[] = {1024, 2048, 4096};
    const int seq = seqs[mix(seed, kPick, stream * 1000003 + i) % 3];
    return "{\"kind\":\"plan\"," +
           planBody("gpt3-6.7b", 4, 2, seq,
                    distinctFraction(seed, stream, i, 0.70, 0.95)) +
           "}";
}

/** Base b of the replan class: a tight 13B plan at p=4, seq 2048. */
std::string
replanBaseBody(std::uint64_t seed, std::uint64_t b)
{
    return planBody(b % 2 ? "llama2-13b" : "gpt3-13b", 2, 4, 2048,
                    distinctFraction(seed, kReplanBase, b, 0.55, 0.62));
}

/** A straggler report against one cached base: distinct factor. */
std::string
replanRequest(std::uint64_t seed, std::uint64_t i)
{
    const std::uint64_t pick = mix(seed, kPick, i);
    const std::uint64_t base = pick % kReplanBases;
    const int stage = static_cast<int>((pick >> 8) % 4);
    char fault[160];
    std::snprintf(fault, sizeof(fault),
                  ",\"fault\":{\"straggler_stage\":%d,"
                  "\"straggler_factor\":%.12f}}",
                  stage, 1.2 + 2.8 * distinctFraction(seed, kTimed, i, 0, 1));
    return "{\"kind\":\"replan\"," + replanBaseBody(seed, base) + fault;
}

std::string
warmBase(std::uint64_t seed, std::uint64_t k)
{
    return roomyRequest(seed, kWarmBase, k);
}

/** The i-th timed request of @p cls. */
std::string
timedRequest(PlanClass cls, std::uint64_t seed, std::uint64_t i)
{
    switch (cls) {
      case PlanClass::Tight:
        return tightRequest(seed, kTimed, i);
      case PlanClass::Roomy:
        return roomyRequest(seed, kTimed, i);
      case PlanClass::Warm:
        return warmBase(seed, mix(seed, kPick, i) % kWarmSet);
      case PlanClass::Replan:
        return replanRequest(seed, i);
    }
    return "";
}

bool
isOk(const std::string &response)
{
    return response.rfind("{\"ok\":true", 0) == 0;
}

/** A started server plus its connected client. */
struct Service
{
    std::unique_ptr<PlanServer> server;
    std::unique_ptr<PlanClient> client;
    /** Warm class: cold response bytes of each cached request. */
    std::vector<std::string> warmExpected;
    /** Replan class: cached base plan of each base index. */
    std::vector<std::string> baseResponses;
};

/** Send @p line on @p client; an error becomes the response text. */
std::string
send(PlanClient &client, const std::string &line)
{
    ParseResult<std::string> response = client.request(line);
    return response.ok() ? std::move(response).value()
                         : "transport error: " + response.error();
}

/**
 * One set-up: server start, client connect and the class's warm-up
 * (cache population for warm and replan, a few untimed cold requests
 * for tight and roomy).
 */
ParseStatus
setUp(PlanClass cls, std::uint64_t seed, int rep, Service &svc)
{
    obs::ScopedSpan span("bench.setup");
    PlanServerOptions opts;
    opts.threads = 1;
    svc.server = std::make_unique<PlanServer>(opts);
    const ParseStatus started = svc.server->start();
    if (!started.ok())
        return ParseStatus::failure(started.error());
    svc.client = std::make_unique<PlanClient>();
    const ParseStatus connected =
        svc.client->connect("127.0.0.1", svc.server->port());
    if (!connected.ok())
        return ParseStatus::failure(connected.error());
    std::vector<std::string> warmup;
    const std::uint64_t base = static_cast<std::uint64_t>(rep) * 100;
    switch (cls) {
      case PlanClass::Tight:
        for (std::uint64_t k = 0; k < 2; ++k)
            warmup.push_back(tightRequest(seed, kWarmup, base + k));
        break;
      case PlanClass::Roomy:
        for (std::uint64_t k = 0; k < 16; ++k)
            warmup.push_back(roomyRequest(seed, kWarmup, base + k));
        break;
      case PlanClass::Warm:
        for (std::uint64_t k = 0; k < kWarmSet; ++k)
            warmup.push_back(warmBase(seed, k));
        break;
      case PlanClass::Replan:
        for (std::uint64_t b = 0; b < kReplanBases; ++b)
            warmup.push_back("{\"kind\":\"plan\"," +
                             replanBaseBody(seed, b) + "}");
        break;
    }
    std::vector<std::string> responses;
    for (const std::string &line : warmup) {
        responses.push_back(send(*svc.client, line));
        if (!isOk(responses.back()))
            return ParseStatus::failure("warm-up: " + responses.back());
    }
    if (cls == PlanClass::Warm)
        svc.warmExpected = std::move(responses);
    if (cls == PlanClass::Replan)
        svc.baseResponses = std::move(responses);
    return parseOk();
}

void
tearDown(Service &svc)
{
    if (svc.client)
        svc.client->close();
    svc.server->stop();
}

/**
 * Reset the process's peak resident set (VmHWM) to its current size.
 * @return whether the kernel accepted the reset
 */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return clear.good();
}

/** The process's peak resident set (VmHWM) in MiB; 0 if unknown. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

/** Client-side outcome of one timed window. */
struct Window
{
    /** Latencies of untraced requests (all requests when untraced),
     *  raw and at the nominal host speed. */
    SpeedScaled latency{1};
    /** Latencies of traced requests. */
    std::vector<double> tracedMs;
    /** Untraced latencies among the first kTracedRequests, the
     *  baseline tracedMs is compared with. */
    std::vector<double> pairedMs;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** Peak resident MiB once kMemoryRequests requests completed. */
    double peakMiB = 0;
    /** (index, response) of the first kKeptResponses requests. */
    std::vector<std::pair<std::uint64_t, std::string>> kept;
    std::vector<std::string> failures;
};

/**
 * Drive the server from the closed-loop client until the window
 * closes, moving the process to the next of @p cpus after each
 * calibration burst. With @p traced set, every odd request among the
 * first kTracedRequests records a client-side span.
 */
Window
timedWindow(PlanClass cls, std::uint64_t seed, Service &svc,
            CpuRotation &cpus, double seconds, bool traced)
{
    Window window;
    cpus.next();
    const double start = now();
    for (std::uint64_t i = 0;
         keepTiming(start, seconds, i, kMemoryRequests); ++i) {
        const std::string line = timedRequest(cls, seed, i);
        const bool early = i < kTracedRequests;
        const bool trace_this = traced && early && i % 2 == 1;
        std::string response;
        const double t0 = now();
        {
            obs::ScopedRegistry scope(trace_this ? obs::current() : nullptr);
            obs::ScopedSpan span("bench.request");
            response = send(*svc.client, line);
        }
        const double ms = (now() - t0) * 1e3;
        if (trace_this) {
            window.tracedMs.push_back(ms);
        } else {
            if (window.latency.add(ms))
                cpus.next();
            if (early)
                window.pairedMs.push_back(ms);
        }
        if (i + 1 == kMemoryRequests)
            window.peakMiB = peakRssMiB();
        ++window.attempted;
        const bool answered = isOk(response);
        const bool ok =
            answered &&
            (cls != PlanClass::Warm ||
             response == svc.warmExpected[mix(seed, kPick, i) % kWarmSet]);
        if (!ok) {
            ++window.failed;
            if (window.failures.size() < 3)
                window.failures.push_back(
                    answered ? "warm response differs from its cold bytes"
                             : response.substr(0, 200));
        }
        if (i < kKeptResponses)
            window.kept.emplace_back(i, std::move(response));
    }
    window.latency.flush();
    return window;
}

/** The plan inside a plan or replan response. */
ParseResult<PipelinePlan>
responsePlan(const std::string &response)
{
    const ParseResult<JsonValue> root = JsonValue::tryParse(response);
    if (!root.ok())
        return ParseResult<PipelinePlan>::failure(root.error());
    const JsonValue &doc = root.value();
    if (doc.contains("plan"))
        return tryPlanFromJson(doc.at("plan"));
    if (doc.contains("degraded_plan") &&
        doc.at("degraded_plan").contains("plan"))
        return tryPlanFromJson(doc.at("degraded_plan").at("plan"));
    return ParseResult<PipelinePlan>::failure("no plan in response");
}

double
planPeakMiB(const PipelinePlan &plan)
{
    Bytes peak = 0;
    for (const StagePlan &sp : plan.stages)
        peak = std::max(peak, sp.memPeak);
    return static_cast<double>(peak) / (1024.0 * 1024.0);
}

/** Median microseconds of @p fn over ~0.2 s. */
double
medianUs(const std::function<void()> &fn)
{
    std::vector<double> samples;
    const double start = now();
    while (samples.size() < 5 ||
           (now() - start < 0.2 && samples.size() < 5000)) {
        const double t0 = now();
        fn();
        samples.push_back((now() - t0) * 1e6);
    }
    return median(samples);
}

/**
 * Phase-by-phase re-solve of a window's first cold requests of class
 * @p cls, in the service's own order: parse, buildProfiledModel, the partition DP
 * on a fresh StageCostCalculator (knapsacks included), the same DP
 * on the now-warm calculator (knapsacks memoised away), render. The
 * knapsack's share is the first solve minus the second.
 */
void
plannerSplit(PlanClass cls, std::uint64_t seed, const Window &window,
             Report &report)
{
    std::vector<double> parse_us, profile_ms, knapsack_ms, partition_ms,
        render_us, runs, cells, transitions, iso;
    double knapsack_total = 0, phase_total = 0;
    for (const auto &[index, response] : window.kept) {
        if (parse_us.size() >= kSplitRequests || !isOk(response))
            continue;
        const std::string line = timedRequest(cls, seed, index);
        ParseResult<ServiceRequest> parsed =
            ParseResult<ServiceRequest>::failure("");
        double t0 = now();
        {
            obs::ScopedSpan span("bench.parse_request");
            parsed = tryServiceRequestFromJsonString(line);
        }
        const double parse = now() - t0;
        const ParseResult<PipelinePlan> plan = responsePlan(response);
        if (!parsed.ok() || !plan.ok())
            continue;
        const PlanRequest &req = parsed.value().plan;

        obs::Registry *trace = obs::current();
        obs::Registry counters;
        obs::ScopedRegistry scope(&counters);
        t0 = now();
        const ProfiledModel pm = [&] {
            obs::ScopedSpan span("bench.build_profiled_model");
            return buildProfiledModel(req.modelConfig(), req.train,
                                      req.par, req.clusterSpec());
        }();
        const double profile = now() - t0;
        StageCostOptions opts;
        opts.memBudgetFraction = req.memBudgetFraction;
        const int p = pm.par.pipeline;
        const int n = pm.train.microBatches(pm.par);
        StageCostCalculator calc(pm, p, n, opts);
        t0 = now();
        {
            obs::ScopedSpan span("bench.partition_dp_cold");
            (void)solveAdaptivePartition(calc, pm.numLayers(), p, n);
        }
        const double cold = now() - t0;
        runs.push_back(
            static_cast<double>(counters.counter("recompute_dp.runs")));
        cells.push_back(
            static_cast<double>(counters.counter("recompute_dp.cells")));
        transitions.push_back(static_cast<double>(
            counters.counter("partition_dp.transitions")));
        const double lookups =
            static_cast<double>(calc.cacheHits() + calc.evaluations());
        iso.push_back(lookups > 0 ? calc.cacheHits() / lookups : 0);
        t0 = now();
        {
            obs::ScopedSpan span("bench.partition_dp_warm");
            (void)solveAdaptivePartition(calc, pm.numLayers(), p, n);
        }
        const double warm = now() - t0;
        t0 = now();
        {
            obs::ScopedSpan span("bench.render");
            JsonValue envelope = successEnvelope("plan");
            envelope.set("plan", planToJson(plan.value()));
            (void)envelope.dump(0);
        }
        const double render = now() - t0;
        if (trace)
            trace->merge(counters);

        // Without knapsack runs the cold-minus-warm difference is the
        // cost-table evaluation alone, which is not knapsack time.
        const double knapsack =
            runs.back() > 0 ? std::max(0.0, cold - warm) : 0.0;
        parse_us.push_back(parse * 1e6);
        profile_ms.push_back(profile * 1e3);
        knapsack_ms.push_back(knapsack * 1e3);
        partition_ms.push_back(warm * 1e3);
        render_us.push_back(render * 1e6);
        knapsack_total += knapsack;
        phase_total += parse + profile + cold + render;
    }
    const std::int64_t n = static_cast<std::int64_t>(parse_us.size());
    report.set("service.parse_us", median(parse_us), n);
    report.set("profile.build_ms", median(profile_ms), n);
    report.set("stage_cost.knapsack_ms", median(knapsack_ms), n);
    report.set("partition_dp.ms", median(partition_ms), n);
    report.set("service.render_us", median(render_us), n);
    report.set("recompute_dp.runs", median(runs), n);
    report.set("recompute_dp.cells", median(cells), n);
    report.set("partition_dp.transitions", median(transitions), n);
    report.set("stage_cost.iso_hit_ratio", median(iso), n);
    report.set("plan.knapsack_share",
               phase_total > 0 ? knapsack_total / phase_total : 0, n);
}

/** Incremental replanning of a window's first fault reports, against
 *  the server's cached bases and its shared knapsack memo. */
void
replanSplit(std::uint64_t seed, const Window &window, Service &svc,
            Report &report)
{
    std::vector<double> parse_us, replan_ms;
    for (const auto &[index, response] : window.kept) {
        if (replan_ms.size() >= kSplitRequests || !isOk(response))
            continue;
        const std::string line = timedRequest(PlanClass::Replan, seed,
                                              index);
        double t0 = now();
        const ParseResult<ServiceRequest> parsed =
            tryServiceRequestFromJsonString(line);
        parse_us.push_back((now() - t0) * 1e6);
        const std::uint64_t base = mix(seed, kPick, index) % kReplanBases;
        const ParseResult<PipelinePlan> base_plan =
            responsePlan(svc.baseResponses[base]);
        if (!parsed.ok() || !base_plan.ok())
            continue;
        const PlanRequest &req = parsed.value().plan;
        const ProfiledModel pm = buildProfiledModel(
            req.modelConfig(), req.train, req.par, req.clusterSpec());
        StageCostOptions opts;
        opts.memBudgetFraction = req.memBudgetFraction;
        opts.knapsackMemo = &svc.server->service().memo();
        t0 = now();
        {
            obs::ScopedSpan span("bench.replan_degraded_incremental");
            (void)replanDegradedIncremental(pm, parsed.value().fault,
                                            base_plan.value(), opts);
        }
        replan_ms.push_back((now() - t0) * 1e3);
    }
    const std::int64_t n = static_cast<std::int64_t>(replan_ms.size());
    report.set("service.parse_us", median(parse_us), n);
    report.set("robust.replan_ms", median(replan_ms), n);
}

/** Cache-hit path without the socket: transport is the rest. */
void
warmSplit(std::uint64_t seed, const Window &window, Service &svc,
          Report &report)
{
    PlanService &service = svc.server->service();
    std::uint64_t k = 0;
    const double hit_us = medianUs([&] {
        (void)service.handleLine(warmBase(seed, k++ % kWarmSet));
    });
    const std::string line = warmBase(seed, 0);
    const double parse_us = medianUs(
        [&] { (void)tryServiceRequestFromJsonString(line); });
    const double tcp_us = median(window.latency.rawMs()) * 1e3;
    report.set("service.handle_hit_us", hit_us);
    report.set("service.parse_us", parse_us);
    report.set("service.transport_us", std::max(0.0, tcp_us - hit_us),
               static_cast<std::int64_t>(window.latency.rawMs().size()));
}

} // namespace

bool
isPlanWorkload(const std::string &name)
{
    return classOf(name).has_value();
}

void
runPlanWorkload(const RunArgs &args, Report &report)
{
    const PlanClass cls = *classOf(args.workload);
    CpuRotation cpus;
    obs::Registry trace;
    std::optional<obs::ScopedRegistry> tracing;
    if (args.trace)
        tracing.emplace(&trace);

    std::vector<double> setup_s;
    Service service;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (service.server)
            tearDown(service);
        service = Service{};
        cpus.next();
        const double t0 = now();
        const ParseStatus ready = setUp(cls, args.seed, rep, service);
        setup_s.push_back(scaledSetupSeconds(now() - t0, 1));
        if (!ready.ok()) {
            report.fail("set-up failed: " + ready.error());
            report.attempt(false);
            if (service.server)
                tearDown(service);
            return;
        }
    }
    report.note(args.workload +
                ": 1 closed-loop client, 1-worker PlanServer, the process "
                "moved over " +
                std::to_string(cpus.size()) +
                " vCPU(s) in turn, one per calibration burst");
    report.note("first request: " + timedRequest(cls, args.seed, 0));

    PlanService &plans = service.server->service();
    const PlanCacheStats cache_before = plans.cache().stats();
    const KnapsackMemoStats memo_before = plans.memo().stats();

    // The process's own memory (server, plan cache, knapsack memo,
    // client) from the resident set set-up leaves, with its freed heap
    // returned first, to the kMemoryRequests-th response.
    malloc_trim(0);
    if (!resetPeakRss())
        report.note("VmHWM could not be reset: peak_mem_mib covers the "
                    "whole process, set-up included");
    const Window window = timedWindow(cls, args.seed, service, cpus,
                                      args.seconds, args.trace);
    if (window.peakMiB == 0)
        report.fail("the window ended before " +
                    std::to_string(kMemoryRequests) + " requests");
    for (std::int64_t i = 0; i < window.attempted; ++i)
        report.attempt(i >= window.failed);
    for (const std::string &f : window.failures)
        report.fail(f);

    std::vector<double> peaks;
    std::vector<double> log_iter;
    for (const auto &kept : window.kept) {
        const ParseResult<PipelinePlan> plan = responsePlan(kept.second);
        if (!plan.ok())
            continue;
        peaks.push_back(planPeakMiB(plan.value()));
        log_iter.push_back(std::log(plan.value().timing.total));
    }
    const std::vector<double> &scaled = window.latency.scaledMs();
    const std::int64_t n = static_cast<std::int64_t>(scaled.size());
    const double latency_ms = interquartileMean(scaled);
    if (!args.trace) {
        report.note("predicted plan memory (informational): median max "
                    "StagePlan::memPeak " +
                    std::to_string(median(peaks)) + " MiB over " +
                    std::to_string(peaks.size()) + " responses");
        report.note(speedLine(window.latency));
        report.set("throughput", latency_ms > 0 ? 1e3 / latency_ms : 0, n);
        report.set("latency_ms", latency_ms, n);
        report.note(latencyLine(scaled));
        report.set("peak_mem_mib", window.peakMiB);
        report.set("setup_s", median(setup_s), kSetupReps);
        tearDown(service);
        return;
    }

    report.set("trace.overhead_share",
               window.pairedMs.empty()
                   ? 0
                   : median(window.tracedMs) / median(window.pairedMs) - 1,
               static_cast<std::int64_t>(window.tracedMs.size()));
    double log_sum = 0;
    for (const double v : log_iter)
        log_sum += v;
    report.set("plan.iter_s_geomean",
               log_iter.empty() ? 0 : std::exp(log_sum / log_iter.size()),
               static_cast<std::int64_t>(log_iter.size()));

    const PlanCacheStats cache_after = plans.cache().stats();
    const KnapsackMemoStats memo_after = plans.memo().stats();
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    report.set("plan_cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0);
    report.set("plan_cache.bytes", static_cast<double>(cache_after.bytes));
    const double memo_hits =
        static_cast<double>(memo_after.hits - memo_before.hits);
    const double memo_misses =
        static_cast<double>(memo_after.misses - memo_before.misses);
    report.set("stage_cost.memo_hit_ratio",
               memo_hits + memo_misses > 0
                   ? memo_hits / (memo_hits + memo_misses)
                   : 0);

    switch (cls) {
      case PlanClass::Tight:
      case PlanClass::Roomy:
        plannerSplit(cls, args.seed, window, report);
        break;
      case PlanClass::Warm:
        warmSplit(args.seed, window, service, report);
        break;
      case PlanClass::Replan:
        replanSplit(args.seed, window, service, report);
        break;
    }

    tearDown(service);
    // The server's counters, and its first spans: one span per solve
    // would make a long run's trace hundreds of megabytes.
    const obs::Registry &server = service.server->metrics();
    for (const auto &[name, value] : server.counters())
        trace.add(name, value);
    for (std::size_t i = 0;
         i < server.spans().size() && i < kTracedRequests; ++i)
        trace.record(server.spans()[i]);
    writeChromeTrace(args, trace, report);
}

} // namespace perfbench
