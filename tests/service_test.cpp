/**
 * @file
 * Tests for the plan service: protocol parsing and fingerprinting,
 * the LRU response cache, the cross-request knapsack memo, warm/cold
 * determinism (byte-identical responses, >= 10x faster warm), replan
 * equivalence with a direct replanDegraded() call, and the TCP server
 * under concurrent clients (cold, warm and replan sweeps, checked
 * against the server's own stats).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/knapsack_memo.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "robust/replan_io.h"
#include "service/client.h"
#include "service/handlers.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "obs/macros.h"
#include "service/server.h"
#include "util/canonical_json.h"
#include "util/json.h"

namespace adapipe {
namespace {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A fast-to-plan request against the test model. */
std::string
tinyRequestLine(const std::string &kind, int pipeline = 2,
                int seq = 128, const std::string &fault = "")
{
    return std::string("{\"kind\": \"") + kind +
           "\", \"plan\": {\"model\": \"tiny-test\", "
           "\"cluster\": {\"name\": \"a\", \"nodes\": 1}, "
           "\"train\": {\"seq_len\": " + std::to_string(seq) +
           ", \"global_batch\": 8}, "
           "\"parallel\": {\"tensor\": 1, \"pipeline\": " +
           std::to_string(pipeline) + "}}" +
           (fault.empty() ? "" : ", \"fault\": " + fault) + "}";
}

/**
 * A realistically sized request. A @p budget_fraction of 0 keeps the
 * wire default of mem_budget_fraction.
 */
std::string
mediumRequestLine(const std::string &kind, int pipeline = 2,
                  const std::string &fault = "", int seq = 2048,
                  double budget_fraction = 0)
{
    return std::string("{\"kind\": \"") + kind +
           "\", \"plan\": {\"model\": \"gpt3-13b\", "
           "\"cluster\": {\"name\": \"a\", \"nodes\": 2}, "
           "\"train\": {\"seq_len\": " + std::to_string(seq) +
           ", \"global_batch\": 32}, "
           "\"parallel\": {\"tensor\": 4, \"pipeline\": " +
           std::to_string(pipeline) + "}" +
           (budget_fraction > 0
                ? ", \"mem_budget_fraction\": " +
                      std::to_string(budget_fraction)
                : "") +
           "}" + (fault.empty() ? "" : ", \"fault\": " + fault) + "}";
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServiceProtocol, MinimalRequestsParseWithDefaults)
{
    const ParseResult<ServiceRequest> stats =
        tryServiceRequestFromJsonString("{\"kind\": \"stats\"}");
    ASSERT_TRUE(stats.ok()) << stats.error();
    EXPECT_EQ(stats.value().kind, RequestKind::Stats);

    // An empty problem object means "all wire defaults".
    const ParseResult<ServiceRequest> plan =
        tryServiceRequestFromJsonString(
            "{\"kind\": \"plan\", \"plan\": {}}");
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_EQ(plan.value().plan.model, "gpt3-13b");
    EXPECT_EQ(plan.value().plan.scheduleFamily, "1f1b");

    // A plan-carrying kind without the problem object is an error.
    const ParseResult<ServiceRequest> bare =
        tryServiceRequestFromJsonString("{\"kind\": \"plan\"}");
    ASSERT_FALSE(bare.ok());
    EXPECT_NE(bare.error().find("plan"), std::string::npos)
        << bare.error();
}

TEST(ServiceProtocol, FingerprintIgnoresKeyOrderAndSpelledDefaults)
{
    // The same problem three ways: minimal, defaults spelled out, and
    // with the keys permuted. All must share one cache identity.
    const ParseResult<ServiceRequest> minimal =
        tryServiceRequestFromJsonString(tinyRequestLine("plan"));
    const ParseResult<ServiceRequest> spelled =
        tryServiceRequestFromJsonString(
            "{\"kind\": \"plan\", \"plan\": {"
            "\"cluster\": {\"nodes\": 1, \"name\": \"a\"}, "
            "\"model\": \"tiny-test\", "
            "\"method\": \"adapipe\", "
            "\"schedule\": {\"family\": \"1f1b\"}, "
            "\"parallel\": {\"pipeline\": 2, \"tensor\": 1, "
            "\"data\": 1}, "
            "\"train\": {\"global_batch\": 8, \"seq_len\": 128, "
            "\"micro_batch\": 1}}}");
    ASSERT_TRUE(minimal.ok()) << minimal.error();
    ASSERT_TRUE(spelled.ok()) << spelled.error();
    EXPECT_EQ(requestFingerprint(minimal.value().plan),
              requestFingerprint(spelled.value().plan));

    // A different problem must not collide.
    const ParseResult<ServiceRequest> other =
        tryServiceRequestFromJsonString(tinyRequestLine("plan", 4));
    ASSERT_TRUE(other.ok()) << other.error();
    EXPECT_NE(requestFingerprint(minimal.value().plan),
              requestFingerprint(other.value().plan));
}

TEST(ServiceProtocol, RejectsUnknownKindWithFieldPath)
{
    const ParseResult<ServiceRequest> r =
        tryServiceRequestFromJsonString("{\"kind\": \"frobnicate\"}");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("service.kind"), std::string::npos)
        << r.error();
}

TEST(ServiceProtocol, RejectsFaultOnNonReplanRequest)
{
    const ParseResult<ServiceRequest> r =
        tryServiceRequestFromJsonString(
            mediumRequestLine("plan", 2,
                              "{\"straggler_stage\": 0, "
                              "\"straggler_factor\": 2.0}"));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("fault"), std::string::npos)
        << r.error();
}

// ---------------------------------------------------------------------------
// Response cache

TEST(PlanCacheLru, EvictsLeastRecentlyUsedUnderByteBudget)
{
    // Each entry is 2 + 38 = 40 bytes; three fit a 100-byte budget
    // only by evicting the oldest.
    PlanCache cache(100);
    const std::string v(38, 'x');
    cache.put("a:", v);
    cache.put("b:", v);
    cache.put("c:", v);
    std::string out;
    EXPECT_FALSE(cache.get("a:", &out));
    EXPECT_TRUE(cache.get("b:", &out));
    EXPECT_TRUE(cache.get("c:", &out));
    EXPECT_EQ(out, v);
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_EQ(stats.entries, 2);
    EXPECT_LE(stats.bytes, stats.capacityBytes);
}

TEST(PlanCacheLru, GetRefreshesRecency)
{
    PlanCache cache(100);
    const std::string v(38, 'x');
    cache.put("a:", v);
    cache.put("b:", v);
    std::string out;
    ASSERT_TRUE(cache.get("a:", &out)); // "a:" is now the MRU ...
    cache.put("c:", v);                 // ... so "b:" is evicted.
    EXPECT_TRUE(cache.get("a:", &out));
    EXPECT_FALSE(cache.get("b:", &out));
}

TEST(PlanCacheLru, OversizedEntryIsNotCached)
{
    PlanCache cache(16);
    cache.put("k", std::string(64, 'x'));
    std::string out;
    EXPECT_FALSE(cache.get("k", &out));
    EXPECT_EQ(cache.stats().entries, 0);
}

TEST(PlanCacheDisk, DocumentRoundTripCountsDiskHits)
{
    const std::string dir = ::testing::TempDir();
    const std::string fp = "cafebabe12345678";
    std::remove((dir + "/" + fp + ".json").c_str());
    {
        PlanCache cache(1 << 20, dir);
        EXPECT_TRUE(cache.putDocument(fp, "{\"x\": 1}\n"));
    }
    // A fresh cache (fresh process, conceptually) finds it on disk.
    PlanCache cache(1 << 20, dir);
    std::string doc;
    ASSERT_TRUE(cache.getDocument(fp, &doc));
    EXPECT_EQ(doc, "{\"x\": 1}\n");
    EXPECT_EQ(cache.stats().diskHits, 1);
    EXPECT_FALSE(cache.getDocument("0000000000000000", &doc));
    std::remove((dir + "/" + fp + ".json").c_str());
}

// ---------------------------------------------------------------------------
// Knapsack memo

TEST(KnapsackMemoTest, RepeatSubproblemHits)
{
    std::vector<UnitProfile> units(4);
    for (std::size_t i = 0; i < units.size(); ++i) {
        units[i].timeFwd = 1e-3 * static_cast<double>(i + 1);
        units[i].memSaved = Bytes{1} << (20 + i);
    }
    units[0].alwaysSaved = true;

    KnapsackMemo memo;
    bool hit = true;
    const RecomputePlanResult first =
        memo.solve(units, Bytes{4} << 20, {}, &hit);
    EXPECT_FALSE(hit);
    const RecomputePlanResult second =
        memo.solve(units, Bytes{4} << 20, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.saved, second.saved);
    EXPECT_EQ(first.savedBytes, second.savedBytes);

    // A different budget is a different subproblem.
    memo.solve(units, Bytes{2} << 20, {}, &hit);
    EXPECT_FALSE(hit);

    const KnapsackMemoStats stats = memo.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.entries, 2);

    memo.clear();
    EXPECT_EQ(memo.stats().entries, 0);
}

TEST(KnapsackMemoTest, MemoHitsGrowMonotonicallyAcrossServiceSweep)
{
    PlanService service;
    std::int64_t last_hits = 0;
    std::int64_t last_misses = 0;

    // A pipeline-depth sweep followed by fault reports revisits
    // identical (stage size, budget) knapsack subproblems; later
    // requests must hit the memo. Counters only ever grow. The search
    // solves only the knapsacks that can change a plan, so the sweep
    // needs requests whose chosen stages recompute, healthy and
    // straggling alike: seq 16384 at half the device memory.
    const std::string sweep[] = {
        mediumRequestLine("plan", 2, "", 16384, 0.5),
        mediumRequestLine("plan", 4, "", 16384, 0.5),
        mediumRequestLine("replan", 2,
                          "{\"straggler_stage\": 0, "
                          "\"straggler_factor\": 2.0}",
                          16384, 0.5),
        mediumRequestLine("replan", 2,
                          "{\"straggler_stage\": 0, "
                          "\"straggler_factor\": 3.0}",
                          16384, 0.5),
    };
    for (std::size_t k = 0; k < std::size(sweep); ++k) {
        const std::string response = service.handleLine(sweep[k]);
        ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
        const KnapsackMemoStats stats = service.memo().stats();
        if (k == 0) {
            // Precondition: the first plan already runs the knapsack.
            ASSERT_GT(stats.misses, 0)
                << "the first plan never reaches the knapsack memo";
        }
        EXPECT_GE(stats.hits, last_hits);
        EXPECT_GE(stats.misses, last_misses);
        last_hits = stats.hits;
        last_misses = stats.misses;
    }
    const KnapsackMemoStats final_stats = service.memo().stats();
    EXPECT_GT(final_stats.hits, 0);
    EXPECT_GT(final_stats.misses, 0);
    EXPECT_GT(final_stats.entries, 0);
    // Every miss inserts exactly one entry: a serial sweep never
    // solves the same subproblem twice.
    EXPECT_EQ(final_stats.entries, final_stats.misses);
}

// ---------------------------------------------------------------------------
// Service determinism and latency

TEST(ServiceDeterminism, WarmResponseIsByteIdenticalToCold)
{
    PlanService service;
    for (const char *kind : {"plan", "explain"}) {
        const std::string line = tinyRequestLine(kind);
        const std::string cold = service.handleLine(line);
        const std::string warm = service.handleLine(line);
        ASSERT_EQ(cold.rfind("{\"ok\":true", 0), 0u) << cold;
        EXPECT_EQ(cold, warm) << kind;
    }
    EXPECT_GE(service.cache().stats().hits, 2);
}

TEST(ServiceDeterminism, WarmRequestsAreAtLeastTenTimesFaster)
{
    PlanService service;
    const std::string line = mediumRequestLine("plan");

    const double cold_start = nowUs();
    const std::string cold = service.handleLine(line);
    const double cold_us = nowUs() - cold_start;
    ASSERT_EQ(cold.rfind("{\"ok\":true", 0), 0u) << cold;

    std::vector<double> warm_us;
    for (int i = 0; i < 32; ++i) {
        const double start = nowUs();
        const std::string warm = service.handleLine(line);
        warm_us.push_back(nowUs() - start);
        ASSERT_EQ(warm, cold);
    }
    std::sort(warm_us.begin(), warm_us.end());
    const double warm_median = warm_us[warm_us.size() / 2];
    EXPECT_GE(cold_us, 10 * warm_median)
        << "cold " << cold_us << " us vs warm median " << warm_median
        << " us";
}

TEST(ServiceErrors, BadInputGetsDiagnosticNotAbort)
{
    PlanService service;
    const std::string truncated = service.handleLine("{\"kind\": ");
    EXPECT_EQ(truncated.rfind("{\"ok\":false", 0), 0u) << truncated;

    const std::string bad_model = service.handleLine(
        "{\"kind\": \"plan\", \"plan\": {\"model\": \"bogus\"}}");
    EXPECT_EQ(bad_model.rfind("{\"ok\":false", 0), 0u) << bad_model;
    EXPECT_NE(bad_model.find("service.plan.model"),
              std::string::npos)
        << bad_model;
    // Errors are not cached: the cache only ever holds "ok" lines.
    EXPECT_EQ(service.cache().stats().entries, 0);
}

TEST(ServiceErrors, ShutdownRequestSetsFlag)
{
    PlanService service;
    const std::string r =
        service.handleLine("{\"kind\": \"shutdown\"}");
    EXPECT_EQ(r.rfind("{\"ok\":true", 0), 0u) << r;
    EXPECT_TRUE(service.shutdownRequested());
}

// ---------------------------------------------------------------------------
// Replan

TEST(ServiceReplan, MatchesDirectReplanDegradedCall)
{
    const std::string fault =
        "{\"straggler_stage\": 0, \"straggler_factor\": 2.0}";
    PlanService service;
    const std::string response = service.handleLine(
        mediumRequestLine("replan", 2, fault));
    ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

    const ParseResult<JsonValue> root =
        JsonValue::tryParse(response);
    ASSERT_TRUE(root.ok()) << root.error();
    const ParseResult<DegradedPlanDoc> doc = tryDegradedPlanFromJson(
        root.value().at("degraded_plan"));
    ASSERT_TRUE(doc.ok()) << doc.error();

    // The same replan, directly against the library (no memo).
    const ParseResult<ServiceRequest> request =
        tryServiceRequestFromJsonString(
            mediumRequestLine("replan", 2, fault));
    ASSERT_TRUE(request.ok()) << request.error();
    const PlanRequest &plan_req = request.value().plan;
    const ProfiledModel pm = buildProfiledModel(
        plan_req.modelConfig(), plan_req.train, plan_req.par,
        plan_req.clusterSpec());
    StageCostOptions opts;
    opts.memBudgetFraction = plan_req.memBudgetFraction;
    const ReplanResult direct =
        replanDegraded(pm, request.value().fault, opts);
    ASSERT_TRUE(direct.ok) << direct.reason;

    EXPECT_EQ(planToJsonString(doc.value().plan, 0),
              planToJsonString(direct.plan, 0));
    EXPECT_EQ(doc.value().degradedCapacity,
              direct.degradedCapacity);
}

TEST(ServiceReplan, RoundTripsProvenanceThroughReplanIo)
{
    const std::string fault =
        "{\"straggler_stage\": 1, \"straggler_factor\": 1.5, "
        "\"mem_factor\": 0.9}";
    PlanService service;

    // The healthy plan first, to know the expected provenance.
    const std::string plan_response =
        service.handleLine(mediumRequestLine("plan"));
    ASSERT_EQ(plan_response.rfind("{\"ok\":true", 0), 0u);
    const ParseResult<JsonValue> plan_root =
        JsonValue::tryParse(plan_response);
    ASSERT_TRUE(plan_root.ok());
    const ParseResult<PipelinePlan> base =
        tryPlanFromJson(plan_root.value().at("plan"));
    ASSERT_TRUE(base.ok()) << base.error();

    const std::string response = service.handleLine(
        mediumRequestLine("replan", 2, fault));
    ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    const ParseResult<JsonValue> root =
        JsonValue::tryParse(response);
    ASSERT_TRUE(root.ok());
    const ParseResult<DegradedPlanDoc> doc = tryDegradedPlanFromJson(
        root.value().at("degraded_plan"));
    ASSERT_TRUE(doc.ok()) << doc.error();

    EXPECT_EQ(doc.value().originalFingerprint,
              planFingerprint(base.value()));
    EXPECT_EQ(doc.value().scenario.stragglerStage, 1);
    EXPECT_DOUBLE_EQ(doc.value().scenario.stragglerFactor, 1.5);
    EXPECT_DOUBLE_EQ(doc.value().scenario.memFactor, 0.9);

    // Serialize again and re-parse: provenance survives the
    // round-trip byte-for-byte.
    const ParseResult<DegradedPlanDoc> again =
        tryDegradedPlanFromJsonString(
            degradedPlanToJsonString(doc.value()));
    ASSERT_TRUE(again.ok()) << again.error();
    EXPECT_EQ(again.value().originalFingerprint,
              doc.value().originalFingerprint);
    EXPECT_EQ(planToJsonString(again.value().plan, 0),
              planToJsonString(doc.value().plan, 0));
}

TEST(ServiceReplan, RepliesBypassTheResponseCache)
{
    // Fault reports carry measured factors, so replan responses are
    // not cached: distinct replans leave only their base plans in the
    // cache.
    PlanService service;
    for (const int seq : {64, 128}) {
        for (const char *factor : {"1.5", "2.0", "3.0"}) {
            const std::string response = service.handleLine(
                tinyRequestLine("replan", 2, seq,
                                std::string("{\"straggler_stage\": 0, "
                                            "\"straggler_factor\": ") +
                                    factor + "}"));
            ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u)
                << response;
        }
    }
    EXPECT_EQ(service.cache().stats().entries, 2);

    // A repeated replan is solved again, to the same bytes.
    const std::string line = tinyRequestLine(
        "replan", 2, 64,
        "{\"straggler_stage\": 1, \"straggler_factor\": 2.0}");
    const std::string first = service.handleLine(line);
    ASSERT_EQ(first.rfind("{\"ok\":true", 0), 0u) << first;
    EXPECT_EQ(service.handleLine(line), first);
    EXPECT_EQ(service.cache().stats().entries, 2);
}

// ---------------------------------------------------------------------------
// TCP server

TEST(PlanServerTcp, ConcurrentClientsGetByteIdenticalResponses)
{
    PlanServerOptions opts;
    opts.threads = 4;
    PlanServer server(opts);
    const ParseStatus started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    const int port = server.port();
    ASSERT_GT(port, 0);

    const std::string line = tinyRequestLine("plan");
    constexpr int kClients = 8;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            const ParseResult<std::string> r =
                serviceRequest("127.0.0.1", port, line);
            if (r.ok())
                responses[i] = r.value();
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int i = 0; i < kClients; ++i) {
        ASSERT_FALSE(responses[i].empty()) << "client " << i;
        EXPECT_EQ(responses[i], responses[0]) << "client " << i;
    }
    EXPECT_EQ(responses[0].rfind("{\"ok\":true", 0), 0u)
        << responses[0];

    server.stop();
    // All service.* counters merged from the worker registries.
    EXPECT_GE(server.metrics().counter("service.requests"),
              kClients);
}

/** Send @p lines over 4 client connections at once; response i
 *  answers line i (empty when the request failed). */
std::vector<std::string>
sendConcurrently(int port, const std::vector<std::string> &lines)
{
    std::vector<std::string> responses(lines.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&] {
            PlanClient client;
            if (!client.connect("127.0.0.1", port).ok())
                return;
            for (std::size_t i = next++; i < lines.size(); i = next++) {
                const ParseResult<std::string> r =
                    client.request(lines[i]);
                if (r.ok())
                    responses[i] = r.value();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    return responses;
}

TEST(PlanServerTcp, ConcurrentColdWarmAndReplanSweeps)
{
    // One server, four clients: distinct cold plans, the same requests
    // again warm, then straggler replans against a cached base plan,
    // each with its own factor so none is answered from the cache.
    PlanServerOptions opts;
    opts.threads = 4;
    PlanServer server(opts);
    const ParseStatus started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    const int port = server.port();

    std::vector<std::string> plans;
    for (const int pipeline : {1, 2}) {
        for (const int seq : {64, 128})
            plans.push_back(tinyRequestLine("plan", pipeline, seq));
    }
    std::vector<std::string> replans;
    for (const char *factor : {"1.5", "2.0", "3.0"}) {
        replans.push_back(tinyRequestLine(
            "replan", 2, 128,
            std::string("{\"straggler_stage\": 0, "
                        "\"straggler_factor\": ") +
                factor + "}"));
    }

    const std::vector<std::string> cold = sendConcurrently(port, plans);
    const std::vector<std::string> warm = sendConcurrently(port, plans);
    const std::vector<std::string> replanned =
        sendConcurrently(port, replans);
    for (const std::vector<std::string> *sweep :
         {&cold, &warm, &replanned}) {
        for (const std::string &response : *sweep)
            EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    }
    EXPECT_EQ(warm, cold);

    const ParseResult<std::string> stats =
        serviceRequest("127.0.0.1", port, "{\"kind\": \"stats\"}");
    ASSERT_TRUE(stats.ok()) << stats.error();
    const ParseResult<JsonValue> doc = JsonValue::tryParse(stats.value());
    ASSERT_TRUE(doc.ok()) << doc.error();
    EXPECT_GE(doc.value().at("cache").at("hits").asInteger(), 1)
        << stats.value();
    EXPECT_EQ(doc.value().at("requests").at("replan").asInteger(),
              static_cast<std::int64_t>(replans.size()))
        << stats.value();
    server.stop();
}

TEST(PlanServerTcp, OneConnectionServesManyRequestsThenShutdown)
{
    PlanServer server;
    ASSERT_TRUE(server.start().ok());

    PlanClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server.port()).ok());
    const ParseResult<std::string> plan =
        client.request(tinyRequestLine("plan"));
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_EQ(plan.value().rfind("{\"ok\":true", 0), 0u);
    const ParseResult<std::string> explain =
        client.request(tinyRequestLine("explain"));
    ASSERT_TRUE(explain.ok()) << explain.error();
    const ParseResult<std::string> stats =
        client.request("{\"kind\": \"stats\"}");
    ASSERT_TRUE(stats.ok()) << stats.error();
    EXPECT_NE(stats.value().find("\"cache\""), std::string::npos)
        << stats.value();
    const ParseResult<std::string> shutdown =
        client.request("{\"kind\": \"shutdown\"}");
    ASSERT_TRUE(shutdown.ok()) << shutdown.error();
    client.close();

    server.wait(); // Returns once the shutdown request lands.
    EXPECT_TRUE(server.service().shutdownRequested());
}

} // namespace
} // namespace adapipe
