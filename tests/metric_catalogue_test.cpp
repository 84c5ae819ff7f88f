/**
 * @file
 * Holds the metric catalogue in docs/observability.md to the names the
 * program emits, in both directions.
 *
 * One small scenario per emitter family (planners, strategy sweep,
 * simulator, replanner, runtime, recovery, plan service and the bench
 * harness) runs against its own registry, serialised through the
 * JSON-lines sink and parsed back. Every emitted counter, gauge and
 * span must match exactly one catalogue row of its kind, and every
 * row must be emitted by some scenario. In a row, <s>, <c> and <i>
 * match a decimal integer, and a per-chunk gauge
 * runtime.stage.<s>.chunk.<c>.<g> matches the row
 * runtime.stage.<s>.<g>.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "core/planner.h"
#include "core/profiled_model.h"
#include "core/recompute_dp.h"
#include "core/strategy_search.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "obs/sinks.h"
#include "robust/replan.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/recovery.h"
#include "service/handlers.h"
#include "sim/interleaved_planner.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "util/json.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

/** One catalogue row. */
struct Row
{
    std::string name;
    std::string kind;
    std::regex pattern;
};

/** One emitted metric and the scenario that emitted it. */
struct Emission
{
    std::string scenario;
    std::string kind;
    std::string name;
};

std::string
trim(const std::string &s)
{
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/**
 * The rows of the "Metric catalogue" table. A row whose name cell is
 * not one backquoted name, or whose kind is not counter, gauge or
 * span, is a test failure.
 */
std::vector<Row>
catalogue()
{
    std::ifstream in(ADAPIPE_CATALOGUE_PATH);
    EXPECT_TRUE(in.good()) << "cannot read " << ADAPIPE_CATALOGUE_PATH;
    const std::regex one_name("`([a-z0-9_]+(\\.([a-z0-9_]+|<[sci]>))+)`");
    std::vector<Row> rows;
    bool in_section = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            in_section = line == "## Metric catalogue";
        if (!in_section || line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::istringstream split(line.substr(1));
        std::string cell;
        while (std::getline(split, cell, '|'))
            cells.push_back(trim(cell));
        std::smatch m;
        if (cells.size() < 3 || !std::regex_match(cells[0], m, one_name) ||
            (cells[1] != "counter" && cells[1] != "gauge" &&
             cells[1] != "span")) {
            ADD_FAILURE() << "malformed catalogue row: " << line;
            continue;
        }
        std::string pattern;
        for (const char c : m[1].str())
            pattern += c == '.' ? std::string("\\.") : std::string(1, c);
        for (const char *ph : {"<s>", "<c>", "<i>"}) {
            for (std::size_t at = pattern.find(ph);
                 at != std::string::npos; at = pattern.find(ph))
                pattern.replace(at, 3, "[0-9]+");
        }
        rows.push_back({m[1].str(), cells[1], std::regex(pattern)});
    }
    return rows;
}

/** Run @p body against a fresh registry installed on this thread and
 *  return what it emitted, read back through the JSON-lines sink. */
std::vector<Emission>
collect(const std::string &scenario,
        const std::function<void(obs::Registry &)> &body)
{
    obs::Registry reg;
    {
        obs::ScopedRegistry scope(&reg);
        body(reg);
    }
    std::vector<Emission> out;
    std::istringstream lines(obs::toJsonLines(reg));
    std::string line;
    while (std::getline(lines, line)) {
        const ParseResult<JsonValue> v = JsonValue::tryParse(line);
        if (!v.ok()) {
            ADD_FAILURE() << scenario << ": bad JSON line " << line;
            continue;
        }
        out.push_back({scenario, v.value().at("type").asString(),
                       v.value().at("name").asString()});
    }
    return out;
}

/** Tiny model on 2x2x2 devices of 6 MiB: tight enough that the
 *  knapsack runs and some strategies run out of memory. */
ModelConfig
searchModel(TrainConfig &train, ClusterSpec &cluster, ParallelConfig &par)
{
    train.seqLen = 2048;
    train.globalBatch = 8;
    cluster = clusterA(1);
    cluster.device.memCapacity = MiB(6);
    cluster.device.reservedBytes = 0;
    par.tensor = 2;
    par.pipeline = 2;
    par.data = 2;
    return tinyTestModel();
}

ProfiledModel
searchProfile()
{
    TrainConfig train;
    ClusterSpec cluster;
    ParallelConfig par;
    const ModelConfig model = searchModel(train, cluster, par);
    return buildProfiledModel(model, train, par, cluster);
}

void
planners(obs::Registry &reg)
{
    const ProfiledModel pm = searchProfile();
    for (const PlanMethod m :
         {PlanMethod::AdaPipe, PlanMethod::EvenPartition,
          PlanMethod::DappleFull, PlanMethod::DappleNon,
          PlanMethod::DappleSelective})
        makePlan(pm, m);
    StageCostOptions starved;
    starved.memCapacityOverride = KiB(64);
    EXPECT_FALSE(makePlan(pm, PlanMethod::AdaPipe, starved).ok);
    makeInterleavedPlan(pm, PlanMethod::AdaPipe, 2);
    makeOverlapPlan(pm, PlanMethod::AdaPipe, 1);
    StageCostOptions offload;
    offload.offload.enabled = true;
    makeBestSchedulePlan(pm, PlanMethod::AdaPipe, offload);
    // A budget that holds every unit takes the solver's fast path; a
    // bubble that hides every replay saves nothing optional.
    solveRecomputeKnapsack(pm.layers[1].units, std::int64_t{1} << 40);
    RecomputeDpOptions hidden;
    hidden.overlapBubble = 1e9;
    solveRecomputeKnapsack(pm.layers[1].units, 1, hidden);
    EXPECT_GT(reg.counter("recompute_dp.runs"), 0);
    EXPECT_GT(reg.counter("partition_dp.states_visited"), 0);
}

void
sweep(obs::Registry &reg)
{
    TrainConfig train;
    ClusterSpec cluster;
    ParallelConfig par;
    const ModelConfig model = searchModel(train, cluster, par);
    sweepStrategies(model, train, cluster, PlanMethod::AdaPipe);
    EXPECT_GT(reg.counter("strategy_search.strategies_planned"), 0);
    EXPECT_GT(reg.counter("strategy_search.plans_infeasible"), 0);
}

void
simulator(obs::Registry &reg)
{
    FaultSpec faults;
    faults.failure.device = 1;
    faults.failure.at = 2.5;
    const SimResult r =
        simulate(build1F1B(2, 4), {{1, 2}, {1, 2}}, faults);
    EXPECT_FALSE(r.completed);
    EXPECT_GT(reg.counter("sim.events"), 0);
}

void
replanner(obs::Registry &)
{
    const ProfiledModel pm = searchProfile();
    const PlanResult base = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(base.ok) << base.oomReason;
    EXPECT_TRUE(replanDegradedIncremental(pm, {}, base.plan).ok);
    DegradedScenario starved;
    starved.memFactor = 0.01;
    EXPECT_FALSE(replanDegraded(pm, starved).ok);
    buildSensitivityReport(pm, base.plan, 0, {1.5}, /*seed=*/1);
}

/** Small runtime run on @p p workers; fills the options @p tweak
 *  leaves alone. */
RuntimeResult
runTiny(obs::Registry &reg, int p, BlockRecompute mode,
      const std::function<void(RuntimeOptions &, std::vector<StageSpec> &)>
          &tweak)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions opts = smallOpts(2);
    std::vector<StageSpec> specs = evenStageSpecs(cfg.blocks, p, mode);
    tweak(opts, specs);
    TinyLM model(cfg);
    return runPipeline(model, specs, opts, &reg);
}

void
runtimeOverlap(obs::Registry &reg)
{
    const RuntimeResult r =
        runTiny(reg, 2, BlockRecompute::Full, [](auto &opts, auto &) {
            opts.overlapReplay = true;
            opts.overlapDrainAll = true;
        });
    EXPECT_TRUE(r.ok) << r.error;
}

void
runtimeOffload(obs::Registry &reg)
{
    const RuntimeResult r = runTiny(
        reg, 2, BlockRecompute::None, [](auto &opts, auto &specs) {
            specs = withAlternatingOffload(specs);
            opts.offloadSync = true;
            opts.offloadForceMiss = true;
        });
    EXPECT_TRUE(r.ok) << r.error;
}

void
runtimeInterleaved(obs::Registry &reg)
{
    const RuntimeResult r = runTiny(
        reg, 4, BlockRecompute::AttentionOnly, [](auto &opts, auto &) {
            opts.virtualStages = 2;
            opts.intraStageThreads = 2;
        });
    EXPECT_TRUE(r.ok) << r.error;
}

void
runtimeFaults(obs::Registry &reg)
{
    RuntimeFaultSpec faults;
    faults.seed = 3;
    faults.slowdowns.push_back({0, 1.5});
    faults.stalls.probability = 0.5;
    faults.stalls.base = 1e-5;
    faults.stalls.maxRetries = 1;
    faults.sendDelayUs = 20;
    faults.crash.worker = 1;
    faults.crash.step = 1;
    faults.crash.afterOps = 1;
    const RuntimeResult r =
        runTiny(reg, 2, BlockRecompute::None, [&faults](auto &opts, auto &) {
            opts.faults = &faults;
            opts.watchdog.enabled = true;
            opts.watchdog.stallTimeoutUs = 5e6;
            opts.watchdog.pollIntervalUs = 1e3;
        });
    EXPECT_FALSE(r.ok);
}

void
recovery(obs::Registry &reg)
{
    const TinyLmConfig cfg = smallConfig();
    const int p = 3;
    RuntimeOptions opts = smallOpts(4);
    RuntimeFaultSpec faults;
    faults.crash.worker = 1;
    faults.crash.step = 3;
    opts.faults = &faults;
    // Per process, so concurrent runs never resume each other's file.
    const std::string snap = ::testing::TempDir() + "catalogue_snap_" +
                             std::to_string(::getpid()) + ".bin";
    opts.snapshot.every = 2;
    opts.snapshot.path = snap;
    const ProfiledModel pm = profileTinyLm(cfg, p, opts.microBatches);
    RecoveryOptions rec;
    rec.pm = &pm;
    TinyLM model(cfg);
    const RecoveryResult r = runPipelineWithRecovery(
        model, evenStageSpecs(cfg.blocks, p, BlockRecompute::None), opts,
        rec, &reg);
    EXPECT_TRUE(r.ok) << r.error;
    std::remove(snap.c_str());
}

void
service(obs::Registry &)
{
    const auto request = [](const std::string &kind,
                            const std::string &model,
                            const std::string &extra) {
        return "{\"kind\": \"" + kind + "\", \"plan\": {\"model\": \"" +
               model +
               "\", \"cluster\": {\"name\": \"a\", \"nodes\": 1}, "
               "\"train\": {\"seq_len\": 128, \"global_batch\": 8}, "
               "\"parallel\": {\"tensor\": 1, \"pipeline\": 2}}" +
               extra + "}";
    };
    PlanService svc;
    const std::string plan = request("plan", "tiny-test", "");
    for (const std::string &line :
         {plan, plan, request("explain", "tiny-test", ""),
          request("replan", "tiny-test",
                  ", \"fault\": {\"straggler_stage\": 0, "
                  "\"straggler_factor\": 2.0}"),
          std::string("{\"kind\": \"stats\"}"), std::string("{\"kind\": "),
          request("plan", "gpt3", ""),
          std::string("{\"kind\": \"shutdown\"}")})
        svc.handleLine(line);
    EXPECT_TRUE(svc.shutdownRequested());
}

void
benchHarness(obs::Registry &)
{
    TrainConfig train;
    ClusterSpec cluster;
    ParallelConfig par;
    const ModelConfig model = searchModel(train, cluster, par);
    bench::Method adapipe{"AdaPipe", PlanMethod::AdaPipe, {}, false};
    bench::bestOverStrategies(model, train, cluster, adapipe);
}

/** Every scenario's emissions, run once per process. */
const std::vector<Emission> &
emissions()
{
    static const std::vector<Emission> all = [] {
        const std::vector<
            std::pair<const char *, void (*)(obs::Registry &)>>
            scenarios = {
                {"planners", planners},
                {"strategy sweep", sweep},
                {"simulator with a device failure", simulator},
                {"replanner", replanner},
                {"runtime overlap", runtimeOverlap},
                {"runtime offload", runtimeOffload},
                {"runtime interleaved", runtimeInterleaved},
                {"runtime faults and watchdog", runtimeFaults},
                {"recovery with snapshots", recovery},
                {"plan service", service},
                {"bench harness", benchHarness},
            };
        std::vector<Emission> out;
        for (const auto &[name, body] : scenarios) {
            SCOPED_TRACE(name);
            for (Emission &e : collect(name, body))
                out.push_back(std::move(e));
        }
        return out;
    }();
    return all;
}

TEST(MetricCatalogue, EachRowNamesOneMetric)
{
    const std::vector<Row> rows = catalogue();
    EXPECT_GE(rows.size(), 100u);
    std::set<std::pair<std::string, std::string>> seen;
    for (const Row &r : rows) {
        EXPECT_TRUE(seen.insert({r.kind, r.name}).second)
            << "duplicate " << r.kind << " row " << r.name;
    }
}

TEST(MetricCatalogue, MatchesEmittedNames)
{
    const std::vector<Row> rows = catalogue();
    const std::regex chunk(
        "runtime\\.stage\\.([0-9]+)\\.chunk\\.[0-9]+\\.(.+)");
    std::vector<bool> emitted(rows.size(), false);
    for (const Emission &e : emissions()) {
        const std::string name =
            e.kind == "gauge"
                ? std::regex_replace(e.name, chunk, "runtime.stage.$1.$2")
                : e.name;
        int matches = 0;
        for (std::size_t k = 0; k < rows.size(); ++k) {
            if (rows[k].kind == e.kind &&
                std::regex_match(name, rows[k].pattern)) {
                ++matches;
                emitted[k] = true;
            }
        }
        EXPECT_EQ(matches, 1)
            << e.kind << " " << e.name << " (scenario: " << e.scenario
            << ") matches " << matches
            << " catalogue rows; docs/observability.md needs exactly one";
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_TRUE(emitted[k])
            << rows[k].kind << " row " << rows[k].name
            << " is emitted by no scenario: remove the row, or add the "
               "scenario that emits it";
    }
}

} // namespace
} // namespace adapipe
