/**
 * @file
 * Tests for the robustness subsystem: deterministic fault injection
 * in the simulator, degraded-mode replanning invariants and the
 * sensitivity report.
 */

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "model/model_config.h"
#include "robust/fault_spec.h"
#include "robust/replan.h"
#include "robust/replan_io.h"
#include "runtime/fault_injector.h"
#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "util/rng.h"

namespace adapipe {
namespace {

std::vector<StageTimes>
uniformTimes(int p, Seconds fwd, Seconds bwd)
{
    return std::vector<StageTimes>(static_cast<std::size_t>(p),
                                   StageTimes{fwd, bwd});
}

FaultSpec
noisySpec(std::uint64_t seed)
{
    FaultSpec spec;
    spec.seed = seed;
    spec.slowdowns.push_back({1, 1.5});
    spec.stalls.probability = 0.3;
    spec.stalls.base = 0.01;
    spec.stalls.maxRetries = 3;
    return spec;
}

TEST(FaultSim, FixedSeedIsBitForBitDeterministic)
{
    const Schedule sched = build1F1B(4, 8);
    const auto times = uniformTimes(4, 1.0, 2.0);
    const FaultSpec faults = noisySpec(7);

    const SimResult a = simulate(sched, times, faults);
    const SimResult b = simulate(sched, times, faults);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].start, b.records[i].start) << i;
        EXPECT_EQ(a.records[i].end, b.records[i].end) << i;
    }
    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_EQ(a.stallTime, b.stallTime);
}

TEST(FaultSim, DifferentSeedsChangeTheRealisation)
{
    const Schedule sched = build1F1B(4, 8);
    const auto times = uniformTimes(4, 1.0, 2.0);
    const FaultSpec a_faults = noisySpec(7);
    FaultSpec b_faults = a_faults;
    b_faults.seed = 8;

    const SimResult a = simulate(sched, times, a_faults);
    const SimResult b = simulate(sched, times, b_faults);
    EXPECT_NE(a.iterationTime, b.iterationTime);
}

TEST(FaultSim, SlowdownScalesEveryOpOnTheDevice)
{
    const Schedule sched = build1F1B(2, 4);
    const auto times = uniformTimes(2, 1.0, 2.0);
    FaultSpec faults;
    faults.slowdowns.push_back({0, 2.0});

    const SimResult r = simulate(sched, times, faults);
    ASSERT_TRUE(r.completed);
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
        const PipeOp &op = sched.ops[i];
        const Seconds duration =
            r.records[i].end - r.records[i].start;
        const Seconds base =
            op.kind == OpKind::Forward ? 1.0 : 2.0;
        const double factor = op.device == 0 ? 2.0 : 1.0;
        EXPECT_DOUBLE_EQ(duration, base * factor) << i;
    }
}

TEST(FaultSim, StallsAddReportedDelay)
{
    const Schedule sched = build1F1B(4, 8);
    const auto times = uniformTimes(4, 1.0, 2.0);
    FaultSpec stalling;
    stalling.seed = 3;
    stalling.stalls.probability = 0.5;
    stalling.stalls.base = 0.25;

    const SimResult a = simulate(sched, times);
    const SimResult b = simulate(sched, times, stalling);
    EXPECT_EQ(a.stallTime, 0.0);
    EXPECT_GT(b.stallTime, 0.0);
    EXPECT_GT(b.iterationTime, a.iterationTime);
}

TEST(FaultSim, DeviceFailureEndsTheIterationGracefully)
{
    const Schedule sched = build1F1B(4, 8);
    const auto times = uniformTimes(4, 1.0, 2.0);
    FaultSpec faults;
    faults.failure = {1, 5.0};

    const SimResult r = simulate(sched, times, faults);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.failedDevice, 1);
    // No op on the failed device starts at/after the failure time,
    // and at least one op was left unexecuted.
    std::size_t undone = 0;
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
        if (!r.records[i].done()) {
            ++undone;
            continue;
        }
        if (sched.ops[i].device == 1) {
            EXPECT_LT(r.records[i].start, 5.0) << i;
        }
    }
    EXPECT_GT(undone, 0u);
}

TEST(FaultSim, FailureAtTimeZeroStopsEverything)
{
    const Schedule sched = build1F1B(2, 4);
    const auto times = uniformTimes(2, 1.0, 2.0);
    FaultSpec faults;
    faults.failure = {0, 0.0};

    const SimResult r = simulate(sched, times, faults);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.iterationTime, 0.0);
}

TEST(FaultSim, FailureAfterTheIterationIsInvisible)
{
    const Schedule sched = build1F1B(2, 4);
    const auto times = uniformTimes(2, 1.0, 2.0);
    FaultSpec faults;
    faults.failure = {0, 1e9};

    const SimResult r = simulate(sched, times, faults);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.failedDevice, -1);
}

TEST(FaultSim, GreedyScheduleSurvivesDeviceFailure)
{
    // Chimera runs through the greedy scheduler; a failure must end
    // it gracefully instead of tripping the deadlock assert.
    const Schedule sched = buildChimera(4, 4);
    const auto times = uniformTimes(4, 1.0, 2.0);
    FaultSpec faults;
    faults.failure = {2, 2.0};

    const SimResult r = simulate(sched, times, faults);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.failedDevice, 2);
}

// Every seeded fault scenario, in the simulator and in the runtime's
// injector, depends on these draws bit for bit. The expected values
// are recorded, so a change to a hash, a seed or a stream fails here.
TEST(FaultDraws, StallDelaysArePinned)
{
    TransientStalls stalls;
    stalls.probability = 0.6;
    stalls.base = 0.25;
    stalls.maxRetries = 3;
    const std::vector<Seconds> want = {0.25, 0, 0,    0, 0,    1.75,
                                       0,    0, 0,    0, 0.75, 0.75,
                                       1.75, 0, 0.25, 0.25};
    std::vector<Seconds> got;
    for (int mb = 0; mb < 16; ++mb) {
        got.push_back(stallDelay(
            stalls, 7, faultOpId(mb % 2, mb % 3, mb, mb % 4 < 2)));
    }
    EXPECT_EQ(got, want);
}

TEST(FaultDraws, InjectorStallAndSendDelaysArePinned)
{
    RuntimeFaultSpec spec;
    spec.seed = 11;
    spec.stalls.probability = 0.6;
    // Microsecond-scale delays: the hooks really sleep them.
    spec.stalls.base = 1e-6;
    spec.stalls.maxRetries = 3;
    spec.sendDelayUs = 2.0;
    spec.sendDelayJitter = 0.5;
    FaultInjector injector(spec, 1);
    for (int mb = 0; mb < 8; ++mb) {
        injector.beforeOp(0, mb % 3, 2, mb, mb % 2 == 0, 0);
        injector.beforeSend(0, mb % 3, 2, mb, mb % 2 == 0);
    }
    std::vector<double> stall_us, send_us;
    for (const FaultEvent &e : injector.events()) {
        (e.kind == FaultEventKind::Stall ? stall_us : send_us)
            .push_back(e.us);
    }
    const std::vector<double> want_stall = {3, 7, 1};
    const std::vector<double> want_send = {
        2.8884246672394038, 2.1187661111012139, 2.6578515743063935,
        2.2217501709249006, 2.8287901385027494, 2.9181355758351066,
        2.9438157838518735, 2.7722250151222347};
    EXPECT_EQ(stall_us, want_stall);
    EXPECT_EQ(send_us, want_send);
}

TEST(FaultSpecJson, RoundTrips)
{
    const FaultSpec spec = noisySpec(99);
    const ParseResult<FaultSpec> back =
        faultSpecFromJson(faultSpecToJson(spec));
    ASSERT_TRUE(back.ok()) << back.error();
    const FaultSpec &b = back.value();
    EXPECT_EQ(b.seed, spec.seed);
    ASSERT_EQ(b.slowdowns.size(), spec.slowdowns.size());
    EXPECT_EQ(b.slowdowns[0].device, spec.slowdowns[0].device);
    EXPECT_EQ(b.slowdowns[0].factor, spec.slowdowns[0].factor);
    EXPECT_EQ(b.stalls.probability, spec.stalls.probability);
    EXPECT_EQ(b.stalls.base, spec.stalls.base);
    EXPECT_EQ(b.stalls.maxRetries, spec.stalls.maxRetries);
    EXPECT_EQ(b.failure.device, spec.failure.device);
}

TEST(FaultSpecJson, ErrorsNameTheField)
{
    const ParseResult<FaultSpec> r = faultSpecFromJsonString(
        R"({"slowdowns": [{"device": 0, "factor": 0.5}]})");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("fault.slowdowns[0].factor"),
              std::string::npos)
        << r.error();
}

class ReplanTest : public ::testing::Test
{
  protected:
    ModelConfig model = gpt3_13b();
    TrainConfig train;
    ParallelConfig par;
    ClusterSpec cluster = clusterA(4);

    void
    SetUp() override
    {
        train.seqLen = 4096;
        train.globalBatch = 32;
        par.tensor = 8;
        par.pipeline = 4;
        par.data = 1;
    }
};

TEST_F(ReplanTest, ShiftsLayersAwayFromTheStraggler)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const PlanResult healthy = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(healthy.ok) << healthy.oomReason;

    DegradedScenario scenario;
    scenario.stragglerStage = 1;
    scenario.stragglerFactor = 2.0;
    const ReplanResult degraded = replanDegraded(pm, scenario);
    ASSERT_TRUE(degraded.ok) << degraded.reason;
    EXPECT_LT(degraded.plan.stages[1].numLayers(),
              healthy.plan.stages[1].numLayers());
}

TEST_F(ReplanTest, HealthyTimesDivideOutTheSlowdown)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    DegradedScenario scenario;
    scenario.stragglerStage = 2;
    scenario.stragglerFactor = 1.75;
    const ReplanResult r = replanDegraded(pm, scenario);
    ASSERT_TRUE(r.ok) << r.reason;
    ASSERT_EQ(r.healthyTimes.size(), r.plan.stages.size());
    for (std::size_t s = 0; s < r.plan.stages.size(); ++s) {
        const double factor = s == 2 ? 1.75 : 1.0;
        EXPECT_NEAR(r.healthyTimes[s].fwd * factor,
                    r.plan.stages[s].timeFwd, 1e-12);
        EXPECT_NEAR(r.healthyTimes[s].bwd * factor,
                    r.plan.stages[s].timeBwd, 1e-12);
    }
}

TEST_F(ReplanTest, RejectsInvalidScenarios)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    DegradedScenario scenario;
    scenario.lostStages = par.pipeline;
    EXPECT_FALSE(replanDegraded(pm, scenario).ok);
    scenario = {};
    scenario.stragglerStage = par.pipeline;
    EXPECT_FALSE(replanDegraded(pm, scenario).ok);
    scenario = {};
    scenario.stragglerStage = 0;
    scenario.stragglerFactor = 0.5;
    EXPECT_FALSE(replanDegraded(pm, scenario).ok);
    scenario = {};
    scenario.memFactor = 0.0;
    EXPECT_FALSE(replanDegraded(pm, scenario).ok);
}

TEST_F(ReplanTest, DegradedPlansSatisfyInvariants)
{
    // Property test: every feasible degraded plan covers all layers
    // contiguously and keeps every stage under the degraded memory
    // cap.
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const int L = pm.numLayers();
    Rng rng(20240805);
    int feasible = 0;
    for (int trial = 0; trial < 24; ++trial) {
        DegradedScenario scenario;
        scenario.lostStages =
            static_cast<int>(rng.uniformInt(0, 1));
        const int surviving = par.pipeline - scenario.lostStages;
        scenario.stragglerStage =
            static_cast<int>(rng.uniformInt(-1, surviving - 1));
        scenario.stragglerFactor = rng.uniform(1.0, 3.0);
        scenario.memFactor = rng.uniform(0.7, 1.0);

        const ReplanResult r = replanDegraded(pm, scenario);
        if (!r.ok)
            continue;
        ++feasible;
        ASSERT_EQ(static_cast<int>(r.plan.stages.size()), surviving);
        EXPECT_EQ(r.plan.stages.front().firstLayer, 0);
        EXPECT_EQ(r.plan.stages.back().lastLayer, L - 1);
        for (std::size_t s = 0; s < r.plan.stages.size(); ++s) {
            const StagePlan &sp = r.plan.stages[s];
            EXPECT_LE(sp.firstLayer, sp.lastLayer);
            if (s > 0) {
                EXPECT_EQ(sp.firstLayer,
                          r.plan.stages[s - 1].lastLayer + 1);
            }
            EXPECT_LE(sp.memPeak, r.degradedCapacity)
                << "trial " << trial << " stage " << s;
        }
    }
    // The scenario distribution is gentle enough that most replans
    // must succeed; a sweep that never replans tests nothing.
    EXPECT_GE(feasible, 12);
}

TEST_F(ReplanTest, SensitivityReportShowsReplanWinning)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const PlanResult healthy = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(healthy.ok) << healthy.oomReason;

    const RobustnessReport report = buildSensitivityReport(
        pm, healthy.plan, 1, {1.5, 2.0}, 42);
    ASSERT_EQ(report.rows.size(), 2u);
    for (const SensitivityRow &row : report.rows) {
        ASSERT_TRUE(row.replanOk);
        EXPECT_GT(row.originalTime, report.healthyTime);
        EXPECT_LT(row.replannedTime, row.originalTime)
            << "severity " << row.severity;
        EXPECT_GT(row.speedup, 1.0);
    }
}

TEST(ReplanGpt3, ReplannedBeatsOriginalUnderStraggler)
{
    // The acceptance fixture: GPT-3 175B on cluster A, one device
    // 1.5x slower — replanning must recover part of the loss.
    TrainConfig train;
    train.seqLen = 8192;
    train.globalBatch = 32;
    ParallelConfig par;
    par.tensor = 8;
    par.pipeline = 8;
    par.data = 1;
    const ProfiledModel pm = buildProfiledModel(
        gpt3_175b(), train, par, clusterA(8));
    const PlanResult healthy = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(healthy.ok) << healthy.oomReason;

    const RobustnessReport report = buildSensitivityReport(
        pm, healthy.plan, 1, {1.5}, 42);
    ASSERT_EQ(report.rows.size(), 1u);
    ASSERT_TRUE(report.rows[0].replanOk);
    EXPECT_LT(report.rows[0].replannedTime,
              report.rows[0].originalTime);
}

TEST_F(ReplanTest, DegradedPlanRoundTripsWithProvenance)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    const PlanResult healthy = makePlan(pm, PlanMethod::AdaPipe);
    ASSERT_TRUE(healthy.ok) << healthy.oomReason;
    DegradedScenario scenario;
    scenario.lostStages = 1;
    const ReplanResult degraded = replanDegraded(pm, scenario);
    ASSERT_TRUE(degraded.ok) << degraded.reason;

    DegradedPlanDoc doc;
    doc.plan = degraded.plan;
    doc.scenario = scenario;
    doc.originalFingerprint = planFingerprint(healthy.plan);
    doc.degradedCapacity = degraded.degradedCapacity;

    const std::string text = degradedPlanToJsonString(doc, 2);
    const auto back = tryDegradedPlanFromJsonString(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().scenario.lostStages, 1);
    EXPECT_EQ(back.value().scenario.stragglerStage, -1);
    EXPECT_EQ(back.value().originalFingerprint,
              doc.originalFingerprint);
    EXPECT_EQ(back.value().degradedCapacity,
              degraded.degradedCapacity);
    // The embedded plan survives byte-for-byte: re-serializing the
    // parsed document reproduces the original text.
    EXPECT_EQ(degradedPlanToJsonString(back.value(), 2), text);
    EXPECT_EQ(back.value().plan.stages.size(),
              degraded.plan.stages.size());

    // The fingerprint is stable for equal plans and moves when the
    // plan changes.
    EXPECT_EQ(planFingerprint(healthy.plan),
              planFingerprint(healthy.plan));
    EXPECT_NE(planFingerprint(healthy.plan),
              planFingerprint(degraded.plan));
    EXPECT_EQ(doc.originalFingerprint.size(), 16u);
}

TEST_F(ReplanTest, DegradedPlanErrorsNameTheField)
{
    const ProfiledModel pm =
        buildProfiledModel(model, train, par, cluster);
    DegradedScenario scenario;
    scenario.lostStages = 1;
    const ReplanResult degraded = replanDegraded(pm, scenario);
    ASSERT_TRUE(degraded.ok) << degraded.reason;
    DegradedPlanDoc doc;
    doc.plan = degraded.plan;
    doc.scenario = scenario;
    doc.originalFingerprint = "0123456789abcdef";
    const std::string base = degradedPlanToJsonString(doc, 2);

    struct Case
    {
        const char *needle;
        const char *replacement;
        const char *expected;
    };
    const Case cases[] = {
        {"\"lost_stages\": 1", "\"lost_stages\": -1",
         "degraded_plan.scenario.lost_stages"},
        {"\"straggler_factor\": 1", "\"straggler_factor\": 0.5",
         "degraded_plan.scenario.straggler_factor"},
        {"\"mem_factor\": 1", "\"mem_factor\": 0",
         "degraded_plan.scenario.mem_factor"},
        {"\"original_fingerprint\": \"0123456789abcdef\"",
         "\"original_fingerprint\": \"xyz\"",
         "degraded_plan.original_fingerprint"},
        {"\"degraded_capacity\":", "\"degraded_capacity_typo\":",
         "degraded_plan"},
    };
    for (const Case &c : cases) {
        std::string text = base;
        const std::size_t pos = text.find(c.needle);
        ASSERT_NE(pos, std::string::npos) << c.needle;
        text.replace(pos, std::string(c.needle).size(),
                     c.replacement);
        const auto r = tryDegradedPlanFromJsonString(text);
        ASSERT_FALSE(r.ok()) << c.expected;
        EXPECT_NE(r.error().find(c.expected), std::string::npos)
            << "error was: " << r.error();
    }

    // A broken embedded plan is reported under the plan's own
    // field path, prefixed with the document's.
    std::string text = base;
    const std::size_t pos = text.find("\"micro_batches\":");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("\"micro_batches\":").size(),
                 "\"micro_batches_typo\":");
    const auto r = tryDegradedPlanFromJsonString(text);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("degraded_plan.plan"),
              std::string::npos)
        << r.error();
}

TEST(ReplanReport, JsonCarriesEveryRow)
{
    RobustnessReport report;
    report.model = "test";
    report.stragglerStage = 3;
    report.seed = 17;
    report.healthyTime = 1.0;
    report.rows.push_back({1.5, 2.0, 1.5, true, 2.0 / 1.5});
    const JsonValue json = reportToJson(report);
    const ParseResult<JsonValue> back =
        JsonValue::tryParse(json.dump(2));
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().at("straggler_stage").asInteger(), 3);
    EXPECT_EQ(back.value().at("rows").elements().size(), 1u);
}

} // namespace
} // namespace adapipe
