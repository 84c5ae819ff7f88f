/**
 * @file
 * Tests for the pipeline simulator: schedule construction, dependency
 * correctness, memory invariants and the qualitative schedule
 * properties the paper relies on (Sec. 2.1 and Sec. 7.2).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "util/logging.h"

#include "sim/pipeline_sim.h"
#include "sim/schedule.h"
#include "sim/timeline.h"

namespace adapipe {
namespace {

std::vector<StageTimes>
uniformStages(int p, double f, double b)
{
    return std::vector<StageTimes>(p, StageTimes{f, b});
}

TEST(Schedule, GPipeShape)
{
    const Schedule s = buildGPipe(3, 6);
    EXPECT_EQ(s.ops.size(), 3u * 6 * 2);
    EXPECT_EQ(s.deviceOrder.size(), 3u);
    // Per device: forwards strictly before backwards.
    for (const auto &order : s.deviceOrder) {
        bool seen_backward = false;
        for (std::size_t idx : order) {
            if (s.ops[idx].kind == OpKind::Backward)
                seen_backward = true;
            else
                EXPECT_FALSE(seen_backward);
        }
    }
}

TEST(Schedule, OneFOneBShape)
{
    const Schedule s = build1F1B(3, 6);
    EXPECT_EQ(s.ops.size(), 3u * 6 * 2);
    // Last stage alternates F B F B ... from the start.
    const auto &order = s.deviceOrder[2];
    for (std::size_t i = 0; i < order.size(); ++i) {
        const OpKind expected =
            i % 2 == 0 ? OpKind::Forward : OpKind::Backward;
        EXPECT_EQ(s.ops[order[i]].kind, expected) << "position " << i;
    }
}

TEST(Sim, NoOverlapOnDevice)
{
    const Schedule s = build1F1B(4, 8);
    const SimResult r = simulate(s, uniformStages(4, 1.0, 2.0), {});
    for (int dev = 0; dev < 4; ++dev) {
        std::vector<std::pair<double, double>> spans;
        for (std::size_t i = 0; i < s.ops.size(); ++i) {
            if (s.ops[i].device == dev)
                spans.emplace_back(r.records[i].start,
                                   r.records[i].end);
        }
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i)
            EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12);
    }
}

TEST(Sim, DependenciesRespected)
{
    const Schedule s = build1F1B(4, 8);
    const SimResult r = simulate(s, uniformStages(4, 1.0, 2.0));
    auto find = [&](int pos, int mb, OpKind kind) -> const OpRecord & {
        for (std::size_t i = 0; i < s.ops.size(); ++i) {
            const PipeOp &op = s.ops[i];
            if (op.pos == pos && op.microBatch == mb &&
                op.kind == kind) {
                return r.records[i];
            }
        }
        ADAPIPE_PANIC("op not found");
    };
    for (int mb = 0; mb < 8; ++mb) {
        for (int pos = 1; pos < 4; ++pos) {
            EXPECT_GE(find(pos, mb, OpKind::Forward).start,
                      find(pos - 1, mb, OpKind::Forward).end - 1e-12);
        }
        for (int pos = 0; pos < 3; ++pos) {
            EXPECT_GE(find(pos, mb, OpKind::Backward).start,
                      find(pos + 1, mb, OpKind::Backward).end - 1e-12);
        }
        EXPECT_GE(find(3, mb, OpKind::Backward).start,
                  find(3, mb, OpKind::Forward).end - 1e-12);
    }
}

TEST(Sim, OneFOneBPeakAliveIsPMinusS)
{
    // The key 1F1B memory invariant (Sec. 2.1): stage s keeps
    // p - s micro-batch activations.
    for (int p : {2, 4, 8}) {
        const int n = 3 * p;
        const SimResult r = simulate(build1F1B(p, n),
                                     uniformStages(p, 1.0, 2.0), {});
        for (int s = 0; s < p; ++s)
            EXPECT_EQ(r.peakAlive[s], p - s) << "p=" << p << " s=" << s;
    }
}

TEST(Sim, GPipePeakAliveIsN)
{
    const int p = 4;
    const int n = 12;
    const SimResult r =
        simulate(buildGPipe(p, n), uniformStages(p, 1.0, 2.0), {});
    for (int s = 0; s < p; ++s)
        EXPECT_EQ(r.peakAlive[s], n);
}

TEST(Sim, GPipeAnd1F1BSameIterationTimeUniform)
{
    const int p = 4;
    const int n = 16;
    const auto stages = uniformStages(p, 1.0, 2.0);
    const SimResult g = simulate(buildGPipe(p, n), stages, {});
    const SimResult f = simulate(build1F1B(p, n), stages, {});
    EXPECT_NEAR(g.iterationTime, f.iterationTime, 1e-9);
}

TEST(Sim, BubbleCountMatches1F1BTheory)
{
    // Total idle inside one iteration = (p - 1)(F + B) per device
    // boundary effect; check the aggregate busy/total relation.
    const int p = 4;
    const int n = 8;
    const auto stages = uniformStages(p, 1.0, 2.0);
    const SimResult r = simulate(build1F1B(p, n), stages, {});
    EXPECT_NEAR(r.iterationTime, (n + p - 1) * 3.0, 1e-9);
    for (int dev = 0; dev < p; ++dev)
        EXPECT_NEAR(r.deviceBusy[dev], n * 3.0, 1e-9);
}

TEST(Sim, ChimeraMatches1F1BWhenNEqualsP)
{
    // With n == p Chimera's bidirectional schedule fills bubbles at
    // least as well as 1F1B (Sec. 2.1).
    const int p = 4;
    const int n = 4;
    const auto stages = uniformStages(p, 1.0, 2.0);
    const SimResult chi = simulate(buildChimera(p, n), stages, {});
    const SimResult f1b = simulate(build1F1B(p, n), stages, {});
    EXPECT_LE(chi.iterationTime, f1b.iterationTime + 1e-9);
}

TEST(Sim, ChimeraWorseThan1F1BWhenNExceedsP)
{
    // The concatenation bubbles of Sec. 7.2: with n >> p Chimera
    // falls behind 1F1B.
    const int p = 4;
    const int n = 32;
    const auto stages = uniformStages(p, 1.0, 2.0);
    const SimResult chi = simulate(buildChimera(p, n), stages, {});
    const SimResult f1b = simulate(build1F1B(p, n), stages, {});
    EXPECT_GT(chi.iterationTime, f1b.iterationTime);
}

TEST(Sim, ChimeraDBeatsChimeraWithSlowBackward)
{
    // Forward doubling equalises slot sizes; with B = 2F it reduces
    // the inter-unit bubbles.
    const int p = 4;
    const int n = 32;
    const auto stages = uniformStages(p, 1.0, 2.0);
    const SimResult chi = simulate(buildChimera(p, n), stages, {});
    const SimResult chid = simulate(buildChimeraD(p, n), stages, {});
    EXPECT_LE(chid.iterationTime, chi.iterationTime + 1e-9);
}

TEST(Sim, ChimeraMiddleDevicesHoldMoreActivations)
{
    // Fig. 8: Chimera's middle devices store the most micro-batches
    // (both chains overlap there).
    const int p = 8;
    const int n = 16;
    const SimResult r = simulate(buildChimera(p, n),
                                 uniformStages(p, 1.0, 2.0), {});
    int edge = std::max(r.peakAlive[0], r.peakAlive[p - 1]);
    int middle = 0;
    for (int d = 1; d < p - 1; ++d)
        middle = std::max(middle, r.peakAlive[d]);
    EXPECT_GE(middle, edge);
}

TEST(Sim, ChimeraDDoublesForwardDuration)
{
    const Schedule s = buildChimeraD(4, 8);
    const SimResult r = simulate(s, uniformStages(4, 1.0, 2.0), {});
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
        const double dur = r.records[i].end - r.records[i].start;
        if (s.ops[i].kind == OpKind::Forward)
            EXPECT_NEAR(dur, 2.0, 1e-12);
        else
            EXPECT_NEAR(dur, 2.0, 1e-12);
    }
}

TEST(Timeline, RendersEveryDevice)
{
    const Schedule s = build1F1B(3, 4);
    const SimResult r = simulate(s, uniformStages(3, 1.0, 1.0), {});
    const std::string text = renderTimeline(s, r, 60);
    EXPECT_NE(text.find("1F1B"), std::string::npos);
    EXPECT_NE(text.find("dev0"), std::string::npos);
    EXPECT_NE(text.find("dev2"), std::string::npos);
    // Forward of micro-batch 0 appears as '0', backward as 'a'.
    EXPECT_NE(text.find('0'), std::string::npos);
    EXPECT_NE(text.find('a'), std::string::npos);
}

TEST(Sim, RejectsMissingStageTimes)
{
    const Schedule s = build1F1B(4, 4);
    EXPECT_DEATH(simulate(s, uniformStages(3, 1.0, 2.0), {}),
                 "stage times for every chain position");
}

TEST(Sim, DetectsMalformedSchedule)
{
    // A backward whose forward is missing must be caught, not
    // silently scheduled.
    Schedule s;
    s.name = "broken";
    s.numDevices = 1;
    s.chainLength = 1;
    s.numMicroBatches = 1;
    s.chainMicroBatches = {1};
    PipeOp op;
    op.kind = OpKind::Backward;
    s.ops.push_back(op);
    s.deviceOrder = {{0}};
    EXPECT_DEATH(simulate(s, uniformStages(1, 1.0, 2.0), {}),
                 "missing dependency");
}

TEST(Sim, DetectsDuplicateOps)
{
    Schedule s = build1F1B(2, 2);
    s.ops.push_back(s.ops.front());
    s.deviceOrder[0].push_back(s.ops.size() - 1);
    EXPECT_DEATH(simulate(s, uniformStages(2, 1.0, 2.0), {}),
                 "duplicate op");
}

TEST(Schedule, ChimeraRejectsOddConfigs)
{
    EXPECT_DEATH(buildChimera(3, 4), "even pipeline");
    EXPECT_DEATH(buildChimera(4, 5), "even micro-batch");
    EXPECT_DEATH(buildChimeraD(4, 6), "divisible by 4");
}

} // namespace
} // namespace adapipe
