/**
 * @file
 * Tests for the search observability subsystem (src/obs/): registry
 * semantics, the macro layer and every sink format. What the program
 * emits is held to the metric catalogue by metric_catalogue_test.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/macros.h"
#include "obs/registry.h"
#include "obs/sinks.h"
#include "util/json.h"

namespace adapipe {
namespace {

TEST(ObsRegistry, CountersAccumulateAndDefaultToZero)
{
    obs::Registry r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.counter("never"), 0);
    r.add("dp.cells", 5);
    r.add("dp.cells", 3);
    r.add("dp.runs");
    EXPECT_EQ(r.counter("dp.cells"), 8);
    EXPECT_EQ(r.counter("dp.runs"), 1);
    EXPECT_FALSE(r.empty());
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(ObsRegistry, GaugesLastWriterWins)
{
    obs::Registry r;
    EXPECT_DOUBLE_EQ(r.gauge("never"), 0.0);
    r.set("search.best", 3.5);
    r.set("search.best", 2.25);
    EXPECT_DOUBLE_EQ(r.gauge("search.best"), 2.25);
}

TEST(ObsRegistry, MergeAddsCountersOverwritesGaugesAppendsSpans)
{
    obs::Registry a;
    a.add("shared", 2);
    a.add("only_a", 1);
    a.set("g", 1.0);
    a.record({"span_a", 0.0, 1.0, 0, 0});

    obs::Registry b;
    b.add("shared", 3);
    b.add("only_b", 7);
    b.set("g", 9.0);
    b.record({"span_b", 2.0, 1.0, 0, 1});

    a.merge(b);
    EXPECT_EQ(a.counter("shared"), 5);
    EXPECT_EQ(a.counter("only_a"), 1);
    EXPECT_EQ(a.counter("only_b"), 7);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 9.0);
    ASSERT_EQ(a.spans().size(), 2u);
    EXPECT_EQ(a.spans()[1].name, "span_b");
}

TEST(ObsRegistry, InstallIsPerThread)
{
    obs::Registry r;
    obs::ScopedRegistry scope(&r);
    ASSERT_EQ(obs::current(), &r);

    obs::Registry *seen = &r;
    std::thread t([&] { seen = obs::current(); });
    t.join();
    EXPECT_EQ(seen, nullptr)
        << "a fresh thread must start uninstrumented";
    EXPECT_EQ(obs::current(), &r);
}

TEST(ObsRegistry, ScopedRegistryRestoresPrevious)
{
    obs::Registry outer_reg;
    obs::Registry inner_reg;
    EXPECT_EQ(obs::current(), nullptr);
    {
        obs::ScopedRegistry outer(&outer_reg);
        EXPECT_EQ(obs::current(), &outer_reg);
        {
            obs::ScopedRegistry inner(&inner_reg);
            EXPECT_EQ(obs::current(), &inner_reg);
        }
        EXPECT_EQ(obs::current(), &outer_reg);
    }
    EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsRegistry, SpansRecordNestingDepth)
{
    obs::Registry r;
    {
        obs::ScopedRegistry scope(&r);
        obs::ScopedSpan outer("outer");
        {
            obs::ScopedSpan inner("inner");
        }
    }
    ASSERT_EQ(r.spans().size(), 2u);
    // Spans complete innermost-first.
    EXPECT_EQ(r.spans()[0].name, "inner");
    EXPECT_EQ(r.spans()[0].depth, 1);
    EXPECT_EQ(r.spans()[1].name, "outer");
    EXPECT_EQ(r.spans()[1].depth, 0);
    EXPECT_GE(r.spans()[1].durUs, r.spans()[0].durUs);
    EXPECT_LE(r.spans()[1].startUs, r.spans()[0].startUs);
}

TEST(ObsRegistry, SpanWithoutRegistryIsANoOp)
{
    ASSERT_EQ(obs::current(), nullptr);
    obs::ScopedSpan span("orphan"); // must not crash or leak
}

TEST(ObsMacros, RouteToCurrentRegistry)
{
    obs::Registry r;
    {
        obs::ScopedRegistry scope(&r);
        ADAPIPE_OBS_COUNT("macro.count", 4);
        ADAPIPE_OBS_COUNT("macro.count", 1);
        ADAPIPE_OBS_GAUGE("macro.gauge", 1.5);
        ADAPIPE_OBS_SPAN(span, "macro.span");
    }
    EXPECT_EQ(r.counter("macro.count"), 5);
    EXPECT_DOUBLE_EQ(r.gauge("macro.gauge"), 1.5);
    ASSERT_EQ(r.spans().size(), 1u);
    EXPECT_EQ(r.spans()[0].name, "macro.span");
}

TEST(ObsMacros, NoOpWithoutRegistry)
{
    ASSERT_EQ(obs::current(), nullptr);
    ADAPIPE_OBS_COUNT("macro.count", 4);
    ADAPIPE_OBS_GAUGE("macro.gauge", 1.5);
    ADAPIPE_OBS_SPAN(span, "macro.span");
}

TEST(ObsSinks, JsonLinesRoundTripThroughUtilJson)
{
    obs::Registry r;
    r.add("c.one", 42);
    r.set("g \"quoted\"", 0.5);
    r.record({"s.span", 1.5, 2.5, 1, 3});

    std::istringstream lines(obs::toJsonLines(r));
    std::string line;
    int counters = 0, gauges = 0, spans = 0;
    while (std::getline(lines, line)) {
        const JsonValue v = JsonValue::parse(line);
        ASSERT_TRUE(v.isObject()) << line;
        const std::string &type = v.at("type").asString();
        if (type == "counter") {
            ++counters;
            EXPECT_EQ(v.at("name").asString(), "c.one");
            EXPECT_EQ(v.at("value").asInteger(), 42);
        } else if (type == "gauge") {
            ++gauges;
            EXPECT_EQ(v.at("name").asString(), "g \"quoted\"");
            EXPECT_DOUBLE_EQ(v.at("value").asNumber(), 0.5);
        } else if (type == "span") {
            ++spans;
            EXPECT_EQ(v.at("name").asString(), "s.span");
            EXPECT_DOUBLE_EQ(v.at("start_us").asNumber(), 1.5);
            EXPECT_DOUBLE_EQ(v.at("dur_us").asNumber(), 2.5);
            EXPECT_EQ(v.at("depth").asInteger(), 1);
            EXPECT_EQ(v.at("thread").asInteger(), 3);
        } else {
            FAIL() << "unknown line type " << type;
        }
    }
    EXPECT_EQ(counters, 1);
    EXPECT_EQ(gauges, 1);
    EXPECT_EQ(spans, 1);
}

TEST(ObsSinks, CsvSummaryAggregatesSpans)
{
    obs::Registry r;
    r.add("c", 2);
    r.record({"s", 0.0, 10.0, 0, 0});
    r.record({"s", 20.0, 5.0, 0, 0});

    std::ostringstream os;
    obs::writeCsvSummary(r, os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("kind,name,count,value"), std::string::npos);
    EXPECT_NE(csv.find("counter,c,1,2"), std::string::npos);
    EXPECT_NE(csv.find("span,s,2,15"), std::string::npos) << csv;
}

TEST(ObsSinks, ChromeTraceEmitsCompleteEvents)
{
    obs::Registry r;
    r.record({"solve", 1.0, 2.0, 0, 0});
    const JsonValue doc =
        JsonValue::parse(obs::spansToChromeTrace(r));
    ASSERT_TRUE(doc.isObject());
    const auto &events = doc.at("traceEvents").elements();
    bool found = false;
    for (const JsonValue &e : events) {
        if (e.at("ph").asString() != "X")
            continue;
        found = true;
        EXPECT_EQ(e.at("name").asString(), "solve");
        EXPECT_DOUBLE_EQ(e.at("ts").asNumber(), 1.0);
        EXPECT_DOUBLE_EQ(e.at("dur").asNumber(), 2.0);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace adapipe
