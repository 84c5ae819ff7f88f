/**
 * @file
 * Tests for profile-table serialization and the measured-profile
 * substitution path.
 */

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "hw/profile_io.h"
#include "model/model_config.h"

namespace adapipe {
namespace {

ProfiledModel
smallProfiled()
{
    TrainConfig train;
    train.seqLen = 4096;
    train.globalBatch = 16;
    ParallelConfig par;
    par.tensor = 2;
    par.pipeline = 2;
    return buildProfiledModel(tinyTestModel(), train, par,
                              clusterA(1));
}

TEST(ProfileIo, RoundTripPreservesTable)
{
    const ProfiledModel pm = smallProfiled();
    const ProfileTable table = extractProfileTable(pm);
    const ProfileTable back = profileTableFromJsonString(
        profileTableToJsonString(table));

    EXPECT_EQ(back.source, table.source);
    ASSERT_EQ(back.layers.size(), table.layers.size());
    for (std::size_t l = 0; l < table.layers.size(); ++l) {
        ASSERT_EQ(back.layers[l].size(), table.layers[l].size());
        for (std::size_t u = 0; u < table.layers[l].size(); ++u) {
            const UnitProfile &a = table.layers[l][u];
            const UnitProfile &b = back.layers[l][u];
            EXPECT_EQ(b.name, a.name);
            EXPECT_EQ(b.kind, a.kind);
            EXPECT_DOUBLE_EQ(b.timeFwd, a.timeFwd);
            EXPECT_DOUBLE_EQ(b.timeBwd, a.timeBwd);
            EXPECT_EQ(b.memSaved, a.memSaved);
            EXPECT_EQ(b.alwaysSaved, a.alwaysSaved);
        }
    }
}

TEST(ProfileIo, AppliedTableChangesPlannedTimes)
{
    ProfiledModel pm = smallProfiled();
    const PlanResult before = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(before.ok);

    // A "measured" table that doubles every unit time.
    ProfileTable table = extractProfileTable(pm);
    table.source = "measured:test";
    for (auto &layer : table.layers) {
        for (auto &u : layer) {
            u.timeFwd *= 2;
            u.timeBwd *= 2;
        }
    }
    applyProfileTable(pm, table);
    const PlanResult after = makePlan(pm, PlanMethod::DappleFull);
    ASSERT_TRUE(after.ok);
    EXPECT_NEAR(after.plan.timing.total,
                2.0 * before.plan.timing.total,
                0.05 * after.plan.timing.total);
}

TEST(ProfileIo, ApplyRejectsStructureMismatch)
{
    ProfiledModel pm = smallProfiled();
    ProfileTable table = extractProfileTable(pm);
    table.layers.pop_back();
    EXPECT_DEATH(applyProfileTable(pm, table), "layers");

    ProfileTable renamed = extractProfileTable(pm);
    renamed.layers[1][0].name = "bogus";
    EXPECT_DEATH(applyProfileTable(pm, renamed), "name mismatch");
}

TEST(ProfileIo, ApplyMemoryChangesBaselineAccounting)
{
    ProfiledModel pm = smallProfiled();
    MemoryModel mm(pm.model, pm.train, pm.par);
    const Bytes before = mm.noRecomputeSavedPerMb(
        pm.rawLayers, 0, pm.numLayers() - 1);

    ProfileTable table = extractProfileTable(pm);
    for (auto &layer : table.layers) {
        for (auto &u : layer)
            u.memSaved *= 3;
    }
    applyProfileTable(pm, table);
    const Bytes after = mm.noRecomputeSavedPerMb(
        pm.rawLayers, 0, pm.numLayers() - 1);
    EXPECT_EQ(after, 3 * before);
}

TEST(ProfileIo, RejectsUnknownKind)
{
    const std::string bad = R"({
        "source": "x",
        "layers": [[{"name": "u", "kind": "teleport",
                     "time_fwd": 1.0, "time_bwd": 2.0,
                     "mem_saved": 10, "always_saved": false}]]
    })";
    EXPECT_DEATH(profileTableFromJsonString(bad), "unknown unit kind");
}

} // namespace
} // namespace adapipe
