#include "core/profiled_model.h"

#include "util/logging.h"

namespace adapipe {

Seconds
ProfiledLayer::timeFwdAll() const
{
    Seconds total = 0;
    for (const auto &u : units)
        total += u.timeFwd;
    return total;
}

Seconds
ProfiledLayer::timeBwdAll() const
{
    Seconds total = 0;
    for (const auto &u : units)
        total += u.timeBwd;
    return total;
}

Bytes
ProfiledLayer::memSavedAll() const
{
    Bytes total = 0;
    for (const auto &u : units)
        total += u.memSaved;
    return total;
}

Bytes
ProfiledLayer::memAlwaysSaved() const
{
    Bytes total = 0;
    for (const auto &u : units) {
        if (u.alwaysSaved)
            total += u.memSaved;
    }
    return total;
}

Seconds
ProfiledLayer::timeFwdRecomputable() const
{
    Seconds total = 0;
    for (const auto &u : units) {
        if (!u.alwaysSaved)
            total += u.timeFwd;
    }
    return total;
}

std::uint64_t
ProfiledModel::rangeParams(int first, int last) const
{
    ADAPIPE_ASSERT(first >= 0 && last < numLayers() && first <= last,
                   "bad layer range [", first, ", ", last, "]");
    std::uint64_t total = 0;
    for (int i = first; i <= last; ++i)
        total += layers[i].params;
    return total;
}

ProfiledModel
buildProfiledModel(const ModelConfig &model, const TrainConfig &train,
                   const ParallelConfig &par, const ClusterSpec &cluster)
{
    ProfiledModel pm;
    pm.model = model;
    pm.train = train;
    pm.par = par;
    pm.rawLayers = buildLayerSequence(model, train, par);

    OperatorProfiler profiler(cluster, par);
    pm.layers.reserve(pm.rawLayers.size());
    for (const Layer &layer : pm.rawLayers) {
        ProfiledLayer pl;
        pl.kind = layer.kind;
        pl.index = layer.index;
        pl.params = layer.params;
        pl.units = profiler.profileLayer(layer);
        pm.layers.push_back(std::move(pl));
    }

    MemoryModel mem(model, train, par);
    pm.stageInputBytes = mem.stageInputBytes();
    pm.p2pTime = profiler.p2pTime(pm.stageInputBytes);
    pm.p2pBandwidth = cluster.numNodes > 1
                          ? cluster.interNodeBandwidth
                          : cluster.intraNodeBandwidth;
    pm.memCapacity = cluster.device.usableCapacity();
    return pm;
}

ProfileTable
extractProfileTable(const ProfiledModel &pm)
{
    ProfileTable table;
    table.source = "roofline:" + pm.model.name;
    table.layers.reserve(pm.layers.size());
    for (const ProfiledLayer &layer : pm.layers)
        table.layers.push_back(layer.units);
    return table;
}

void
applyProfileTable(ProfiledModel &pm, const ProfileTable &table)
{
    ParseStatus status = tryApplyProfileTable(pm, table);
    if (!status.ok())
        ADAPIPE_FATAL(status.error());
}

ParseStatus
tryApplyProfileTable(ProfiledModel &pm, const ProfileTable &table)
{
    // Validate the full structure before mutating anything so a
    // mismatching table leaves the model intact.
    if (table.layers.size() != pm.layers.size()) {
        return ParseStatus::failure(
            "profile table has " + std::to_string(table.layers.size()) +
            " layers, model has " + std::to_string(pm.layers.size()));
    }
    for (std::size_t l = 0; l < pm.layers.size(); ++l) {
        const auto &units = pm.layers[l].units;
        const auto &replacement = table.layers[l];
        if (replacement.size() != units.size()) {
            return ParseStatus::failure(
                "layer " + std::to_string(l) + ": profile table has " +
                std::to_string(replacement.size()) +
                " units, model has " + std::to_string(units.size()));
        }
        for (std::size_t u = 0; u < units.size(); ++u) {
            if (replacement[u].name != units[u].name) {
                return ParseStatus::failure(
                    "layer " + std::to_string(l) + " unit " +
                    std::to_string(u) + ": name mismatch '" +
                    replacement[u].name + "' vs '" + units[u].name +
                    "'");
            }
        }
    }
    for (std::size_t l = 0; l < pm.layers.size(); ++l) {
        auto &units = pm.layers[l].units;
        const auto &replacement = table.layers[l];
        for (std::size_t u = 0; u < units.size(); ++u)
            units[u] = replacement[u];
        // Raw-layer memory stays authoritative for baselines; keep
        // the two views consistent.
        auto &raw = pm.rawLayers[l].units;
        for (std::size_t u = 0; u < raw.size(); ++u) {
            raw[u].memSaved = replacement[u].memSaved;
            raw[u].alwaysSaved = replacement[u].alwaysSaved;
        }
    }
    return parseOk();
}

} // namespace adapipe
