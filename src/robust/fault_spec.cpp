#include "robust/fault_spec.h"

#include "util/file_io.h"
#include "util/json_reader.h"

namespace adapipe {

namespace {

/** SplitMix64 finalizer: the avalanche core of the seeding scheme. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kStreamStall = 0x5354414C4Cull; // "STALL"

} // namespace

double
faultUniform(std::uint64_t seed, std::uint64_t id, std::uint64_t stream)
{
    const std::uint64_t h = mix64(mix64(seed ^ mix64(stream)) ^ id);
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double
slowdownFactor(const std::vector<DeviceSlowdown> &slowdowns, int device)
{
    double factor = 1.0;
    for (const DeviceSlowdown &s : slowdowns) {
        if (s.device == device)
            factor *= s.factor;
    }
    return factor;
}

Seconds
stallDelay(const TransientStalls &stalls, std::uint64_t seed,
           std::uint64_t opId)
{
    if (stalls.probability <= 0 || stalls.base <= 0)
        return 0;
    Seconds delay = 0;
    Seconds backoff = stalls.base;
    for (int attempt = 0; attempt < stalls.maxRetries; ++attempt) {
        const double u = faultUniform(
            seed, opId, kStreamStall + static_cast<std::uint64_t>(attempt));
        if (u >= stalls.probability)
            break;
        delay += backoff;
        backoff *= 2;
    }
    return delay;
}

std::uint64_t
faultOpId(int chain, int pos, int micro_batch, bool forward)
{
    std::uint64_t id = static_cast<std::uint64_t>(chain & 0xFFFF);
    id = (id << 16) | static_cast<std::uint64_t>(pos & 0xFFFF);
    id = (id << 24) | static_cast<std::uint64_t>(micro_batch & 0xFFFFFF);
    id = (id << 1) | (forward ? 1u : 0u);
    return mix64(id);
}

JsonValue
faultSpecToJson(const FaultSpec &spec)
{
    JsonValue root = JsonValue::object();
    root.set("seed", JsonValue::integer(
                         static_cast<std::int64_t>(spec.seed)));
    JsonValue slowdowns = JsonValue::array();
    for (const DeviceSlowdown &s : spec.slowdowns) {
        JsonValue entry = JsonValue::object();
        entry.set("device", JsonValue::integer(s.device));
        entry.set("factor", JsonValue::number(s.factor));
        slowdowns.push(std::move(entry));
    }
    root.set("slowdowns", std::move(slowdowns));
    JsonValue stalls = JsonValue::object();
    stalls.set("probability", JsonValue::number(spec.stalls.probability));
    stalls.set("base", JsonValue::number(spec.stalls.base));
    stalls.set("max_retries", JsonValue::integer(spec.stalls.maxRetries));
    root.set("stalls", std::move(stalls));
    JsonValue failure = JsonValue::object();
    failure.set("device", JsonValue::integer(spec.failure.device));
    failure.set("at", JsonValue::number(spec.failure.at));
    root.set("failure", std::move(failure));
    return root;
}

ParseResult<FaultSpec>
faultSpecFromJson(const JsonValue &json)
{
    return readJson<FaultSpec>(json, "fault", [](const JsonReader &root) {
        FaultSpec spec;
        if (root.has("seed")) {
            spec.seed = static_cast<std::uint64_t>(
                root.key("seed").asInteger());
        }
        if (root.has("slowdowns")) {
            const JsonReader slowdowns = root.key("slowdowns");
            for (std::size_t i = 0; i < slowdowns.size(); ++i) {
                const JsonReader entry = slowdowns.at(i);
                DeviceSlowdown s;
                s.device = static_cast<int>(
                    entry.key("device").asInteger());
                s.factor = entry.key("factor").asNumber();
                if (s.device < 0)
                    entry.key("device").fail("must be non-negative");
                if (s.factor < 1.0)
                    entry.key("factor").fail("must be >= 1");
                spec.slowdowns.push_back(s);
            }
        }
        if (root.has("stalls")) {
            const JsonReader stalls = root.key("stalls");
            spec.stalls.probability =
                stalls.key("probability").asNumber();
            if (spec.stalls.probability < 0 ||
                spec.stalls.probability >= 1) {
                stalls.key("probability").fail("must be in [0, 1)");
            }
            spec.stalls.base = stalls.key("base").asNumber();
            if (spec.stalls.base < 0)
                stalls.key("base").fail("must be non-negative");
            if (stalls.has("max_retries")) {
                spec.stalls.maxRetries = static_cast<int>(
                    stalls.key("max_retries").asInteger());
                if (spec.stalls.maxRetries < 0)
                    stalls.key("max_retries").fail(
                        "must be non-negative");
            }
        }
        if (root.has("failure")) {
            const JsonReader failure = root.key("failure");
            spec.failure.device = static_cast<int>(
                failure.key("device").asInteger());
            spec.failure.at = failure.key("at").asNumber();
            if (spec.failure.at < 0)
                failure.key("at").fail("must be non-negative");
        }
        return spec;
    });
}

ParseResult<FaultSpec>
faultSpecFromJsonString(const std::string &text)
{
    ParseResult<JsonValue> doc = JsonValue::tryParse(text);
    if (!doc.ok())
        return ParseResult<FaultSpec>::failure(doc.error());
    return faultSpecFromJson(doc.value());
}

ParseResult<FaultSpec>
loadFaultSpecFile(const std::string &path)
{
    ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<FaultSpec>::failure(text.error());
    ParseResult<FaultSpec> spec =
        faultSpecFromJsonString(text.value());
    if (!spec.ok())
        return ParseResult<FaultSpec>::failure(path + ": " +
                                               spec.error());
    return spec;
}

} // namespace adapipe
