#include "runtime/fault_injector.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/macros.h"
#include "runtime/channel.h"
#include "util/file_io.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace adapipe {

namespace {

/** Sleep quantum: injected delays poll the cancel flag this often so
 *  shutdown never waits on a long (or infinite) injected sleep. */
constexpr double kSleepQuantumUs = 1000.0;

/** faultUniform stream of the send-delay jitter draws. */
constexpr std::uint64_t kStreamSendJitter = 0x4A4954544552ull; // "JITTER"

} // namespace

bool
RuntimeFaultSpec::empty() const
{
    return slowdowns.empty() && stalls.probability <= 0 &&
           sendDelayUs <= 0 && crash.worker < 0;
}

const char *
faultEventKindName(FaultEventKind kind)
{
    switch (kind) {
    case FaultEventKind::Stall:
        return "stall";
    case FaultEventKind::Slowdown:
        return "slowdown";
    case FaultEventKind::SendDelay:
        return "send_delay";
    case FaultEventKind::Crash:
        return "crash";
    }
    return "?";
}

std::string
faultEventSignature(const FaultEvent &event)
{
    std::string sig = faultEventKindName(event.kind);
    sig += " w" + std::to_string(event.worker);
    sig += " pos" + std::to_string(event.pos);
    sig += " step" + std::to_string(event.step);
    sig += " mb" + std::to_string(event.microBatch);
    sig += event.forward ? " fwd" : " bwd";
    // The slowdown delay is (factor - 1) x the measured op time —
    // wall clock, not seed — so it stays out of the signature.
    if (event.kind == FaultEventKind::Stall ||
        event.kind == FaultEventKind::SendDelay) {
        sig += " us" + std::to_string(
                           static_cast<std::int64_t>(event.us));
    }
    return sig;
}

FaultInjector::FaultInjector(const RuntimeFaultSpec &spec,
                             int num_workers)
    : spec_(spec), perWorker_(static_cast<std::size_t>(num_workers))
{
}

void
FaultInjector::record(FaultEvent event)
{
    perWorker_[static_cast<std::size_t>(event.worker)].push_back(
        event);
}

void
FaultInjector::sleepUs(double us)
{
    while (us > 0) {
        if (cancelled_.load(std::memory_order_relaxed))
            throw ChannelClosedError{};
        const double chunk = std::min(us, kSleepQuantumUs);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(chunk));
        us -= chunk;
    }
}

void
FaultInjector::hangUntilCancelled()
{
    for (;;) {
        if (cancelled_.load(std::memory_order_relaxed))
            throw ChannelClosedError{};
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(
                kSleepQuantumUs));
    }
}

void
FaultInjector::beforeOp(int worker, int pos, int step,
                        int micro_batch, bool forward,
                        std::int64_t ops_this_step)
{
    if (worker == spec_.crash.worker && step == spec_.crash.step &&
        ops_this_step == spec_.crash.afterOps) {
        FaultEvent event;
        event.kind = FaultEventKind::Crash;
        event.worker = worker;
        event.pos = pos;
        event.step = step;
        event.microBatch = micro_batch;
        event.forward = forward;
        record(event);
        ADAPIPE_OBS_COUNT("fault.injected_crashes", 1);
        if (spec_.crash.hang)
            hangUntilCancelled();
        throw InjectedCrashError(
            "injected crash at step " + std::to_string(step) +
            " after " + std::to_string(ops_this_step) + " ops");
    }

    const Seconds stall =
        stallDelay(spec_.stalls, spec_.seed,
                   faultOpId(step, pos, micro_batch, forward));
    if (stall > 0) {
        FaultEvent event;
        event.kind = FaultEventKind::Stall;
        event.worker = worker;
        event.pos = pos;
        event.step = step;
        event.microBatch = micro_batch;
        event.forward = forward;
        event.us = stall * 1e6;
        record(event);
        ADAPIPE_OBS_COUNT("fault.injected_stalls", 1);
        sleepUs(event.us);
    }
}

void
FaultInjector::afterOp(int worker, int pos, int step, int micro_batch,
                       bool forward, double op_us)
{
    const double factor = slowdownFactor(spec_.slowdowns, worker);
    if (factor <= 1.0)
        return;
    FaultEvent event;
    event.kind = FaultEventKind::Slowdown;
    event.worker = worker;
    event.pos = pos;
    event.step = step;
    event.microBatch = micro_batch;
    event.forward = forward;
    event.us = (factor - 1.0) * op_us;
    record(event);
    ADAPIPE_OBS_COUNT("fault.injected_slowdowns", 1);
    sleepUs(event.us);
}

void
FaultInjector::beforeSend(int worker, int pos, int step,
                          int micro_batch, bool forward)
{
    if (spec_.sendDelayUs <= 0)
        return;
    FaultEvent event;
    event.kind = FaultEventKind::SendDelay;
    event.worker = worker;
    event.pos = pos;
    event.step = step;
    event.microBatch = micro_batch;
    event.forward = forward;
    // The jitter factor is drawn uniformly from
    // [1, 1 + sendDelayJitter].
    event.us = spec_.sendDelayUs *
               (1.0 + spec_.sendDelayJitter *
                          faultUniform(spec_.seed,
                                       faultOpId(step, pos, micro_batch,
                                                 forward),
                                       kStreamSendJitter));
    record(event);
    ADAPIPE_OBS_COUNT("fault.injected_send_delays", 1);
    sleepUs(event.us);
}

void
FaultInjector::cancelSleeps()
{
    cancelled_.store(true, std::memory_order_relaxed);
}

std::vector<FaultEvent>
FaultInjector::events() const
{
    std::vector<FaultEvent> merged;
    for (const std::vector<FaultEvent> &log : perWorker_)
        merged.insert(merged.end(), log.begin(), log.end());
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const FaultEvent &a, const FaultEvent &b) {
            if (a.step != b.step)
                return a.step < b.step;
            if (a.pos != b.pos)
                return a.pos < b.pos;
            if (a.microBatch != b.microBatch)
                return a.microBatch < b.microBatch;
            if (a.forward != b.forward)
                return a.forward && !b.forward;
            return static_cast<int>(a.kind) <
                   static_cast<int>(b.kind);
        });
    return merged;
}

JsonValue
runtimeFaultSpecToJson(const RuntimeFaultSpec &spec)
{
    JsonValue root = JsonValue::object();
    root.set("seed",
             JsonValue::integer(static_cast<std::int64_t>(spec.seed)));

    JsonValue slowdowns = JsonValue::array();
    for (const DeviceSlowdown &s : spec.slowdowns) {
        JsonValue one = JsonValue::object();
        one.set("worker", JsonValue::integer(s.device));
        one.set("factor", JsonValue::number(s.factor));
        slowdowns.push(std::move(one));
    }
    root.set("slowdowns", std::move(slowdowns));

    JsonValue stalls = JsonValue::object();
    stalls.set("probability",
               JsonValue::number(spec.stalls.probability));
    stalls.set("base", JsonValue::number(spec.stalls.base));
    stalls.set("max_retries",
               JsonValue::integer(spec.stalls.maxRetries));
    root.set("stalls", std::move(stalls));

    JsonValue send = JsonValue::object();
    send.set("us", JsonValue::number(spec.sendDelayUs));
    send.set("jitter", JsonValue::number(spec.sendDelayJitter));
    root.set("send_delay", std::move(send));

    JsonValue crash = JsonValue::object();
    crash.set("worker", JsonValue::integer(spec.crash.worker));
    crash.set("step", JsonValue::integer(spec.crash.step));
    crash.set("after_ops", JsonValue::integer(spec.crash.afterOps));
    crash.set("hang", JsonValue::boolean(spec.crash.hang));
    root.set("crash", std::move(crash));
    return root;
}

ParseResult<RuntimeFaultSpec>
tryRuntimeFaultSpecFromJson(const JsonValue &json)
{
    return readJson<RuntimeFaultSpec>(
        json, "runtime_fault", [](JsonReader root) {
            RuntimeFaultSpec spec;
            const std::int64_t seed = root.key("seed").asInteger();
            spec.seed = static_cast<std::uint64_t>(seed);

            const JsonReader slowdowns = root.key("slowdowns");
            for (std::size_t i = 0; i < slowdowns.size(); ++i) {
                const JsonReader one = slowdowns.at(i);
                DeviceSlowdown s;
                s.device = static_cast<int>(
                    one.key("worker").asInteger());
                if (s.device < 0)
                    one.key("worker").fail("worker must be >= 0");
                s.factor = one.key("factor").asNumber();
                if (s.factor < 1.0)
                    one.key("factor").fail("factor must be >= 1");
                spec.slowdowns.push_back(s);
            }

            const JsonReader stalls = root.key("stalls");
            spec.stalls.probability =
                stalls.key("probability").asNumber();
            if (spec.stalls.probability < 0 ||
                spec.stalls.probability >= 1) {
                stalls.key("probability")
                    .fail("probability must be in [0, 1)");
            }
            spec.stalls.base = stalls.key("base").asNumber();
            if (spec.stalls.base < 0)
                stalls.key("base").fail("base must be >= 0");
            spec.stalls.maxRetries = static_cast<int>(
                stalls.key("max_retries").asInteger());
            if (spec.stalls.maxRetries < 0) {
                stalls.key("max_retries")
                    .fail("max_retries must be >= 0");
            }

            const JsonReader send = root.key("send_delay");
            spec.sendDelayUs = send.key("us").asNumber();
            if (spec.sendDelayUs < 0)
                send.key("us").fail("us must be >= 0");
            spec.sendDelayJitter = send.key("jitter").asNumber();
            if (spec.sendDelayJitter < 0)
                send.key("jitter").fail("jitter must be >= 0");

            const JsonReader crash = root.key("crash");
            spec.crash.worker = static_cast<int>(
                crash.key("worker").asInteger());
            if (spec.crash.worker < -1)
                crash.key("worker").fail("worker must be >= -1");
            spec.crash.step = static_cast<int>(
                crash.key("step").asInteger());
            if (spec.crash.step < 0)
                crash.key("step").fail("step must be >= 0");
            spec.crash.afterOps = crash.key("after_ops").asInteger();
            if (spec.crash.afterOps < 0)
                crash.key("after_ops").fail("after_ops must be >= 0");
            spec.crash.hang = crash.key("hang").asBool();
            return spec;
        });
}

ParseResult<RuntimeFaultSpec>
tryRuntimeFaultSpecFromJsonString(const std::string &text)
{
    ParseResult<JsonValue> json = JsonValue::tryParse(text);
    if (!json.ok())
        return ParseResult<RuntimeFaultSpec>::failure(json.error());
    return tryRuntimeFaultSpecFromJson(json.value());
}

ParseResult<RuntimeFaultSpec>
loadRuntimeFaultSpecFile(const std::string &path)
{
    ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<RuntimeFaultSpec>::failure(text.error());
    ParseResult<RuntimeFaultSpec> spec =
        tryRuntimeFaultSpecFromJsonString(text.value());
    if (!spec.ok()) {
        return ParseResult<RuntimeFaultSpec>::failure(path + ": " +
                                                      spec.error());
    }
    return spec;
}

} // namespace adapipe
