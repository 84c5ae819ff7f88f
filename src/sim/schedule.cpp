#include "sim/schedule.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace adapipe {

namespace {

/** Append one op and return its index. */
std::size_t
addOp(Schedule &sched, int device, int pos, int chain, int mb,
      OpKind kind, int samples = 1)
{
    PipeOp op;
    op.device = device;
    op.pos = pos;
    op.chain = chain;
    op.microBatch = mb;
    op.samples = samples;
    op.kind = kind;
    sched.ops.push_back(op);
    return sched.ops.size() - 1;
}

} // namespace

Schedule
buildGPipe(int p, int n)
{
    ADAPIPE_ASSERT(p >= 1 && n >= 1, "invalid GPipe configuration");
    Schedule sched;
    sched.name = "GPipe";
    sched.numDevices = p;
    sched.chainLength = p;
    sched.numMicroBatches = n;
    sched.chainMicroBatches = {n};
    sched.numChains = 1;
    sched.deviceOrder.resize(p);

    for (int s = 0; s < p; ++s) {
        for (int mb = 0; mb < n; ++mb) {
            sched.deviceOrder[s].push_back(
                addOp(sched, s, s, 0, mb, OpKind::Forward));
        }
        for (int mb = 0; mb < n; ++mb) {
            sched.deviceOrder[s].push_back(
                addOp(sched, s, s, 0, mb, OpKind::Backward));
        }
    }
    return sched;
}

Schedule
build1F1B(int p, int n)
{
    ADAPIPE_ASSERT(p >= 1 && n >= 1, "invalid 1F1B configuration");
    Schedule sched;
    sched.name = "1F1B";
    sched.numDevices = p;
    sched.chainLength = p;
    sched.numMicroBatches = n;
    sched.chainMicroBatches = {n};
    sched.numChains = 1;
    sched.deviceOrder.resize(p);

    for (int s = 0; s < p; ++s) {
        // Warmup: p - s - 1 forwards, capped by n.
        const int warm = std::min(p - s - 1, n);
        auto &order = sched.deviceOrder[s];
        for (int mb = 0; mb < warm; ++mb)
            order.push_back(addOp(sched, s, s, 0, mb, OpKind::Forward));
        // Steady: alternate forward of mb k with backward of k - warm.
        for (int mb = warm; mb < n; ++mb) {
            order.push_back(addOp(sched, s, s, 0, mb, OpKind::Forward));
            order.push_back(
                addOp(sched, s, s, 0, mb - warm, OpKind::Backward));
        }
        // Ending: drain the remaining warm backwards.
        for (int mb = n - warm; mb < n; ++mb)
            order.push_back(addOp(sched, s, s, 0, mb, OpKind::Backward));
    }
    return sched;
}

ParseResult<Schedule>
tryBuildInterleaved1F1B(int p, int n, int v)
{
    // Reject bad configurations with the field names used by the
    // plan/CLI schema so the diagnostic points at the input to fix.
    if (p < 1) {
        return ParseResult<Schedule>::failure(
            "interleaved 1F1B: parallel.pipeline must be >= 1, got " +
            std::to_string(p));
    }
    if (n < 1) {
        return ParseResult<Schedule>::failure(
            "interleaved 1F1B: micro_batches must be >= 1, got " +
            std::to_string(n));
    }
    if (v < 1) {
        return ParseResult<Schedule>::failure(
            "interleaved 1F1B: virtual_stages must be >= 1, got " +
            std::to_string(v));
    }
    if (v > 1 && n % p != 0) {
        return ParseResult<Schedule>::failure(
            "interleaved 1F1B: micro_batches (" + std::to_string(n) +
            ") must be divisible by parallel.pipeline (" +
            std::to_string(p) + ") when virtual_stages > 1");
    }
    if (v == 1)
        return ParseResult<Schedule>::success(build1F1B(p, n));

    Schedule sched;
    sched.name = "Interleaved1F1B(v=" + std::to_string(v) + ")";
    sched.numDevices = p;
    sched.chainLength = v * p;
    sched.numMicroBatches = n;
    sched.chainMicroBatches = {n};
    sched.numChains = 1;
    sched.deviceOrder.resize(p);

    // Megatron's step enumeration: forward step k on a rank maps to
    // local chunk (k / p) % v and micro-batch (k / (p v)) p + k % p;
    // backward steps walk the chunks in reverse.
    const int total = n * v;
    auto fwd_of = [&](int k) {
        const int group = k / p;
        const int chunk = group % v;
        const int mb = (group / v) * p + k % p;
        return std::pair<int, int>(chunk, mb);
    };
    auto bwd_of = [&](int k) {
        const int group = k / p;
        const int chunk = v - 1 - group % v;
        const int mb = (group / v) * p + k % p;
        return std::pair<int, int>(chunk, mb);
    };

    for (int r = 0; r < p; ++r) {
        auto &order = sched.deviceOrder[r];
        const int warmup =
            std::min((p - r - 1) * 2 + (v - 1) * p, total);
        auto add_fwd = [&](int k) {
            const auto [chunk, mb] = fwd_of(k);
            order.push_back(addOp(sched, r, chunk * p + r, 0, mb,
                                  OpKind::Forward));
        };
        auto add_bwd = [&](int k) {
            const auto [chunk, mb] = bwd_of(k);
            order.push_back(addOp(sched, r, chunk * p + r, 0, mb,
                                  OpKind::Backward));
        };
        for (int k = 0; k < warmup; ++k)
            add_fwd(k);
        for (int k = warmup; k < total; ++k) {
            add_fwd(k);
            add_bwd(k - warmup);
        }
        for (int k = total - warmup; k < total; ++k)
            add_bwd(k);
    }
    return ParseResult<Schedule>::success(std::move(sched));
}

Schedule
buildChimera(int p, int n)
{
    ADAPIPE_ASSERT(p >= 2 && p % 2 == 0,
                   "Chimera requires an even pipeline size, got ", p);
    ADAPIPE_ASSERT(n >= 2 && n % 2 == 0,
                   "Chimera requires an even micro-batch count, got ",
                   n);
    Schedule sched;
    sched.name = "Chimera";
    sched.numDevices = p;
    sched.chainLength = p;
    sched.numMicroBatches = n;
    sched.chainMicroBatches = {n / 2, n / 2};
    sched.numChains = 2;
    sched.unitSize = p / 2; // p micro-batches per scheduling unit

    // Down chain: position k on device k; up chain: position k on
    // device p-1-k. The greedy scheduler decides the order.
    for (int chain = 0; chain < 2; ++chain) {
        for (int mb = 0; mb < n / 2; ++mb) {
            for (int k = 0; k < p; ++k) {
                const int device = chain == 0 ? k : p - 1 - k;
                addOp(sched, device, k, chain, mb, OpKind::Forward);
                addOp(sched, device, k, chain, mb, OpKind::Backward);
            }
        }
    }
    return sched;
}

Schedule
buildChimeraD(int p, int n)
{
    ADAPIPE_ASSERT(p >= 2 && p % 2 == 0,
                   "ChimeraD requires an even pipeline size, got ", p);
    ADAPIPE_ASSERT(n >= 4 && n % 4 == 0,
                   "ChimeraD requires n divisible by 4, got ", n);
    Schedule sched;
    sched.name = "ChimeraD";
    sched.numDevices = p;
    sched.chainLength = p;
    sched.numMicroBatches = n;
    sched.chainMicroBatches = {n / 2, n / 2};
    sched.numChains = 2;
    sched.unitSize = p / 2;

    for (int chain = 0; chain < 2; ++chain) {
        for (int mb = 0; mb < n / 2; mb += 2) {
            for (int k = 0; k < p; ++k) {
                const int device = chain == 0 ? k : p - 1 - k;
                // Doubled forward covers micro-batches mb and mb+1.
                addOp(sched, device, k, chain, mb, OpKind::Forward, 2);
                addOp(sched, device, k, chain, mb, OpKind::Backward);
                addOp(sched, device, k, chain, mb + 1,
                      OpKind::Backward);
            }
        }
    }
    return sched;
}

} // namespace adapipe
