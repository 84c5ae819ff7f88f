/**
 * @file
 * Tests for the fault-tolerant runtime: timeout-capable channels,
 * seeded runtime fault injection, watchdog stall detection,
 * training-state snapshots and replan-and-resume recovery.
 *
 * The load-bearing claims: (1) a snapshot/restore cycle is bit-exact
 * — the resumed run's losses equal the uninterrupted run's, on any
 * stage partition — and (2) a crashed run recovered onto fewer
 * stages finishes with the exact loss trajectory of a run that never
 * crashed. runtime_differential_test checks that a fixed fault seed
 * fires the same injected-fault sequence at any intra-stage-thread
 * count, and runs seeded crashes through recovery across the whole
 * knob product.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "autograd/trainer.h"
#include "core/planner.h"
#include "robust/replan_io.h"
#include "runtime/channel.h"
#include "runtime/fault_injector.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/plan_mapping.h"
#include "runtime/recovery.h"
#include "runtime/snapshot.h"
#include "util/canonical_json.h"
#include "util/file_io.h"
#include "util/json.h"

#include "runtime_fixtures.h"

namespace adapipe {
namespace {

/** Fresh per-test file path under the gtest temp dir. */
std::string
tmpPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

TEST(ChannelTimeout, RecvTimesOutThenDelivers)
{
    BoundedChannel<int> chan(2);
    int got = 0;
    double waited_us = 0;
    EXPECT_EQ(chan.tryRecvFor(got,
                              std::chrono::microseconds(2000),
                              &waited_us),
              ChannelStatus::TimedOut);
    EXPECT_GT(waited_us, 0.0);
    chan.send(9);
    EXPECT_EQ(chan.tryRecvFor(got,
                              std::chrono::microseconds(2000),
                              &waited_us),
              ChannelStatus::Ok);
    EXPECT_EQ(got, 9);
}

TEST(ChannelTimeout, SendTimesOutOnFullChannel)
{
    BoundedChannel<int> chan(1);
    chan.send(1);
    int item = 2;
    EXPECT_EQ(chan.trySendFor(item,
                              std::chrono::microseconds(2000)),
              ChannelStatus::TimedOut);
    EXPECT_EQ(chan.recv(), 1);
    EXPECT_EQ(chan.trySendFor(item,
                              std::chrono::microseconds(2000)),
              ChannelStatus::Ok);
    EXPECT_EQ(chan.recv(), 2);
}

TEST(ChannelTimeout, ClosedChannelDrainsThenReportsClosed)
{
    BoundedChannel<int> chan(2);
    chan.send(5);
    chan.close();
    int got = 0;
    // Queued items still come out after close ...
    EXPECT_EQ(chan.tryRecvFor(got, std::chrono::microseconds(1000)),
              ChannelStatus::Ok);
    EXPECT_EQ(got, 5);
    // ... and only then does the shutdown surface, without blocking
    // for the timeout.
    EXPECT_EQ(chan.tryRecvFor(got, std::chrono::microseconds(1000)),
              ChannelStatus::Closed);
    int item = 6;
    EXPECT_EQ(chan.trySendFor(item,
                              std::chrono::microseconds(1000)),
              ChannelStatus::Closed);
}

TEST(RuntimeFaultSpec, JsonRoundTrip)
{
    RuntimeFaultSpec spec;
    spec.seed = 99;
    spec.slowdowns.push_back({1, 2.5});
    spec.stalls.probability = 0.25;
    spec.stalls.base = 1e-4;
    spec.stalls.maxRetries = 2;
    spec.sendDelayUs = 150;
    spec.sendDelayJitter = 0.5;
    spec.crash.worker = 1;
    spec.crash.step = 3;
    spec.crash.afterOps = 2;
    spec.crash.hang = true;

    const std::string text =
        runtimeFaultSpecToJson(spec).dump(2);
    const auto parsed = tryRuntimeFaultSpecFromJsonString(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    const RuntimeFaultSpec &back = parsed.value();
    EXPECT_EQ(back.seed, spec.seed);
    ASSERT_EQ(back.slowdowns.size(), 1u);
    EXPECT_EQ(back.slowdowns[0].device, 1);
    EXPECT_EQ(back.slowdowns[0].factor, 2.5);
    EXPECT_EQ(back.stalls.probability, 0.25);
    EXPECT_EQ(back.stalls.base, 1e-4);
    EXPECT_EQ(back.stalls.maxRetries, 2);
    EXPECT_EQ(back.sendDelayUs, 150);
    EXPECT_EQ(back.sendDelayJitter, 0.5);
    EXPECT_EQ(back.crash.worker, 1);
    EXPECT_EQ(back.crash.step, 3);
    EXPECT_EQ(back.crash.afterOps, 2);
    EXPECT_TRUE(back.crash.hang);
    EXPECT_FALSE(back.empty());
    EXPECT_TRUE(RuntimeFaultSpec{}.empty());
}

TEST(FaultInjection, ThrowCrashKillsTheNamedWorker)
{
    const TinyLmConfig cfg = smallConfig();
    const RuntimeOptions base = smallOpts(3);
    RuntimeFaultSpec faults;
    faults.crash.worker = 1;
    faults.crash.step = 1;
    faults.crash.afterOps = 2;
    RuntimeOptions opts = base;
    opts.faults = &faults;
    const auto specs =
        evenStageSpecs(cfg.blocks, 3, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.failureKind, RuntimeFailureKind::WorkerError);
    EXPECT_EQ(run.failedWorker, 1);
    EXPECT_NE(run.error.find("injected crash"), std::string::npos)
        << run.error;
    ASSERT_EQ(run.faultEvents.size(), 1u);
    EXPECT_EQ(run.faultEvents[0].kind, FaultEventKind::Crash);
    EXPECT_EQ(run.faultEvents[0].worker, 1);
    EXPECT_EQ(run.faultEvents[0].step, 1);
}

TEST(Watchdog, DetectsASilentlyHungWorker)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeFaultSpec faults;
    faults.crash.worker = 1;
    faults.crash.step = 1;
    faults.crash.afterOps = 1;
    faults.crash.hang = true;
    RuntimeOptions opts = smallOpts(3);
    opts.faults = &faults;
    opts.watchdog.enabled = true;
    opts.watchdog.stallTimeoutUs = 2e5;
    opts.watchdog.pollIntervalUs = 1e4;
    const auto specs =
        evenStageSpecs(cfg.blocks, 3, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.failureKind, RuntimeFailureKind::WatchdogStall);
    EXPECT_EQ(run.failedWorker, 1);
    EXPECT_NE(run.error.find("watchdog"), std::string::npos)
        << run.error;
    EXPECT_GT(run.detectSeconds, 0.0);
}

TEST(Watchdog, HangCrashWithoutWatchdogIsRefused)
{
    // Without the watchdog nothing could ever unblock a silent hang,
    // so the runtime must refuse the configuration up front instead
    // of deadlocking.
    const TinyLmConfig cfg = smallConfig();
    RuntimeFaultSpec faults;
    faults.crash.worker = 0;
    faults.crash.step = 0;
    faults.crash.hang = true;
    RuntimeOptions opts = smallOpts(3);
    opts.faults = &faults;
    const auto specs =
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.failureKind, RuntimeFailureKind::None);
    EXPECT_NE(run.error.find("watchdog"), std::string::npos)
        << run.error;
}

TEST(Snapshot, BytesRoundTripBitExact)
{
    const TinyLmConfig cfg = smallConfig();
    const std::string path = tmpPath("snap_roundtrip.bin");
    RuntimeOptions opts = smallOpts(3);
    opts.snapshot.every = opts.steps;
    opts.snapshot.path = path;
    const auto specs =
        evenStageSpecs(cfg.blocks, 2, BlockRecompute::None);
    TinyLM model(cfg);
    const RuntimeResult run = runPipeline(model, specs, opts);
    ASSERT_TRUE(run.ok) << run.error;

    const auto loaded = loadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    const TrainingSnapshot &snap = loaded.value();
    EXPECT_EQ(snap.version, 1);
    EXPECT_EQ(snap.step, opts.steps);
    EXPECT_EQ(snap.dataSeed, opts.dataSeed);
    EXPECT_EQ(snap.adamT, opts.steps);
    EXPECT_EQ(snap.config.dim, cfg.dim);
    EXPECT_EQ(snap.config.blocks, cfg.blocks);

    // The snapshot holds the post-run parameters bit-for-bit.
    const auto params = model.params();
    ASSERT_EQ(snap.params.size(), params.size());
    ASSERT_EQ(snap.adamM.size(), params.size());
    ASSERT_EQ(snap.adamV.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        const Tensor &have = params[i].value();
        ASSERT_EQ(snap.params[i].numel(), have.numel());
        for (std::int64_t j = 0; j < have.numel(); ++j)
            ASSERT_EQ(snap.params[i][j], have[j]) << i;
    }

    // A serialize/parse cycle preserves every byte of state.
    const auto again = snapshotFromBytes(snapshotToBytes(snap));
    ASSERT_TRUE(again.ok()) << again.error();
    EXPECT_EQ(snapshotToBytes(again.value()),
              snapshotToBytes(snap));

    // Crash consistency: the tmp staging file never survives.
    EXPECT_FALSE(readTextFile(path + ".tmp").ok());
    std::remove(path.c_str());
}

/** The header's blob_checksum is util's FNV-1a-64 of the blob. */
TEST(Snapshot, BlobChecksumIsTheDocumentedFnv1a64)
{
    const TinyLM model(smallConfig());
    const std::string bytes = snapshotToBytes(
        captureTrainingSnapshot(model, {}, /*step=*/0, /*data_seed=*/7));
    // ADAPIPESNAP1\n<header_len>\n<header><blob>
    const std::size_t len_begin = bytes.find('\n') + 1;
    const std::size_t len_end = bytes.find('\n', len_begin);
    const std::size_t header_len = static_cast<std::size_t>(
        std::stoul(bytes.substr(len_begin, len_end - len_begin)));
    const JsonValue header =
        JsonValue::parse(bytes.substr(len_end + 1, header_len));
    const std::string blob = bytes.substr(len_end + 1 + header_len);
    ASSERT_FALSE(blob.empty());
    EXPECT_EQ(header.at("blob_checksum").asString(),
              hex16(fnv1a64(blob)));
}

/**
 * Snapshots hold Adam state only: a header naming any other optimizer
 * fails to parse, with the field's path in the diagnostic.
 */
TEST(Snapshot, SgdHeaderIsRejectedAtParse)
{
    const TinyLM model(smallConfig());
    const std::string bytes = snapshotToBytes(
        captureTrainingSnapshot(model, {}, /*step=*/0, /*data_seed=*/7));
    // ADAPIPESNAP1\n<header_len>\n<header><blob>
    const std::size_t len_begin = bytes.find('\n') + 1;
    const std::size_t len_end = bytes.find('\n', len_begin);
    const std::size_t header_len = static_cast<std::size_t>(
        std::stoul(bytes.substr(len_begin, len_end - len_begin)));
    std::string header = bytes.substr(len_end + 1, header_len);
    const std::string blob = bytes.substr(len_end + 1 + header_len);
    const std::string adam = "\"optimizer\":\"adam\"";
    const std::size_t at = header.find(adam);
    ASSERT_NE(at, std::string::npos) << header;
    header.replace(at, adam.size(), "\"optimizer\":\"sgd\"");

    const auto r = snapshotFromBytes(bytes.substr(0, len_begin) +
                                     std::to_string(header.size()) +
                                     "\n" + header + blob);
    ASSERT_FALSE(r.ok()) << "an sgd snapshot parsed";
    EXPECT_NE(r.error().find("snapshot.optimizer"), std::string::npos)
        << r.error();
    EXPECT_NE(r.error().find("'sgd'"), std::string::npos) << r.error();
}

/**
 * The tentpole bit-exactness claim, part 1: splitting a training job
 * at a snapshot boundary — run k steps, snapshot, restore into a
 * *fresh* process-equivalent model, run the rest — reproduces the
 * uninterrupted run's losses bit-for-bit, at p in {2, 4} times
 * recompute in {none, full}.
 */
TEST(Snapshot, RestoreResumesBitExact)
{
    const TinyLmConfig cfg = smallConfig();
    RuntimeOptions full_opts = smallOpts(3);
    full_opts.steps = 6;

    const BlockRecompute modes[] = {BlockRecompute::None,
                                    BlockRecompute::Full};
    for (const BlockRecompute mode : modes) {
        for (const int p : {2, 4}) {
            const auto specs =
                evenStageSpecs(cfg.blocks, p, mode);
            const auto ref =
                referenceLosses(cfg, full_opts, specs);

            const std::string path = tmpPath("snap_resume.bin");
            RuntimeOptions first = full_opts;
            first.steps = 4;
            first.snapshot.every = 2;
            first.snapshot.path = path;
            TinyLM model(cfg);
            const RuntimeResult head =
                runPipeline(model, specs, first);
            ASSERT_TRUE(head.ok) << head.error;

            const auto loaded = loadSnapshotFile(path);
            ASSERT_TRUE(loaded.ok()) << loaded.error();
            const TrainingSnapshot &snap = loaded.value();
            ASSERT_EQ(snap.step, 4);

            TinyLM resumed(cfg);
            ASSERT_TRUE(restoreTinyLM(resumed, snap).ok());
            RuntimeOptions rest = full_opts;
            rest.firstStep = static_cast<int>(snap.step);
            rest.steps = full_opts.steps - rest.firstStep;
            rest.restore = &snap;
            const RuntimeResult tail =
                runPipeline(resumed, specs, rest);
            ASSERT_TRUE(tail.ok) << tail.error;

            ASSERT_EQ(head.losses.size() + tail.losses.size(),
                      ref.size());
            for (std::size_t i = 0; i < head.losses.size(); ++i) {
                EXPECT_EQ(head.losses[i], ref[i])
                    << "p=" << p << " mode="
                    << static_cast<int>(mode) << " step " << i;
            }
            for (std::size_t i = 0; i < tail.losses.size(); ++i) {
                EXPECT_EQ(tail.losses[i], ref[4 + i])
                    << "p=" << p << " mode="
                    << static_cast<int>(mode) << " step "
                    << (4 + i);
            }
            std::remove(path.c_str());
        }
    }
}

TEST(Snapshot, RestoreRejectsMismatchedConfig)
{
    TinyLmConfig cfg = smallConfig();
    TinyLM model(cfg);
    const TrainingSnapshot snap =
        captureTrainingSnapshot(model, {}, 0, 7);
    TinyLmConfig other = cfg;
    other.dim = 32;
    TinyLM wrong(other);
    const ParseStatus applied = restoreTinyLM(wrong, snap);
    ASSERT_FALSE(applied.ok());
    EXPECT_NE(applied.error().find("dim"), std::string::npos)
        << applied.error();
}

/**
 * The tentpole end-to-end: a worker silently dies at iteration 3 of
 * 6; the watchdog detects it, recovery replans the job onto one
 * fewer stage, restores the step-2 snapshot and resumes — and the
 * stitched loss curve is bit-identical to a run that never crashed.
 */
TEST(Recovery, CrashReplanResumeBitExact)
{
    const TinyLmConfig cfg = smallConfig();
    const int p = 4;
    const auto specs =
        evenStageSpecs(cfg.blocks, p, BlockRecompute::None);
    RuntimeOptions opts = smallOpts(3);
    opts.steps = 6;
    const auto ref = referenceLosses(cfg, opts, specs);

    RuntimeFaultSpec faults;
    faults.crash.worker = 1;
    faults.crash.step = 3;
    faults.crash.afterOps = 2;
    faults.crash.hang = true;
    opts.faults = &faults;
    opts.watchdog.enabled = true;
    opts.watchdog.stallTimeoutUs = 3e5;
    opts.watchdog.pollIntervalUs = 2e4;
    const std::string snap_path = tmpPath("recover_snap.bin");
    opts.snapshot.every = 2;
    opts.snapshot.path = snap_path;

    const ProfiledModel pm = profileTinyLm(cfg, p, 4);
    const PlanResult original =
        makePlan(pm, PlanMethod::AdaPipe, {});
    ASSERT_TRUE(original.ok);

    RecoveryOptions rec;
    rec.pm = &pm;
    rec.originalPlan = &original.plan;
    rec.degradedPlanOut = tmpPath("recover_plan.json");

    TinyLM model(cfg);
    obs::Registry metrics;
    const RecoveryResult res = runPipelineWithRecovery(
        model, specs, opts, rec, &metrics);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.attempts.size(), 1u);
    const RecoveryAttempt &attempt = res.attempts[0];
    EXPECT_EQ(attempt.kind, RuntimeFailureKind::WatchdogStall);
    EXPECT_EQ(attempt.failedWorker, 1);
    EXPECT_TRUE(attempt.restoredFromSnapshot);
    EXPECT_EQ(attempt.resumedFromStep, 2);
    EXPECT_GT(attempt.detectSeconds, 0.0);
    EXPECT_EQ(attempt.newStages, p - 1);
    EXPECT_EQ(res.finalStages, p - 1);

    // The recovered job's losses match the never-crashed run
    // bit-for-bit.
    ASSERT_EQ(res.losses.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(res.losses[i], ref[i]) << "step " << i;

    EXPECT_EQ(metrics.counter("recovery.detections"), 1);
    EXPECT_EQ(metrics.counter("recovery.resumes"), 1);

    // The degraded plan was persisted with provenance and round
    // trips through the plan-io layer.
    const auto doc = loadDegradedPlanFile(rec.degradedPlanOut);
    ASSERT_TRUE(doc.ok()) << doc.error();
    EXPECT_EQ(doc.value().scenario.lostStages, 1);
    EXPECT_EQ(doc.value().originalFingerprint,
              planFingerprint(original.plan));
    EXPECT_EQ(static_cast<int>(doc.value().plan.stages.size()),
              p - 1);
    std::remove(snap_path.c_str());
    std::remove(rec.degradedPlanOut.c_str());
}

TEST(Recovery, CorruptSnapshotIsAHardStop)
{
    const TinyLmConfig cfg = smallConfig();
    const int p = 2;
    const auto specs =
        evenStageSpecs(cfg.blocks, p, BlockRecompute::None);
    RuntimeOptions opts = smallOpts(3);
    opts.steps = 4;
    RuntimeFaultSpec faults;
    faults.crash.worker = 0;
    faults.crash.step = 3;
    faults.crash.afterOps = 0;
    opts.faults = &faults;
    const std::string snap_path = tmpPath("corrupt_snap.bin");
    // The crash fires *before* step 3's snapshot barrier, so the
    // recovering run never overwrites the damaged file itself.
    opts.snapshot.every = 4;
    opts.snapshot.path = snap_path;

    const ProfiledModel pm = profileTinyLm(cfg, p, 4);
    RecoveryOptions rec;
    rec.pm = &pm;

    // Corrupt the snapshot between the write and the recovery read:
    // run once without recovery to produce the file, truncate it,
    // then run the recovering job against the damaged file.
    {
        TinyLM model(cfg);
        RuntimeOptions clean = opts;
        clean.faults = nullptr;
        ASSERT_TRUE(runPipeline(model, specs, clean).ok);
    }
    const auto bytes = readTextFile(snap_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(writeTextFile(snap_path,
                              bytes.value().substr(
                                  0, bytes.value().size() / 2))
                    .ok());

    TinyLM model(cfg);
    const RecoveryResult res =
        runPipelineWithRecovery(model, specs, opts, rec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("corrupt"), std::string::npos)
        << res.error;
    std::remove(snap_path.c_str());
}

} // namespace
} // namespace adapipe
