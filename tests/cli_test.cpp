/**
 * @file
 * Tests for the CLI flag parser, plus subprocess tests that run the
 * real example binaries against bad input and check for a clean
 * nonzero exit with a one-line diagnostic (no abort, no stack trace).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

#include "core/plan_io.h"
#include "core/profiled_model.h"
#include "hw/cluster.h"
#include "obs/macros.h"
#include "runtime/plan_mapping.h"
#include "sim/interleaved_planner.h"
#include "util/cli.h"

namespace adapipe {
namespace {

CliParser
makeParser()
{
    CliParser cli("test");
    cli.addString("name", "default", "a string");
    cli.addInt("count", 7, "an int");
    cli.addFlag("verbose", "a switch");
    return cli;
}

void
parseArgs(CliParser &cli, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsApply)
{
    CliParser cli = makeParser();
    parseArgs(cli, {});
    EXPECT_EQ(cli.getString("name"), "default");
    EXPECT_EQ(cli.getInt("count"), 7);
    EXPECT_FALSE(cli.getFlag("verbose"));
}

TEST(Cli, SpaceSeparatedValues)
{
    CliParser cli = makeParser();
    parseArgs(cli, {"--name", "adapipe", "--count", "42"});
    EXPECT_EQ(cli.getString("name"), "adapipe");
    EXPECT_EQ(cli.getInt("count"), 42);
}

TEST(Cli, EqualsSeparatedValues)
{
    CliParser cli = makeParser();
    parseArgs(cli, {"--name=x", "--count=-3", "--verbose"});
    EXPECT_EQ(cli.getString("name"), "x");
    EXPECT_EQ(cli.getInt("count"), -3);
    EXPECT_TRUE(cli.getFlag("verbose"));
}

TEST(Cli, PositionalArgumentsCollected)
{
    CliParser cli = makeParser();
    parseArgs(cli, {"one", "--count", "1", "two"});
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "one");
    EXPECT_EQ(cli.positional()[1], "two");
}

TEST(Cli, UnknownFlagIsFatal)
{
    CliParser cli = makeParser();
    EXPECT_DEATH(parseArgs(cli, {"--bogus", "1"}), "unknown flag");
}

TEST(Cli, MissingValueIsFatal)
{
    CliParser cli = makeParser();
    EXPECT_DEATH(parseArgs(cli, {"--count"}), "needs a value");
}

TEST(Cli, NonNumericIntIsFatal)
{
    CliParser cli = makeParser();
    EXPECT_DEATH(parseArgs(cli, {"--count", "abc"}),
                 "needs an integer");
}

TEST(Cli, WrongTypeAccessPanics)
{
    CliParser cli = makeParser();
    parseArgs(cli, {});
    EXPECT_DEATH(cli.getInt("name"), "wrong type");
    EXPECT_DEATH(cli.getString("missing"), "undeclared flag");
}

TEST(Cli, UsageListsAllOptions)
{
    CliParser cli = makeParser();
    const std::string usage = cli.usage();
    EXPECT_NE(usage.find("--name"), std::string::npos);
    EXPECT_NE(usage.find("--count"), std::string::npos);
    EXPECT_NE(usage.find("--verbose"), std::string::npos);
    EXPECT_NE(usage.find("default: 7"), std::string::npos);
}

#if defined(ADAPIPE_QUICKSTART_BIN) && defined(ADAPIPE_EXPORT_PLAN_BIN)

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr interleaved
};

/** Run a shell command (redirections pre-applied by the caller). */
RunResult
runRedirected(const std::string &command)
{
    RunResult result;
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe)
        return result;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.output.append(buf, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

/** Run a shell command, capturing combined output and exit code. */
RunResult
runCommand(const std::string &command)
{
    return runRedirected(command + " 2>&1");
}

/** Run a shell command, capturing stdout only. */
RunResult
runCommandStdout(const std::string &command)
{
    return runRedirected(command + " 2>/dev/null");
}

/** Run a shell command, capturing stderr only. */
RunResult
runCommandStderr(const std::string &command)
{
    return runRedirected(command + " 2>&1 1>/dev/null");
}

/** Write @p content to a file under the test temp dir. */
std::string
writeTempFile(const std::string &name, const std::string &content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

TEST(CliProcess, QuickstartReportsMissingProfileFile)
{
    const RunResult r = runCommand(
        std::string(ADAPIPE_QUICKSTART_BIN) +
        " --profile /no/such/dir/profile.json");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("quickstart: error:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("/no/such/dir/profile.json"),
              std::string::npos)
        << r.output;
}

TEST(CliProcess, ExportPlanReportsMalformedProfileField)
{
    const std::string path = writeTempFile(
        "cli_test_bad_profile.json",
        R"({"source": 42, "layers": []})");
    const RunResult r = runCommand(
        std::string(ADAPIPE_EXPORT_PLAN_BIN) +
        " --model gpt3-13b --nodes 1 --tensor 4 --pipeline 1"
        " --data 1 --seq 4096 --profile " + path);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("export_plan: error:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("profile.source"), std::string::npos)
        << r.output;
}

TEST(CliProcess, ExportPlanReportsTruncatedProfileJson)
{
    const std::string path = writeTempFile(
        "cli_test_truncated_profile.json", R"({"source": "x", )");
    const RunResult r = runCommand(
        std::string(ADAPIPE_EXPORT_PLAN_BIN) +
        " --model gpt3-13b --nodes 1 --tensor 4 --pipeline 1"
        " --data 1 --seq 4096 --profile " + path);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("export_plan: error:"), std::string::npos)
        << r.output;
}

TEST(CliProcess, ExportPlanRejectsUnknownModel)
{
    const RunResult r = runCommand(
        std::string(ADAPIPE_EXPORT_PLAN_BIN) + " --model bogus");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown model 'bogus'"),
              std::string::npos)
        << r.output;
}

TEST(CliProcess, UnknownFlagExitsWithUsage)
{
    const RunResult r = runCommand(
        std::string(ADAPIPE_EXPORT_PLAN_BIN) + " --bogus 1");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown flag"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

/**
 * The usage contract every binary honours: --help prints usage to
 * stdout (nothing to stderr) and exits 0; a bad command line prints
 * to stderr (nothing to stdout) and exits 1.
 */
std::vector<std::pair<std::string, std::string>>
usageBinaries()
{
    // (binary, bad command line) pairs. CliParser binaries reject an
    // unknown flag; positional-argument binaries reject a wrong
    // argument count.
    std::vector<std::pair<std::string, std::string>> bins = {
        {ADAPIPE_QUICKSTART_BIN, "--bogus 1"},
        {ADAPIPE_EXPORT_PLAN_BIN, "--bogus 1"},
    };
#ifdef ADAPIPE_PIPELINE_TRAINING_BIN
    bins.emplace_back(ADAPIPE_PIPELINE_TRAINING_BIN, "--bogus 1");
#endif
#ifdef ADAPIPE_PLAN_SERVER_BIN
    bins.emplace_back(ADAPIPE_PLAN_SERVER_BIN, "--bogus 1");
#endif
#ifdef ADAPIPE_PLAN_CLIENT_BIN
    bins.emplace_back(ADAPIPE_PLAN_CLIENT_BIN, "--bogus 1");
#endif
#ifdef ADAPIPE_EXPLAIN_PLAN_BIN
    bins.emplace_back(ADAPIPE_EXPLAIN_PLAN_BIN, "");
#endif
#ifdef ADAPIPE_SCHEDULE_EXPLORER_BIN
    bins.emplace_back(ADAPIPE_SCHEDULE_EXPLORER_BIN,
                      "one two three four five");
#endif
#ifdef ADAPIPE_ROBUSTNESS_REPORT_BIN
    bins.emplace_back(ADAPIPE_ROBUSTNESS_REPORT_BIN, "--bogus 1");
#endif
    return bins;
}

TEST(CliUsage, HelpGoesToStdoutAndExitsZero)
{
    for (const auto &[bin, unused] : usageBinaries()) {
        (void)unused;
        const RunResult out = runCommandStdout(bin + " --help");
        EXPECT_EQ(out.exitCode, 0) << bin;
        EXPECT_NE(out.output.find("usage"), std::string::npos)
            << bin << ": " << out.output;
        const RunResult err = runCommandStderr(bin + " --help");
        EXPECT_EQ(err.exitCode, 0) << bin;
        EXPECT_TRUE(err.output.empty())
            << bin << " wrote to stderr: " << err.output;
    }
}

TEST(CliUsage, BadCommandLinesGoToStderrAndExitOne)
{
    for (const auto &[bin, bad] : usageBinaries()) {
        const RunResult err = runCommandStderr(bin + " " + bad);
        EXPECT_EQ(err.exitCode, 1) << bin;
        EXPECT_FALSE(err.output.empty())
            << bin << " wrote nothing to stderr";
        const RunResult out = runCommandStdout(bin + " " + bad);
        EXPECT_EQ(out.exitCode, 1) << bin;
        EXPECT_TRUE(out.output.empty())
            << bin << " wrote to stdout: " << out.output;
    }
}

#ifdef ADAPIPE_PIPELINE_TRAINING_BIN

const char *const kThrowCrashSpec = R"({
  "seed": 5,
  "slowdowns": [],
  "stalls": {"probability": 0.0, "base": 0.0, "max_retries": 0},
  "send_delay": {"us": 0.0, "jitter": 0.0},
  "crash": {"worker": 1, "step": 2, "after_ops": 1, "hang": false}
})";

const char *const kHangCrashSpec = R"({
  "seed": 5,
  "slowdowns": [],
  "stalls": {"probability": 0.0, "base": 0.0, "max_retries": 0},
  "send_delay": {"us": 0.0, "jitter": 0.0},
  "crash": {"worker": 1, "step": 2, "after_ops": 1, "hang": true}
})";

/** Common tiny-run arguments keeping the subprocess fast. */
std::string
trainingArgs()
{
    return " --stages 3 --steps 4 --recompute none --quiet";
}

/** Extract the "final loss <value> after" token from CLI output. */
std::string
finalLossToken(const std::string &output)
{
    const std::string key = "final loss ";
    const std::size_t pos = output.find(key);
    if (pos == std::string::npos)
        return "";
    const std::size_t end = output.find(" after", pos);
    if (end == std::string::npos)
        return "";
    return output.substr(pos + key.size(),
                         end - pos - key.size());
}

TEST(CliProcess, PipelineTrainingFailsNonzeroNamingTheWorker)
{
    const std::string spec = writeTempFile(
        "cli_test_throw_crash.json", kThrowCrashSpec);
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("runtime failed"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("worker 1"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("injected crash"), std::string::npos)
        << r.output;
}

TEST(CliProcess, PipelineTrainingRejectsMalformedFaultSpec)
{
    const std::string spec = writeTempFile(
        "cli_test_bad_fault.json",
        R"({"seed": 1, "slowdowns": [{"worker": -3, "factor": 2}]})");
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("pipeline_training: error:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("runtime_fault.slowdowns[0].worker"),
              std::string::npos)
        << r.output;
}

TEST(CliProcess, PipelineTrainingRecoversFromAHungWorker)
{
    // Reference: the same job without any fault.
    const RunResult clean = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs());
    ASSERT_EQ(clean.exitCode, 0) << clean.output;
    const std::string want = finalLossToken(clean.output);
    ASSERT_FALSE(want.empty()) << clean.output;

    const std::string spec = writeTempFile(
        "cli_test_hang_crash.json", kHangCrashSpec);
    const std::string snap =
        ::testing::TempDir() + "cli_test_recover_snap.bin";
    std::remove(snap.c_str());
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec +
        " --stall-timeout-ms 300 --snapshot-every 2"
        " --snapshot-path " + snap + " --recover");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("recovery: worker 1"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("replanned onto 2 stages"),
              std::string::npos)
        << r.output;
    // Recovery must not change a single bit of the final loss.
    EXPECT_EQ(finalLossToken(r.output), want) << r.output;
    std::remove(snap.c_str());
}

TEST(CliProcess, PipelineTrainingMetricsHoldTheRecoveryReplan)
{
    // The recovery replan runs on the main thread, so its robust.*
    // and planner.* counters reach --metrics-out only through the
    // registry installed there.
    const std::string spec = writeTempFile(
        "cli_test_metrics_crash.json", kThrowCrashSpec);
    const std::string snap =
        ::testing::TempDir() + "cli_test_metrics_snap.bin";
    const std::string out =
        ::testing::TempDir() + "cli_test_recover_metrics.jsonl";
    std::remove(snap.c_str());
    std::remove(out.c_str());
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec +
        " --snapshot-every 2 --snapshot-path " + snap +
        " --recover --metrics-out " + out);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    std::ifstream in(out);
    std::stringstream metrics;
    metrics << in.rdbuf();
    for (const std::string name : {"robust.replans", "planner.plans"}) {
        EXPECT_NE(metrics.str().find("\"name\":\"" + name + "\""),
                  std::string::npos)
            << name << " missing from " << out;
    }
    std::remove(snap.c_str());
    std::remove(out.c_str());
}

TEST(CliProcess, PipelineTrainingResumesFromASnapshot)
{
    const RunResult clean = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs());
    ASSERT_EQ(clean.exitCode, 0) << clean.output;
    const std::string want = finalLossToken(clean.output);

    const std::string spec = writeTempFile(
        "cli_test_kill_crash.json", kThrowCrashSpec);
    const std::string snap =
        ::testing::TempDir() + "cli_test_resume_snap.bin";
    std::remove(snap.c_str());
    // Killed run leaves a snapshot behind ...
    const RunResult killed = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec +
        " --snapshot-every 2 --snapshot-path " + snap);
    EXPECT_EQ(killed.exitCode, 1) << killed.output;
    // ... and the restarted process finishes the job bit-exactly.
    const RunResult resumed = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --resume-from " + snap);
    EXPECT_EQ(resumed.exitCode, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed from"),
              std::string::npos)
        << resumed.output;
    EXPECT_EQ(finalLossToken(resumed.output), want)
        << resumed.output;
    std::remove(snap.c_str());
}

TEST(CliProcess, PipelineTrainingRejectsMismatchedResumeSeed)
{
    const std::string spec = writeTempFile(
        "cli_test_kill_crash2.json", kThrowCrashSpec);
    const std::string snap =
        ::testing::TempDir() + "cli_test_seed_snap.bin";
    std::remove(snap.c_str());
    const RunResult killed = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --fault-spec " + spec +
        " --snapshot-every 2 --snapshot-path " + snap);
    EXPECT_EQ(killed.exitCode, 1) << killed.output;
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) +
        trainingArgs() + " --resume-from " + snap +
        " --data-seed 9");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("data-seed"), std::string::npos)
        << r.output;
    std::remove(snap.c_str());
}

TEST(CliProcess, PipelineTrainingLabelsHostStagedBlocks)
{
    // A tight memory cap with offload on makes the tri-choice plan
    // stage blocks to host. Those blocks carry the recompute mode
    // None, so the stage table must read the offload flag too.
    TinyLmConfig cfg;
    cfg.vocab = 64;
    cfg.dim = 64;
    cfg.blocks = 8;
    cfg.ffnHidden = 128;
    cfg.maxSeq = 32;
    TrainConfig train;
    train.seqLen = cfg.maxSeq;
    train.microBatch = 1;
    train.globalBatch = 8;
    ParallelConfig par;
    par.tensor = 1;
    par.pipeline = 4;
    par.data = 1;
    StageCostOptions opts;
    opts.memCapacityOverride = 2 * 1024 * 1024;
    opts.offload.enabled = true;
    opts.offload.bandwidth = 6e9;
    const PlanResult planned = makeInterleavedPlan(
        buildProfiledModel(tinyLmModelConfig(cfg), train, par,
                           clusterA(1)),
        PlanMethod::AdaPipe, 1, opts);
    ASSERT_TRUE(planned.ok) << planned.oomReason;
    bool offloads = false;
    for (const StagePlan &stage : planned.plan.stages) {
        for (const bool off : stage.offloadMask)
            offloads = offloads || off;
    }
    ASSERT_TRUE(offloads) << "the plan should stage a unit to host";

    const std::string path = writeTempFile(
        "cli_test_offload_plan.json",
        planToJsonString(planned.plan));
    const RunResult r = runCommand(
        std::string(ADAPIPE_PIPELINE_TRAINING_BIN) + " --plan " +
        path +
        " --blocks 8 --dim 64 --ffn-hidden 128 --vocab 64 --seq 32"
        " --steps 1");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    // Only table rows count: the mapping notes mention offload too.
    bool labelled = false;
    std::istringstream lines(r.output);
    for (std::string line; std::getline(lines, line);) {
        labelled = labelled || (line.rfind("| ", 0) == 0 &&
                                line.find("offload") !=
                                    std::string::npos);
    }
    EXPECT_TRUE(labelled) << r.output;
}

#endif // ADAPIPE_PIPELINE_TRAINING_BIN

#ifdef ADAPIPE_ROBUSTNESS_REPORT_BIN

/** A small GPT-3 13B report under one 1.5x straggler severity, with
 *  the fault spec at @p spec simulated verbatim first. */
RunResult
runReportWithFaultSpec(const std::string &spec)
{
    return runCommand(std::string(ADAPIPE_ROBUSTNESS_REPORT_BIN) +
                      " --model gpt3-13b --nodes 2 --tensor 4"
                      " --pipeline 4 --data 1 --seq 4096"
                      " --global-batch 32 --straggler 1"
                      " --severities 1.5 --fault-spec " +
                      spec);
}

TEST(CliProcess, RobustnessReportSimulatesAStallSpec)
{
    // An old spec's p2p_jitter key is ignored like any key the loader
    // does not read.
    const std::string spec = writeTempFile(
        "cli_test_stall_spec.json",
        R"({"seed": 3, "p2p_jitter": 0.2,
            "stalls": {"probability": 0.3, "base": 0.01,
                       "max_retries": 3}})");
    const RunResult r = runReportWithFaultSpec(spec);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("Fault spec " + spec + ": iteration "),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find(" (stall time "), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find(" (stall time 0.00 ns)"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("Robustness report: GPT-3 13B"),
              std::string::npos)
        << r.output;
}

TEST(CliProcess, RobustnessReportNamesTheFailedDevice)
{
    const std::string spec = writeTempFile(
        "cli_test_failure_spec.json",
        R"({"seed": 1, "failure": {"device": 2, "at": 1.0}})");
    const RunResult r = runReportWithFaultSpec(spec);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("did not complete — device 2 failed"),
              std::string::npos)
        << r.output;
}

#endif // ADAPIPE_ROBUSTNESS_REPORT_BIN

#endif // ADAPIPE_QUICKSTART_BIN && ADAPIPE_EXPORT_PLAN_BIN

} // namespace
} // namespace adapipe
