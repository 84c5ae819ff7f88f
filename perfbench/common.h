/**
 * @file
 * Shared pieces of the AdaPipe benchmark: the per-run report, timing
 * helpers and the host record.
 *
 * The binary prints the metrics it measures, by name, with their
 * sample counts. BENCHMARK.json is the only list of metric names and
 * units: run.py attaches the units and rejects a run whose names do
 * not match that list.
 */

#ifndef ADAPIPE_PERFBENCH_COMMON_H
#define ADAPIPE_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

/**
 * Samples a timed window collects even when --seconds has passed, so
 * every median rests on enough operations on a slow host.
 */
constexpr int kMinSamples = 20;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 7;

/** Command-line arguments every workload receives. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory holding the stored plan documents. */
    std::string plansDir = "perfbench/plans";
    /** Directory receiving the Chrome trace of a traced run. */
    std::string outDir = ".bench_build/out";
};

/**
 * Result of one run: metric values, sample counts and the
 * correctness accounting that ends up on the last output line.
 */
class Report
{
  public:
    /** Set metric @p name, measured over @p samples operations. */
    void set(const std::string &name, double value,
             std::int64_t samples = 1);
    /** Count one attempted operation; @p ok false counts it failed. */
    void attempt(bool ok = true);
    /** Record a correctness failure with its reason. */
    void fail(const std::string &reason);
    /** Record a human-readable line printed before the metrics. */
    void note(const std::string &line);

    /**
     * Print notes, failures and, as the last line, one JSON object:
     * correct, attempted, failed and metrics (name -> value and
     * samples).
     */
    void print() const;

  private:
    struct Value
    {
        double value = 0;
        std::int64_t samples = 0;
    };
    std::map<std::string, Value> values_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/** Monotonic seconds. */
double now();

/** Linear-interpolated quantile; 0 for an empty sample. */
double quantileOf(std::vector<double> values, double q);

/** Median shorthand. */
inline double
median(std::vector<double> values)
{
    return quantileOf(std::move(values), 0.5);
}

/**
 * The mean of the middle half of @p values (the interquartile mean);
 * 0 for an empty sample. latency_ms is this over the scaled operation
 * times: unlike the median it moves smoothly with the mix of requests
 * of different cost, and unlike the mean a few stalled operations
 * cannot move it.
 */
double interquartileMean(std::vector<double> values);

/**
 * Deterministic 64-bit mix of (seed, stream, index): the request
 * draw and per-episode values are pure functions of the seed, so the
 * same seed gives the same inputs no matter how threads interleave.
 */
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

/** Uniform double in [0, 1) from mix(). */
double unit(std::uint64_t seed, std::uint64_t stream,
            std::uint64_t index);

/**
 * Whether a timed window should keep going: until @p seconds have
 * passed and at least @p min_samples were taken, but never past four
 * times the window.
 */
bool keepTiming(double start, double seconds, std::size_t samples,
                std::size_t min_samples = kMinSamples);

/**
 * The informational latency line every untraced run prints: p50 and
 * p90 (from 100 samples on) of @p latency_ms.
 */
std::string latencyLine(const std::vector<double> &latency_ms);

/**
 * Write @p trace's spans as a Chrome trace named after the workload
 * and seed into args.outDir, and note the path (or the error) in
 * @p report.
 */
void writeChromeTrace(const RunArgs &args,
                      const adapipe::obs::Registry &trace, Report &report);

/** Host and build record printed by every run. */
std::string hostRecord();

} // namespace perfbench

#endif // ADAPIPE_PERFBENCH_COMMON_H
