#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/sinks.h"
#include "util/file_io.h"

namespace perfbench {

namespace {

std::string
numberText(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

void
Report::set(const std::string &name, double value, std::int64_t samples)
{
    if (!std::isfinite(value)) {
        fail("metric '" + name + "' is not finite");
        value = 0;
    }
    values_[name] = Value{value, samples};
}

void
Report::attempt(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Report::fail(const std::string &reason)
{
    failures_.push_back(reason);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::print() const
{
    for (const std::string &line : notes_)
        std::cout << line << "\n";
    for (const std::string &reason : failures_)
        std::cout << "FAILED: " << reason << "\n";
    std::cout << "{\"correct\": " << (failures_.empty() ? "true" : "false")
              << ", \"attempted\": " << std::max<std::int64_t>(attempted_, 1)
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : values_) {
        std::cout << (first ? "" : ", ") << "\"" << jsonEscape(name)
                  << "\": {\"value\": " << numberText(v.value)
                  << ", \"samples\": " << v.samples << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantileOf(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t quarter = values.size() / 4;
    double sum = 0;
    for (std::size_t i = quarter; i < values.size() - quarter; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * quarter);
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    // SplitMix64 finaliser over a combined key.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                      stream * 0xBF58476D1CE4E5B9ULL +
                      index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return static_cast<double>(mix(seed, stream, index) >> 11) *
           (1.0 / 9007199254740992.0);
}

bool
keepTiming(double start, double seconds, std::size_t samples,
           std::size_t min_samples)
{
    const double elapsed = now() - start;
    if (elapsed >= 4 * seconds)
        return false;
    return elapsed < seconds || samples < min_samples;
}

std::string
latencyLine(const std::vector<double> &latency_ms)
{
    std::ostringstream oss;
    oss << "latency (informational, not in BENCHMARK.json): p50 "
        << median(latency_ms) << " ms, p90 ";
    if (latency_ms.size() < 100)
        oss << "not reported (" << latency_ms.size() << " < 100 samples)";
    else
        oss << quantileOf(latency_ms, 0.9) << " ms";
    return oss.str();
}

void
writeChromeTrace(const RunArgs &args, const adapipe::obs::Registry &trace,
                 Report &report)
{
    const std::string path = args.outDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    const adapipe::ParseStatus wrote =
        adapipe::writeTextFile(path, adapipe::obs::spansToChromeTrace(trace));
    report.note(wrote.ok() ? "chrome trace: " + path
                           : "chrome trace not written: " + wrote.error());
}

std::string
hostRecord()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    std::ostringstream oss;
    oss << "host: nproc=" << std::thread::hardware_concurrency()
        << " cpu=\"" << cpu << "\" compiler=\"" << PERFBENCH_COMPILER
        << "\" build_type=" << PERFBENCH_BUILD_TYPE;
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release")
        oss << "\nWARNING: build type " << type
            << " is not Release; timings are not comparable";
    return oss.str();
}

} // namespace perfbench
