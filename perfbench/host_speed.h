/**
 * @file
 * Scaling of timed operations to a nominal host speed.
 *
 * The benchmark host is a shared VM. The speed of each vCPU drifts on
 * its own, by up to 2x within seconds and for minutes at a time, and
 * no window length averages that away. A fixed loop timed right after
 * an operation, on the same vCPUs, slows down with it: the mean time
 * of a tight planner solve over 10 s stretches spread 0.04-0.09 (IQR
 * / median) on one vCPU, and 0.02 once the thread moved over the vCPUs
 * in turn and each solve was divided by the loop's time right after
 * it. So timed figures are reported at the nominal speed: an
 * operation's time x kNominalCalibrationMs / the per-pass time of the
 * calibration burst run right after it.
 */

#ifndef ADAPIPE_PERFBENCH_HOST_SPEED_H
#define ADAPIPE_PERFBENCH_HOST_SPEED_H

#include <sched.h>

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Milliseconds one pass of the calibration loop takes at the nominal
 * host speed, about its median on the 4-vCPU Xeon VM the benchmark was
 * set up on.
 */
constexpr double kNominalCalibrationMs = 2.5;

/**
 * One pass of the calibration loop: fixed work that no code of the
 * program touches, built in its own library so that compile options
 * of the program's libraries do not reach it.
 * @return a value that depends on all of the work
 */
double calibrationPass();

/** Tokens a calibration burst wider than one thread passes along. */
constexpr int kCalibrationTokens = 2;

/**
 * Milliseconds per pass of one calibration burst of width @p threads.
 *
 * Width 1 is one pass on the calling thread. A wider burst is a
 * miniature pipeline: kCalibrationTokens tokens go forward through
 * @p threads threads and back, each hop after one pass, the threads
 * waiting on a condition variable in between like pipeline stages and
 * backward-engine workers do; its wall time is divided by the
 * 2 x (tokens + threads - 1) passes on its critical path. A slow host
 * delays multi-threaded work both in compute and in how late a waiting
 * thread wakes, and only a burst that also waits sees the second: over
 * 24 train-pipeline runs of 8 s whose raw step time spread 0.29 (IQR
 * / median), steps scaled by this burst spread 0.04, and 0.09 when
 * scaled by the slowest of four passes run side by side.
 */
double calibrationMs(int threads);

/**
 * One set-up's @p seconds at the nominal host speed, scaled by the
 * median of three calibration bursts of width @p threads run right
 * after it.
 */
double scaledSetupSeconds(double seconds, int threads);

/**
 * Moves every thread of the process onto one vCPU at a time, in turn
 * over the vCPUs the process may use, and back onto all of them when
 * destroyed. A run then averages over every vCPU's drift, and a
 * calibration burst run before moving on runs where the timed work
 * ran.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin every thread to the next vCPU. */
    void next();
    /** vCPUs taken in turn. */
    std::size_t size() const { return cpus_.size(); }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/**
 * Operation times and their values at the nominal host speed. A
 * calibration burst runs once at least kCalibrateEveryMs of operations
 * have gathered, outside their timings, and scales each of them.
 */
class SpeedScaled
{
  public:
    /** Operations timed between calibration bursts, in milliseconds. */
    static constexpr double kCalibrateEveryMs = 10;

    /** @p threads is the calibration burst's width: the number of
     *  threads the timed operations keep busy. */
    explicit SpeedScaled(int threads) : threads_(threads) {}

    /** Record one operation of @p ms, calibrating when due.
     *  @return whether it calibrated */
    bool add(double ms);
    /** Calibrate now for the operations not yet scaled.
     *  @return whether there were any */
    bool flush();

    /** Raw operation times. */
    const std::vector<double> &rawMs() const { return raw_; }
    /** Operation times at the nominal host speed (flushed ones). */
    const std::vector<double> &scaledMs() const { return scaled_; }
    /** Calibration burst times. */
    const std::vector<double> &calibrations() const { return cal_; }

  private:
    int threads_;
    std::vector<double> raw_;
    std::vector<double> scaled_;
    std::vector<double> cal_;
    double pendingMs_ = 0;
};

/**
 * The informational host-speed line every untraced run prints: the
 * calibration bursts' median against the nominal, and the raw median
 * latency_ms was scaled from.
 */
std::string speedLine(const SpeedScaled &ops);

} // namespace perfbench

#endif // ADAPIPE_PERFBENCH_HOST_SPEED_H
