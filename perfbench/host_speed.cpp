#include "host_speed.h"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

/** Keeps the calibration loop's result alive. */
std::atomic<double> calibrationSink{0};

/** Pin every thread of the process to @p set; a thread that cannot
 *  be pinned keeps running where it may. */
void
pinAllThreads(const cpu_set_t &set)
{
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        const pid_t tid = std::stoi(task.path().filename().string());
        (void)sched_setaffinity(tid, sizeof(set), &set);
    }
}

} // namespace

double
calibrationMs(int threads)
{
    const double t0 = now();
    if (threads <= 1) {
        calibrationSink.fetch_add(calibrationPass());
        return (now() - t0) * 1e3;
    }
    // Tokens waiting at each stage; a token turns back at the last
    // stage and leaves at stage 0.
    struct Inbox
    {
        int forward = 0;
        int backward = 0;
    };
    std::vector<Inbox> inbox(static_cast<std::size_t>(threads));
    inbox[0].forward = kCalibrationTokens;
    std::mutex mutex;
    std::condition_variable wake;
    std::vector<std::thread> pool;
    for (int s = 0; s < threads; ++s) {
        pool.emplace_back([&, s] {
            Inbox &in = inbox[static_cast<std::size_t>(s)];
            std::unique_lock<std::mutex> lock(mutex);
            for (int hops = 0; hops < 2 * kCalibrationTokens; ++hops) {
                wake.wait(lock,
                          [&] { return in.forward + in.backward > 0; });
                const bool forward = in.forward > 0;
                --(forward ? in.forward : in.backward);
                lock.unlock();
                calibrationSink.fetch_add(calibrationPass());
                lock.lock();
                if (forward && s + 1 == threads)
                    ++in.backward;
                else if (forward)
                    ++inbox[static_cast<std::size_t>(s + 1)].forward;
                else if (s > 0)
                    ++inbox[static_cast<std::size_t>(s - 1)].backward;
                wake.notify_all();
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const int critical_passes = 2 * (kCalibrationTokens + threads - 1);
    return (now() - t0) * 1e3 / critical_passes;
}

double
scaledSetupSeconds(double seconds, int threads)
{
    std::vector<double> cal;
    for (int i = 0; i < 3; ++i)
        cal.push_back(calibrationMs(threads));
    return seconds * kNominalCalibrationMs / median(cal);
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_))
            cpus_.push_back(cpu);
    }
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        pinAllThreads(original_);
}

void
CpuRotation::next()
{
    if (cpus_.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    pinAllThreads(set);
}

bool
SpeedScaled::add(double ms)
{
    raw_.push_back(ms);
    pendingMs_ += ms;
    return pendingMs_ >= kCalibrateEveryMs && flush();
}

bool
SpeedScaled::flush()
{
    if (scaled_.size() == raw_.size())
        return false;
    const double cal = calibrationMs(threads_);
    cal_.push_back(cal);
    for (std::size_t i = scaled_.size(); i < raw_.size(); ++i)
        scaled_.push_back(raw_[i] * kNominalCalibrationMs / cal);
    pendingMs_ = 0;
    return true;
}

std::string
speedLine(const SpeedScaled &ops)
{
    std::ostringstream oss;
    oss << "host speed (informational): calibration median "
        << median(ops.calibrations()) << " ms over "
        << ops.calibrations().size() << " bursts (nominal "
        << kNominalCalibrationMs << " ms); raw median "
        << median(ops.rawMs()) << " ms";
    return oss.str();
}

} // namespace perfbench
