/**
 * @file
 * Search observability: named counters/gauges and nested spans.
 *
 * The planner's value is its DP search; this registry records where
 * that search spends its time and what the DPs actually explore
 * (states visited, knapsack cells, strategies pruned, simulator
 * events). Design constraints, in order:
 *
 *  1. Zero hot-path synchronisation. A Registry is single-threaded
 *     by construction; parallel code gives each worker its own
 *     Registry and merges into the parent after join (see
 *     sweepStrategies). Merged counters are therefore bit-identical
 *     regardless of the worker count.
 *  2. Near-zero cost when idle. Instrumentation routes through a
 *     thread-local `current()` pointer; with no registry installed
 *     every macro is one load and a branch.
 *  3. No clocks in data structures. Span timestamps are microseconds
 *     since a process-wide epoch, so spans recorded on different
 *     threads land on one comparable timeline for Chrome traces.
 *
 * Sinks (JSON-lines, CSV summary, Chrome trace) live in
 * obs/sinks.h; the metric name catalogue is docs/observability.md.
 */

#ifndef ADAPIPE_OBS_REGISTRY_H
#define ADAPIPE_OBS_REGISTRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adapipe {
namespace obs {

/** One completed span (scoped timer). */
struct SpanRecord
{
    /** Dotted span name, e.g. "partition_dp.solve". */
    std::string name;
    /** Start, microseconds since the process obs epoch. */
    double startUs = 0;
    /** Duration in microseconds. */
    double durUs = 0;
    /** Nesting depth at the recording thread (0 = top level). */
    int depth = 0;
    /** Sequential id of the recording thread. */
    std::uint32_t thread = 0;
};

/**
 * A bag of named counters, gauges and spans.
 *
 * Not thread-safe; see the file comment for the per-worker +
 * merge-on-join discipline.
 */
class Registry
{
  public:
    /** Add @p delta to counter @p name (created at zero). */
    void add(const std::string &name, std::int64_t delta = 1);

    /** Set gauge @p name to @p value (last writer wins). */
    void set(const std::string &name, double value);

    /** Append a completed span. */
    void record(SpanRecord span);

    /** @return counter value; zero when never touched. */
    std::int64_t counter(const std::string &name) const;

    /** @return gauge value; zero when never set. */
    double gauge(const std::string &name) const;

    /** Counters in name order (deterministic for sinks). */
    const std::map<std::string, std::int64_t> &counters() const
    {
        return counters_;
    }

    /** Gauges in name order. */
    const std::map<std::string, double> &gauges() const
    {
        return gauges_;
    }

    /** Spans in recording order. */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Fold @p other into this registry: counters add, gauges
     * overwrite, spans append. Used by thread pools on join.
     */
    void merge(const Registry &other);

    /** Drop all recorded data. */
    void clear();

    /** @return whether nothing has been recorded. */
    bool empty() const
    {
        return counters_.empty() && gauges_.empty() && spans_.empty();
    }

  private:
    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, double> gauges_;
    std::vector<SpanRecord> spans_;
};

namespace detail {
/** The calling thread's sink; exposed only to inline current(). */
extern thread_local Registry *tl_registry;
} // namespace detail

/**
 * @return the calling thread's installed registry, or nullptr.
 *
 * Inline on purpose: instrumentation macros in DP inner loops
 * compile down to this thread-local load plus a branch, so it must
 * not cost a function call.
 */
inline Registry *
current()
{
    return detail::tl_registry;
}

/**
 * Install @p registry as the calling thread's sink (nullptr
 * disables instrumentation on this thread). Prefer ScopedRegistry.
 */
inline void
install(Registry *registry)
{
    detail::tl_registry = registry;
}

/** @return microseconds since the process-wide obs epoch. */
double nowUs();

/** @return a small sequential id for the calling thread. */
std::uint32_t threadId();

/**
 * RAII install/restore of the calling thread's registry.
 */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(Registry *registry);
    ~ScopedRegistry();

    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    Registry *prev_;
};

/**
 * RAII scoped timer: records a SpanRecord into the registry that was
 * current at construction. A no-op when no registry is installed.
 */
class ScopedSpan
{
  public:
    /** @param name span name; must outlive the span (string literal) */
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Registry *registry_;
    const char *name_;
    double startUs_ = 0;
    int depth_ = 0;
};

} // namespace obs
} // namespace adapipe

#endif // ADAPIPE_OBS_REGISTRY_H
