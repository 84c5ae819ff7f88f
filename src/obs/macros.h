/**
 * @file
 * Instrumentation macros.
 *
 * A macro is one thread-local load and a branch unless a Registry is
 * installed on the calling thread.
 *
 * Counter conventions: names are dotted, "<subsystem>.<metric>",
 * e.g. "partition_dp.states_visited". Hot loops accumulate into a
 * local variable and flush once per call; see docs/observability.md
 * for the catalogue.
 */

#ifndef ADAPIPE_OBS_MACROS_H
#define ADAPIPE_OBS_MACROS_H

#include "obs/registry.h"

/** Add @p delta to counter @p name on the installed registry. */
#define ADAPIPE_OBS_COUNT(name, delta)                                  \
    do {                                                                \
        if (::adapipe::obs::Registry *obs_reg_ =                        \
                ::adapipe::obs::current()) {                            \
            obs_reg_->add((name),                                       \
                          static_cast<std::int64_t>(delta));            \
        }                                                               \
    } while (false)

/** Set gauge @p name to @p value on the installed registry. */
#define ADAPIPE_OBS_GAUGE(name, value)                                  \
    do {                                                                \
        if (::adapipe::obs::Registry *obs_reg_ =                        \
                ::adapipe::obs::current()) {                            \
            obs_reg_->set((name), static_cast<double>(value));          \
        }                                                               \
    } while (false)

/** Open a scoped span named @p name for the rest of the block. */
#define ADAPIPE_OBS_SPAN(var, name) ::adapipe::obs::ScopedSpan var(name)

#endif // ADAPIPE_OBS_MACROS_H
