/**
 * @file
 * Canonical JSON form and fingerprinting.
 *
 * Two JSON documents that differ only in object key order (or in
 * surrounding whitespace) describe the same value, but hash to
 * different bytes. The canonical form fixes that: object members are
 * sorted by key recursively and the document is rendered compactly,
 * so semantically equal documents produce byte-identical canonical
 * text. Fingerprints are the FNV-1a-64 hash of that text, rendered
 * as 16 lowercase hex digits — stable across processes, runs and
 * platforms (the writer renders doubles with %.17g, which
 * round-trips bit-exactly).
 *
 * This is the keying machinery of the plan service: a plan request's
 * fingerprint keys the plan cache, and a plan's fingerprint is the
 * provenance link carried by degraded-replan documents (replan_io).
 */

#ifndef ADAPIPE_UTIL_CANONICAL_JSON_H
#define ADAPIPE_UTIL_CANONICAL_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"

namespace adapipe {

/**
 * @return a deep copy of @p value with every object's members sorted
 * by key (arrays keep their element order — it is significant).
 */
JsonValue canonicalJson(const JsonValue &value);

/** @return the compact rendering of canonicalJson(@p value). */
std::string canonicalJsonString(const JsonValue &value);

/** @return FNV-1a-64 hash of @p text. */
std::uint64_t fnv1a64(std::string_view text);

/** @return @p hash as 16 lowercase hex digits. */
std::string hex16(std::uint64_t hash);

/**
 * @return 16-hex-digit FNV-1a-64 fingerprint of @p value's canonical
 * form; key order of the input does not affect the result.
 */
std::string jsonFingerprint(const JsonValue &value);

} // namespace adapipe

#endif // ADAPIPE_UTIL_CANONICAL_JSON_H
