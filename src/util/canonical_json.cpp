#include "util/canonical_json.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace adapipe {

JsonValue
canonicalJson(const JsonValue &value)
{
    if (value.isArray()) {
        JsonValue out = JsonValue::array();
        for (const JsonValue &element : value.elements())
            out.push(canonicalJson(element));
        return out;
    }
    if (value.isObject()) {
        // Sort the keys and rebuild the object in sorted order.
        // Duplicate keys cannot occur: the parser rejects them and
        // set() overwrites.
        std::vector<std::string> keys;
        keys.reserve(value.members().size());
        for (const auto &[key, member] : value.members()) {
            (void)member;
            keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end());
        JsonValue out = JsonValue::object();
        for (const std::string &key : keys)
            out.set(key, canonicalJson(value.at(key)));
        return out;
    }
    return value;
}

std::string
canonicalJsonString(const JsonValue &value)
{
    return canonicalJson(value).dump(0);
}

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 14695981039346656037ULL; // FNV offset basis
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL; // FNV prime
    }
    return h;
}

std::string
hex16(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(buf);
}

std::string
jsonFingerprint(const JsonValue &value)
{
    return hex16(fnv1a64(canonicalJsonString(value)));
}

} // namespace adapipe
