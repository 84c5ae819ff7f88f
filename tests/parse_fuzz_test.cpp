/**
 * @file
 * Randomized malformed-input tests for the recoverable parse paths:
 * the JSON parser, the plan/profile loaders and the fault-spec
 * loader. Every mutation of a valid document must come back as a
 * ParseResult error (never an abort), and targeted corruptions must
 * name the offending field.
 *
 * The sweep seed is fixed; set ADAPIPE_FUZZ_SEED to explore other
 * seeds locally (failures print the seed for replay).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/plan_io.h"
#include "hw/profile_io.h"
#include "robust/fault_spec.h"
#include "robust/replan_io.h"
#include "runtime/fault_injector.h"
#include "runtime/snapshot.h"
#include "service/handlers.h"
#include "service/protocol.h"
#include "util/json.h"
#include "util/rng.h"

namespace adapipe {
namespace {

const char *const kValidPlan = R"({
  "method": "adapipe",
  "parallel": {"tensor": 1, "pipeline": 2, "data": 1,
               "sequence_parallel": true, "flash_attention": true},
  "train": {"micro_batch": 1, "seq_len": 128, "global_batch": 4},
  "micro_batches": 4,
  "overlap": true,
  "offload": true,
  "timing": {"warmup": 1.0, "ending": 1.0, "steady_per_mb": 0.5,
             "total": 4.0},
  "stages": [
    {"first_layer": 0, "last_layer": 1, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 2, "saved_mask": [true, false],
     "overlap_bubble": 0.25, "replay_hidden": 0.05,
     "replay_critical": 0.0,
     "offload_mask": [false, true], "offload_bytes": 4096,
     "offload_fetch_us": 12.5},
    {"first_layer": 2, "last_layer": 3, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 2, "saved_mask": [true, false]}
  ]
})";

const char *const kValidProfile = R"({
  "source": "test",
  "layers": [
    [{"name": "ln", "kind": "layernorm", "time_fwd": 0.1,
      "time_bwd": 0.2, "mem_saved": 100, "always_saved": false}],
    [{"name": "qkv", "kind": "gemm", "time_fwd": 0.3,
      "time_bwd": 0.6, "mem_saved": 300, "always_saved": true}]
  ]
})";

const char *const kValidFault = R"({
  "seed": 7,
  "slowdowns": [{"device": 1, "factor": 1.5}],
  "stalls": {"probability": 0.1, "base": 0.01, "max_retries": 2},
  "failure": {"device": -1, "at": 0.0}
})";

std::uint64_t
fuzzSeed()
{
    if (const char *env = std::getenv("ADAPIPE_FUZZ_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 0xADA71FE5EEDull;
}

/** Parse one document through every recoverable loader. */
void
expectNoAbort(const std::string &text)
{
    const ParseResult<JsonValue> doc = JsonValue::tryParse(text);
    if (!doc.ok()) {
        EXPECT_FALSE(doc.error().empty());
    }
    const ParseResult<PipelinePlan> plan = tryPlanFromJsonString(text);
    if (!plan.ok()) {
        EXPECT_FALSE(plan.error().empty());
    }
    const ParseResult<ProfileTable> table =
        tryProfileTableFromJsonString(text);
    if (!table.ok()) {
        EXPECT_FALSE(table.error().empty());
    }
    const ParseResult<FaultSpec> fault =
        faultSpecFromJsonString(text);
    if (!fault.ok()) {
        EXPECT_FALSE(fault.error().empty());
    }
}

TEST(ParseFuzz, BaseDocumentsAreValid)
{
    EXPECT_TRUE(tryPlanFromJsonString(kValidPlan).ok());
    EXPECT_TRUE(tryProfileTableFromJsonString(kValidProfile).ok());
    EXPECT_TRUE(faultSpecFromJsonString(kValidFault).ok());
}

TEST(ParseFuzz, TruncationsNeverAbort)
{
    const std::string docs[] = {kValidPlan, kValidProfile,
                                kValidFault};
    for (const std::string &doc : docs) {
        for (std::size_t cut = 0; cut < doc.size();
             cut += 7) { // every 7th prefix keeps the sweep fast
            const std::string prefix = doc.substr(0, cut);
            expectNoAbort(prefix);
            // A strict prefix of a JSON document is never valid.
            EXPECT_FALSE(JsonValue::tryParse(prefix).ok())
                << "cut at " << cut;
        }
    }
}

TEST(ParseFuzz, RandomMutationsNeverAbort)
{
    const std::uint64_t seed = fuzzSeed();
    SCOPED_TRACE("ADAPIPE_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const std::string docs[] = {kValidPlan, kValidProfile,
                                kValidFault};
    const std::string charset =
        "{}[]\",:0123456789.eE+-truefalsnul \n\x01\x7f";
    for (int trial = 0; trial < 600; ++trial) {
        std::string doc =
            docs[static_cast<std::size_t>(rng.uniformInt(0, 2))];
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(doc.size()) - 1));
            switch (rng.uniformInt(0, 2)) {
              case 0: // overwrite
                doc[pos] = charset[static_cast<std::size_t>(
                    rng.uniformInt(
                        0,
                        static_cast<std::int64_t>(charset.size()) -
                            1))];
                break;
              case 1: // delete
                doc.erase(pos, 1);
                break;
              default: // duplicate a span
                doc.insert(pos, doc.substr(
                                    pos,
                                    static_cast<std::size_t>(
                                        rng.uniformInt(1, 12))));
                break;
            }
        }
        expectNoAbort(doc);
    }
}

TEST(ParseFuzz, DuplicateKeysAreRejectedByName)
{
    const ParseResult<JsonValue> r = JsonValue::tryParse(
        R"({"a": 1, "b": 2, "a": 3})");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("duplicate key 'a'"), std::string::npos)
        << r.error();
}

TEST(ParseFuzz, WrongTypesNameTheField)
{
    struct Case
    {
        const char *base;
        const char *needle;     // substring to corrupt
        const char *replacement;
        const char *expected;   // field path in the error
    };
    const Case cases[] = {
        {kValidPlan, "\"mem_peak\": 1000", "\"mem_peak\": \"big\"",
         "mem_peak"},
        {kValidPlan, "\"method\": \"adapipe\"", "\"method\": 42",
         "plan.method"},
        {kValidPlan, "\"pipeline\": 2", "\"pipeline\": 2.5",
         "plan.parallel.pipeline"},
        {kValidPlan, "\"saved_mask\": [true, false]",
         "\"saved_mask\": [true]", "saved_mask"},
        {kValidPlan, "\"overlap\": true", "\"overlap\": 42",
         "overlap"},
        {kValidPlan, "\"overlap_bubble\": 0.25",
         "\"overlap_bubble\": -1", "overlap_bubble"},
        {kValidPlan, "\"replay_hidden\": 0.05",
         "\"replay_hidden\": \"lots\"", "replay_hidden"},
        {kValidPlan, "\"replay_critical\": 0.0",
         "\"replay_critical\": -0.1", "replay_critical"},
        {kValidPlan, "\"offload\": true", "\"offload\": 42",
         "offload"},
        {kValidPlan, "\"offload_mask\": [false, true]",
         "\"offload_mask\": [false]", "offload_mask"},
        {kValidPlan, "\"offload_mask\": [false, true]",
         "\"offload_mask\": [false, 7]", "offload_mask"},
        {kValidPlan, "\"offload_bytes\": 4096",
         "\"offload_bytes\": -1", "offload_bytes"},
        {kValidPlan, "\"offload_bytes\": 4096",
         "\"offload_bytes\": \"many\"", "offload_bytes"},
        {kValidPlan, "\"offload_bytes\": 4096",
         "\"offload_bytes\": 9999999999999999999999999",
         "offload_bytes"},
        {kValidPlan, "\"offload_fetch_us\": 12.5",
         "\"offload_fetch_us\": -2", "offload_fetch_us"},
        {kValidPlan, "\"offload_fetch_us\": 12.5",
         "\"offload_fetch_us\": [1]", "offload_fetch_us"},
        {kValidProfile, "\"kind\": \"gemm\"", "\"kind\": \"magic\"",
         "profile.layers[1][0].kind"},
        {kValidProfile, "\"time_fwd\": 0.3", "\"time_fwd\": -0.3",
         "profile.layers[1][0].time_fwd"},
        {kValidFault, "\"factor\": 1.5", "\"factor\": true",
         "fault.slowdowns[0].factor"},
    };
    for (const Case &c : cases) {
        std::string doc = c.base;
        const std::size_t pos = doc.find(c.needle);
        ASSERT_NE(pos, std::string::npos) << c.needle;
        doc.replace(pos, std::string(c.needle).size(), c.replacement);

        std::string error;
        if (c.base == kValidPlan) {
            const auto r = tryPlanFromJsonString(doc);
            ASSERT_FALSE(r.ok()) << c.expected;
            error = r.error();
        } else if (c.base == kValidProfile) {
            const auto r = tryProfileTableFromJsonString(doc);
            ASSERT_FALSE(r.ok()) << c.expected;
            error = r.error();
        } else {
            const auto r = faultSpecFromJsonString(doc);
            ASSERT_FALSE(r.ok()) << c.expected;
            error = r.error();
        }
        EXPECT_NE(error.find(c.expected), std::string::npos)
            << "error was: " << error;
    }
}

TEST(ParseFuzz, OverflowNumeralsNeverAbort)
{
    // Out-of-range numerals used to flow into bare std::stoll /
    // std::stod, whose uncaught std::out_of_range aborted the
    // process. They must come back as ParseResult errors (or, for
    // integers too wide for int64 inside a double-typed field,
    // as an ordinary double) — never an abort.
    const char *const numerals[] = {
        "1e999",  "-1e999",  "1e308999",
        "9999999999999999999999999",
        "-9999999999999999999999999",
        "9223372036854775808",   // INT64_MAX + 1
        "-9223372036854775809",  // INT64_MIN - 1
        "1e-999",                // underflow: harmless, must parse
    };
    for (const char *n : numerals) {
        expectNoAbort(n);
        expectNoAbort(std::string("{\"seed\": ") + n + "}");
        std::string plan = kValidPlan;
        const std::size_t pos = plan.find("\"mem_peak\": 1000");
        ASSERT_NE(pos, std::string::npos);
        plan.replace(pos, std::string("\"mem_peak\": 1000").size(),
                     std::string("\"mem_peak\": ") + n);
        expectNoAbort(plan);
    }

    // Magnitude overflow is a parse error at the JSON level...
    EXPECT_FALSE(JsonValue::tryParse("1e999").ok());
    EXPECT_FALSE(JsonValue::tryParse("-1e999").ok());
    // ...while underflow quietly rounds to zero,
    const auto tiny = JsonValue::tryParse("1e-999");
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(tiny.value().asNumber(), 0.0);
    // ...and an integer numeral wider than int64 degrades to a
    // double, so integer-typed fields reject it by name.
    const auto wide =
        JsonValue::tryParse("9999999999999999999999999");
    ASSERT_TRUE(wide.ok());
    std::string plan = kValidPlan;
    const std::size_t pos = plan.find("\"micro_batches\": 4");
    ASSERT_NE(pos, std::string::npos);
    plan.replace(pos, std::string("\"micro_batches\": 4").size(),
                 "\"micro_batches\": 9999999999999999999999999");
    const auto r = tryPlanFromJsonString(plan);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("micro_batches"), std::string::npos)
        << r.error();
}

TEST(ParseFuzz, VirtualStagesFieldIsValidatedByName)
{
    // Legacy plans carry no virtual_stages field: they parse as
    // plain 1F1B plans (v = 1).
    const ParseResult<PipelinePlan> legacy =
        tryPlanFromJsonString(kValidPlan);
    ASSERT_TRUE(legacy.ok()) << legacy.error();
    EXPECT_EQ(legacy.value().virtualStages, 1);

    auto with_field = [](const char *value) {
        std::string doc = kValidPlan;
        const std::string needle = "\"micro_batches\": 4,";
        const std::size_t pos = doc.find(needle);
        EXPECT_NE(pos, std::string::npos);
        doc.insert(pos + needle.size(), std::string("\n  "
                                                    "\"virtual_"
                                                    "stages\": ") +
                                            value + ",");
        return doc;
    };

    // An explicit v = 1 is the same plan.
    const auto v1 = tryPlanFromJsonString(with_field("1"));
    ASSERT_TRUE(v1.ok()) << v1.error();
    EXPECT_EQ(v1.value().virtualStages, 1);

    // v = 2 with only pipeline * 1 stages: the count check names
    // both fields of the product it enforces.
    const auto mismatched = tryPlanFromJsonString(with_field("2"));
    ASSERT_FALSE(mismatched.ok());
    EXPECT_NE(mismatched.error().find("parallel.pipeline"),
              std::string::npos)
        << mismatched.error();
    EXPECT_NE(mismatched.error().find("virtual_stages"),
              std::string::npos)
        << mismatched.error();

    // v < 1, a wrong type, and an integer numeral wider than int64
    // are all recoverable errors naming the field.
    for (const char *bad : {"0", "-3", "\"two\"", "2.5",
                            "9999999999999999999999999"}) {
        const auto r = tryPlanFromJsonString(with_field(bad));
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_NE(r.error().find("virtual_stages"), std::string::npos)
            << "value " << bad << ": " << r.error();
    }

    // A duplicate virtual_stages key is caught by the JSON layer.
    std::string dup = with_field("1");
    const std::size_t pos = dup.find("\"micro_batches\": 4,");
    ASSERT_NE(pos, std::string::npos);
    dup.insert(pos, "\"virtual_stages\": 2,\n  ");
    const auto r = tryPlanFromJsonString(dup);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("duplicate key 'virtual_stages'"),
              std::string::npos)
        << r.error();

    // A matching interleaved plan (p = 2, v = 2, 4 stages) parses.
    std::string good = with_field("2");
    const std::string tail =
        R"(    {"first_layer": 2, "last_layer": 3, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 2, "saved_mask": [true, false]}
  ]
})";
    const std::size_t tail_pos = good.rfind(tail);
    ASSERT_NE(tail_pos, std::string::npos);
    good.replace(
        tail_pos, tail.size(),
        R"(    {"first_layer": 2, "last_layer": 2, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 1, "saved_mask": [true]},
    {"first_layer": 3, "last_layer": 3, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 1, "saved_mask": [true]},
    {"first_layer": 4, "last_layer": 4, "time_fwd": 0.1,
     "time_bwd": 0.2, "mem_peak": 1000, "saved_units": 1,
     "total_units": 1, "saved_mask": [true]}
  ]
})");
    const auto parsed = tryPlanFromJsonString(good);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().virtualStages, 2);
    EXPECT_EQ(parsed.value().stages.size(), 4u);
}

TEST(ParseFuzz, OffloadFieldsAreOptionalButConsistent)
{
    // Legacy compatibility: a plan with none of the offload_* fields
    // parses as a keep/recompute-only plan.
    std::string legacy = kValidPlan;
    for (const char *field :
         {"\n  \"offload\": true,",
          ",\n     \"offload_mask\": [false, true], "
          "\"offload_bytes\": 4096,\n"
          "     \"offload_fetch_us\": 12.5"}) {
        const std::size_t pos = legacy.find(field);
        ASSERT_NE(pos, std::string::npos) << field;
        legacy.erase(pos, std::string(field).size());
    }
    const auto plain = tryPlanFromJsonString(legacy);
    ASSERT_TRUE(plain.ok()) << plain.error();
    EXPECT_FALSE(plain.value().offload);
    EXPECT_TRUE(plain.value().stages[0].offloadMask.empty());
    EXPECT_EQ(plain.value().stages[0].offloadBytes, 0u);

    // A unit marked both saved and offloaded is contradictory — the
    // loader must name the unit.
    std::string conflict = kValidPlan;
    const std::string needle = "\"offload_mask\": [false, true]";
    const std::size_t pos = conflict.find(needle);
    ASSERT_NE(pos, std::string::npos);
    conflict.replace(pos, needle.size(),
                     "\"offload_mask\": [true, true]");
    const auto r = tryPlanFromJsonString(conflict);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("unit 0 is both saved and offloaded"),
              std::string::npos)
        << r.error();

    // A duplicate offload_mask key is caught by the JSON layer.
    std::string dup = kValidPlan;
    const std::size_t mask_pos = dup.find("\"offload_mask\"");
    ASSERT_NE(mask_pos, std::string::npos);
    dup.insert(mask_pos, "\"offload_mask\": [false, false], ");
    const auto d = tryPlanFromJsonString(dup);
    ASSERT_FALSE(d.ok());
    EXPECT_NE(d.error().find("duplicate key 'offload_mask'"),
              std::string::npos)
        << d.error();
}

TEST(ParseFuzz, MissingFieldsNameTheField)
{
    std::string doc = kValidPlan;
    const std::size_t pos = doc.find("\"micro_batches\": 4,");
    ASSERT_NE(pos, std::string::npos);
    doc.erase(pos, std::string("\"micro_batches\": 4,").size());
    const auto r = tryPlanFromJsonString(doc);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("missing required field 'micro_batches'"),
              std::string::npos)
        << r.error();
}

const char *const kValidRuntimeFault = R"({
  "seed": 7,
  "slowdowns": [{"worker": 1, "factor": 1.5}],
  "stalls": {"probability": 0.1, "base": 0.01, "max_retries": 2},
  "send_delay": {"us": 100.0, "jitter": 0.25},
  "crash": {"worker": 1, "step": 3, "after_ops": 2, "hang": true}
})";

TEST(ParseFuzz, RuntimeFaultSpecBaseIsValid)
{
    const auto r =
        tryRuntimeFaultSpecFromJsonString(kValidRuntimeFault);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.value().crash.worker, 1);
    EXPECT_TRUE(r.value().crash.hang);
}

TEST(ParseFuzz, RuntimeFaultSpecCorruptionsNameTheField)
{
    struct Case
    {
        const char *needle;
        const char *replacement;
        const char *expected;
    };
    const Case cases[] = {
        {"\"factor\": 1.5", "\"factor\": 0.5",
         "runtime_fault.slowdowns[0].factor"},
        {"\"worker\": 1,", "\"worker\": -2,",
         "runtime_fault.slowdowns[0].worker"},
        {"\"probability\": 0.1", "\"probability\": 1.5",
         "runtime_fault.stalls.probability"},
        {"\"us\": 100.0", "\"us\": -1",
         "runtime_fault.send_delay.us"},
        {"\"after_ops\": 2", "\"after_ops\": -2",
         "runtime_fault.crash.after_ops"},
        {"\"hang\": true", "\"hang\": 3",
         "runtime_fault.crash.hang"},
    };
    for (const Case &c : cases) {
        std::string doc = kValidRuntimeFault;
        const std::size_t pos = doc.find(c.needle);
        ASSERT_NE(pos, std::string::npos) << c.needle;
        doc.replace(pos, std::string(c.needle).size(),
                    c.replacement);
        const auto r = tryRuntimeFaultSpecFromJsonString(doc);
        ASSERT_FALSE(r.ok()) << c.expected;
        EXPECT_NE(r.error().find(c.expected), std::string::npos)
            << "error was: " << r.error();
    }
}

TEST(ParseFuzz, RuntimeFaultSpecMutationsNeverAbort)
{
    const std::uint64_t seed = fuzzSeed();
    SCOPED_TRACE("ADAPIPE_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0xFA17);
    for (int trial = 0; trial < 300; ++trial) {
        std::string doc = kValidRuntimeFault;
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(doc.size()) - 1));
            if (rng.uniformInt(0, 1) == 0)
                doc[pos] = static_cast<char>(rng.uniformInt(1, 127));
            else
                doc.erase(pos, 1);
        }
        const auto r = tryRuntimeFaultSpecFromJsonString(doc);
        if (!r.ok()) {
            EXPECT_FALSE(r.error().empty());
        }
    }
}

/** A small but fully populated snapshot byte image. */
std::string
validSnapshotBytes()
{
    TinyLmConfig cfg;
    cfg.vocab = 16;
    cfg.dim = 8;
    cfg.blocks = 2;
    cfg.ffnHidden = 16;
    cfg.maxSeq = 16;
    cfg.seed = 1;
    const TinyLM model(cfg);
    return snapshotToBytes(captureTrainingSnapshot(
        model, {}, /*step=*/3, /*data_seed=*/7));
}

/** Split a snapshot image into (pre-header, header, blob). */
void
splitSnapshot(const std::string &bytes, std::string &pre,
              std::string &header, std::string &blob)
{
    // ADAPIPESNAP1\n<len>\n<header><blob>
    const std::size_t magic_end = bytes.find('\n') + 1;
    const std::size_t len_end = bytes.find('\n', magic_end);
    const std::size_t header_len = static_cast<std::size_t>(
        std::strtoull(bytes.c_str() + magic_end, nullptr, 10));
    pre = bytes.substr(0, len_end + 1);
    header = bytes.substr(len_end + 1, header_len);
    blob = bytes.substr(len_end + 1 + header_len);
}

/** Reassemble with a corrected header-length line. */
std::string
joinSnapshot(const std::string &header, const std::string &blob)
{
    return std::string("ADAPIPESNAP1\n") +
           std::to_string(header.size()) + "\n" + header + blob;
}

TEST(SnapshotFuzz, BaseImageIsValid)
{
    const std::string bytes = validSnapshotBytes();
    const auto r = snapshotFromBytes(bytes);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.value().step, 3);
    EXPECT_EQ(snapshotToBytes(r.value()), bytes);
}

TEST(SnapshotFuzz, TruncationsNeverAbort)
{
    const std::string bytes = validSnapshotBytes();
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
        const auto r = snapshotFromBytes(bytes.substr(0, cut));
        ASSERT_FALSE(r.ok()) << "cut at " << cut;
        EXPECT_FALSE(r.error().empty()) << "cut at " << cut;
    }
}

TEST(SnapshotFuzz, VersionSkewIsRejectedByName)
{
    std::string pre, header, blob;
    splitSnapshot(validSnapshotBytes(), pre, header, blob);
    const std::size_t key = header.find("\"version\"");
    ASSERT_NE(key, std::string::npos);
    const std::size_t digit = header.find('1', key);
    ASSERT_NE(digit, std::string::npos);
    header[digit] = '2';
    const auto r = snapshotFromBytes(joinSnapshot(header, blob));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("unsupported snapshot version 2"),
              std::string::npos)
        << r.error();
}

TEST(SnapshotFuzz, DuplicateHeaderKeysAreRejected)
{
    std::string pre, header, blob;
    splitSnapshot(validSnapshotBytes(), pre, header, blob);
    const std::size_t brace = header.rfind('}');
    ASSERT_NE(brace, std::string::npos);
    header.insert(brace, ",\"version\":2");
    const auto r = snapshotFromBytes(joinSnapshot(header, blob));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("duplicate key 'version'"),
              std::string::npos)
        << r.error();
}

TEST(SnapshotFuzz, BlobLengthMismatchIsRejected)
{
    std::string pre, header, blob;
    splitSnapshot(validSnapshotBytes(), pre, header, blob);
    blob.resize(blob.size() - 4);
    const auto r = snapshotFromBytes(joinSnapshot(header, blob));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("blob length mismatch"),
              std::string::npos)
        << r.error();
}

TEST(SnapshotFuzz, FlippedBlobByteFailsTheChecksum)
{
    std::string pre, header, blob;
    splitSnapshot(validSnapshotBytes(), pre, header, blob);
    blob[blob.size() / 2] =
        static_cast<char>(blob[blob.size() / 2] ^ 0x40);
    const auto r = snapshotFromBytes(joinSnapshot(header, blob));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("blob checksum mismatch"),
              std::string::npos)
        << r.error();
}

TEST(SnapshotFuzz, RandomMutationsNeverAbort)
{
    const std::uint64_t seed = fuzzSeed();
    SCOPED_TRACE("ADAPIPE_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0x5A4B);
    const std::string base = validSnapshotBytes();
    for (int trial = 0; trial < 300; ++trial) {
        std::string bytes = base;
        const int edits = static_cast<int>(rng.uniformInt(1, 6));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(bytes.size()) - 1));
            switch (rng.uniformInt(0, 2)) {
              case 0:
                bytes[pos] =
                    static_cast<char>(rng.uniformInt(0, 255));
                break;
              case 1:
                bytes.erase(pos, 1);
                break;
              default:
                bytes.insert(pos, 1,
                             static_cast<char>(
                                 rng.uniformInt(0, 255)));
                break;
            }
        }
        const auto r = snapshotFromBytes(bytes);
        if (!r.ok()) {
            EXPECT_FALSE(r.error().empty());
        }
    }
}

const char *const kValidServiceRequest = R"({
  "kind": "replan",
  "plan": {
    "model": "tiny-test",
    "cluster": {"name": "a", "nodes": 1},
    "train": {"micro_batch": 1, "seq_len": 128, "global_batch": 8},
    "parallel": {"tensor": 1, "pipeline": 2, "data": 1},
    "method": "adapipe",
    "schedule": {"family": "1f1b"},
    "mem_budget_fraction": 0.875,
    "offload": {"enabled": true, "bandwidth": 25000000000.0,
                "overlap_fraction": 0.5}
  },
  "fault": {"straggler_stage": 0, "straggler_factor": 2.0,
            "mem_factor": 1.0, "lost_stages": 0,
            "host_link_factor": 0.5}
})";

TEST(ServiceFuzz, BaseRequestIsValid)
{
    const auto r =
        tryServiceRequestFromJsonString(kValidServiceRequest);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.value().kind, RequestKind::Replan);
    EXPECT_EQ(r.value().plan.model, "tiny-test");
    EXPECT_EQ(r.value().fault.stragglerStage, 0);
}

TEST(ServiceFuzz, TruncationsNeverAbort)
{
    const std::string doc = kValidServiceRequest;
    for (std::size_t cut = 0; cut < doc.size(); cut += 5) {
        const auto r =
            tryServiceRequestFromJsonString(doc.substr(0, cut));
        ASSERT_FALSE(r.ok()) << "cut at " << cut;
        EXPECT_FALSE(r.error().empty()) << "cut at " << cut;
    }
}

TEST(ServiceFuzz, UnknownRequestKindsAreRejectedByName)
{
    for (const char *kind :
         {"", "Plan", "PLAN", "plans", "replan ", "query", "halt"}) {
        const std::string line =
            std::string("{\"kind\": \"") + kind + "\"}";
        const auto r = tryServiceRequestFromJsonString(line);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_NE(r.error().find("service.kind"), std::string::npos)
            << "kind '" << kind << "': " << r.error();
        EXPECT_NE(r.error().find("unknown request kind"),
                  std::string::npos)
            << "kind '" << kind << "': " << r.error();
    }
}

TEST(ServiceFuzz, DuplicateKeysAreRejected)
{
    const auto r = tryServiceRequestFromJsonString(
        R"({"kind": "stats", "kind": "shutdown"})");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("duplicate key 'kind'"),
              std::string::npos)
        << r.error();
}

TEST(ServiceFuzz, FieldCorruptionsNameTheField)
{
    struct Case
    {
        const char *needle;
        const char *replacement;
        const char *expected;
    };
    const Case cases[] = {
        {"\"model\": \"tiny-test\"", "\"model\": \"huge\"",
         "service.plan.model"},
        {"\"name\": \"a\"", "\"name\": \"c\"",
         "service.plan.cluster.name"},
        {"\"seq_len\": 128", "\"seq_len\": 0",
         "service.plan.train.seq_len"},
        {"\"seq_len\": 128",
         "\"seq_len\": 9999999999999999999999999",
         "service.plan.train.seq_len"},
        {"\"tensor\": 1", "\"tensor\": -4",
         "service.plan.parallel.tensor"},
        {"\"pipeline\": 2", "\"pipeline\": \"two\"",
         "service.plan.parallel.pipeline"},
        {"\"method\": \"adapipe\"", "\"method\": \"magic\"",
         "service.plan.method"},
        {"\"family\": \"1f1b\"", "\"family\": \"zigzag\"",
         "service.plan.schedule.family"},
        {"\"mem_budget_fraction\": 0.875",
         "\"mem_budget_fraction\": 1.5",
         "service.plan.mem_budget_fraction"},
        {"\"straggler_factor\": 2.0", "\"straggler_factor\": 0.5",
         "service.fault.straggler_factor"},
        {"\"mem_factor\": 1.0", "\"mem_factor\": -1",
         "service.fault.mem_factor"},
        {"\"lost_stages\": 0", "\"lost_stages\": -2",
         "service.fault.lost_stages"},
        {"\"enabled\": true", "\"enabled\": \"yes\"",
         "service.plan.offload.enabled"},
        {"\"bandwidth\": 25000000000.0", "\"bandwidth\": 0",
         "service.plan.offload.bandwidth"},
        {"\"bandwidth\": 25000000000.0", "\"bandwidth\": -1e9",
         "service.plan.offload.bandwidth"},
        {"\"overlap_fraction\": 0.5", "\"overlap_fraction\": 1.5",
         "service.plan.offload.overlap_fraction"},
        {"\"overlap_fraction\": 0.5", "\"overlap_fraction\": -0.25",
         "service.plan.offload.overlap_fraction"},
        {"\"host_link_factor\": 0.5", "\"host_link_factor\": 0",
         "service.fault.host_link_factor"},
        {"\"host_link_factor\": 0.5", "\"host_link_factor\": 1.5",
         "service.fault.host_link_factor"},
    };
    for (const Case &c : cases) {
        std::string doc = kValidServiceRequest;
        const std::size_t pos = doc.find(c.needle);
        ASSERT_NE(pos, std::string::npos) << c.needle;
        doc.replace(pos, std::string(c.needle).size(),
                    c.replacement);
        const auto r = tryServiceRequestFromJsonString(doc);
        ASSERT_FALSE(r.ok()) << c.expected;
        EXPECT_NE(r.error().find(c.expected), std::string::npos)
            << "error was: " << r.error();
    }
}

TEST(ServiceFuzz, CrossFieldValidationIsRecoverable)
{
    // Each of these would trip a fatal assertion in the profiler or
    // planner if it reached them; the protocol layer must turn them
    // into errors anchored at service.plan instead.
    struct Case
    {
        const char *needle;
        const char *replacement;
        const char *expected;
    };
    const Case cases[] = {
        // Cluster a has 8 devices per node.
        {"\"tensor\": 1, \"pipeline\": 2",
         "\"tensor\": 16, \"pipeline\": 2",
         "exceeds devices per node"},
        // 1 node * 8 devices < 1 * 2 * 8.
        {"\"tensor\": 1, \"pipeline\": 2, \"data\": 1",
         "\"tensor\": 1, \"pipeline\": 2, \"data\": 8",
         "devices but the cluster has"},
        // The tiny test model has 4 blocks -> at most 6 layers
        // (8 devices keep the cluster check out of the way).
        {"\"pipeline\": 2", "\"pipeline\": 8",
         "exceeds the model's"},
        {"\"micro_batch\": 1", "\"micro_batch\": 3",
         "not divisible by micro_batch*data"},
    };
    for (const Case &c : cases) {
        std::string doc = kValidServiceRequest;
        const std::size_t pos = doc.find(c.needle);
        ASSERT_NE(pos, std::string::npos) << c.needle;
        doc.replace(pos, std::string(c.needle).size(),
                    c.replacement);
        const auto r = tryServiceRequestFromJsonString(doc);
        ASSERT_FALSE(r.ok()) << c.expected;
        EXPECT_NE(r.error().find("service.plan"), std::string::npos)
            << r.error();
        EXPECT_NE(r.error().find(c.expected), std::string::npos)
            << "error was: " << r.error();
    }
}

TEST(ServiceFuzz, RandomMutationsNeverAbortTheService)
{
    const std::uint64_t seed = fuzzSeed();
    SCOPED_TRACE("ADAPIPE_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0x5E21);
    // Drive the full service, not just the parser: every mutated
    // line must produce a one-line response (ok or error), never an
    // abort. The base request plans the tiny model, so the rare
    // mutant that stays valid is still fast to serve.
    PlanService service;
    for (int trial = 0; trial < 300; ++trial) {
        std::string doc = kValidServiceRequest;
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(doc.size()) - 1));
            if (rng.uniformInt(0, 1) == 0)
                doc[pos] = static_cast<char>(rng.uniformInt(1, 127));
            else
                doc.erase(pos, 1);
        }
        const std::string response = service.handleLine(doc);
        ASSERT_FALSE(response.empty());
        EXPECT_EQ(response.rfind("{\"ok\":", 0), 0u) << response;
    }
}

TEST(DegradedPlanFuzz, MutationsNeverAbort)
{
    const std::uint64_t seed = fuzzSeed();
    SCOPED_TRACE("ADAPIPE_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0xDE64);
    // Wrap the valid plan in a degraded-plan document.
    const std::string base = std::string(R"({
  "scenario": {"straggler_stage": -1, "straggler_factor": 1.0,
               "mem_factor": 1.0, "lost_stages": 1,
               "host_link_factor": 0.75},
  "original_fingerprint": "0123456789abcdef",
  "degraded_capacity": 1000,
  "plan": )") + kValidPlan + "\n}";
    ASSERT_TRUE(tryDegradedPlanFromJsonString(base).ok())
        << tryDegradedPlanFromJsonString(base).error();
    for (int trial = 0; trial < 300; ++trial) {
        std::string doc = base;
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(doc.size()) - 1));
            if (rng.uniformInt(0, 1) == 0)
                doc[pos] = static_cast<char>(rng.uniformInt(1, 127));
            else
                doc.erase(pos, 1);
        }
        const auto r = tryDegradedPlanFromJsonString(doc);
        if (!r.ok()) {
            EXPECT_FALSE(r.error().empty());
        }
    }
}

} // namespace
} // namespace adapipe
