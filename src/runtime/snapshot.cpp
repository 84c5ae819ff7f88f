#include "runtime/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "util/canonical_json.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace adapipe {

namespace {

constexpr const char *kMagic = "ADAPIPESNAP1\n";
constexpr int kVersion = 1;
/** Element-count ceiling: rejects absurd shapes before the numel
 *  product can overflow or drive a giant allocation from a hostile
 *  header. */
constexpr std::int64_t kMaxBlobFloats =
    std::int64_t{1} << 40; // 4 TiB of floats

JsonValue
shapesToJson(const std::vector<Tensor> &tensors)
{
    JsonValue shapes = JsonValue::array();
    for (const Tensor &t : tensors) {
        JsonValue shape = JsonValue::array();
        for (int d : t.shape())
            shape.push(JsonValue::integer(d));
        shapes.push(std::move(shape));
    }
    return shapes;
}

/** Read a shape list ("params"/"adam_m"/"adam_v"), allocating
 *  zero-filled tensors and accumulating the float count. */
std::vector<Tensor>
readShapes(const JsonReader &node, std::int64_t &total_floats)
{
    std::vector<Tensor> tensors;
    tensors.reserve(node.size());
    for (std::size_t i = 0; i < node.size(); ++i) {
        const JsonReader shape_node = node.at(i);
        std::vector<int> shape;
        std::int64_t numel = 1;
        for (std::size_t d = 0; d < shape_node.size(); ++d) {
            const std::int64_t dim = shape_node.at(d).asInteger();
            if (dim < 1 || dim > kMaxBlobFloats)
                shape_node.at(d).fail("dimension out of range");
            numel *= dim;
            if (numel > kMaxBlobFloats)
                shape_node.fail("tensor element count out of range");
            shape.push_back(static_cast<int>(dim));
        }
        if (shape.empty())
            shape_node.fail("empty shape");
        total_floats += numel;
        if (total_floats > kMaxBlobFloats)
            node.fail("blob element count out of range");
        tensors.emplace_back(std::move(shape));
    }
    return tensors;
}

void
appendBlob(std::string &out, const std::vector<Tensor> &tensors)
{
    for (const Tensor &t : tensors) {
        const std::size_t bytes =
            static_cast<std::size_t>(t.numel()) * sizeof(float);
        const std::size_t offset = out.size();
        out.resize(offset + bytes);
        std::memcpy(&out[offset], t.data().data(), bytes);
    }
}

/** Copy the next numel() floats of the blob into @p tensors. */
void
readBlob(const char *blob, std::size_t &offset,
         std::vector<Tensor> &tensors)
{
    for (Tensor &t : tensors) {
        const std::size_t bytes =
            static_cast<std::size_t>(t.numel()) * sizeof(float);
        std::memcpy(t.data().data(), blob + offset, bytes);
        offset += bytes;
    }
}

JsonValue
modelConfigToJson(const TinyLmConfig &config)
{
    JsonValue model = JsonValue::object();
    model.set("vocab", JsonValue::integer(config.vocab));
    model.set("dim", JsonValue::integer(config.dim));
    model.set("blocks", JsonValue::integer(config.blocks));
    model.set("ffn_hidden", JsonValue::integer(config.ffnHidden));
    model.set("max_seq", JsonValue::integer(config.maxSeq));
    model.set("num_heads", JsonValue::integer(config.numHeads));
    model.set("gated_ffn", JsonValue::boolean(config.gatedFfn));
    model.set("rms_norm", JsonValue::boolean(config.rmsNorm));
    model.set("seed", JsonValue::integer(
                          static_cast<std::int64_t>(config.seed)));
    return model;
}

TinyLmConfig
modelConfigFromJson(const JsonReader &model)
{
    TinyLmConfig config;
    config.vocab = static_cast<int>(model.key("vocab").asInteger());
    config.dim = static_cast<int>(model.key("dim").asInteger());
    config.blocks = static_cast<int>(model.key("blocks").asInteger());
    config.ffnHidden =
        static_cast<int>(model.key("ffn_hidden").asInteger());
    config.maxSeq =
        static_cast<int>(model.key("max_seq").asInteger());
    config.numHeads =
        static_cast<int>(model.key("num_heads").asInteger());
    config.gatedFfn = model.key("gated_ffn").asBool();
    config.rmsNorm = model.key("rms_norm").asBool();
    config.seed = static_cast<std::uint64_t>(
        model.key("seed").asInteger());
    if (config.vocab < 1)
        model.key("vocab").fail("vocab must be >= 1");
    if (config.dim < 1)
        model.key("dim").fail("dim must be >= 1");
    if (config.blocks < 1)
        model.key("blocks").fail("blocks must be >= 1");
    return config;
}

/** Canonical parameter index by graph-node identity. */
std::unordered_map<const autograd_detail::VarImpl *, std::size_t>
canonicalIndex(const std::vector<Variable> &params)
{
    std::unordered_map<const autograd_detail::VarImpl *, std::size_t>
        index;
    index.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        index.emplace(params[i].impl().get(), i);
    return index;
}

} // namespace

std::string
snapshotToBytes(const TrainingSnapshot &snap)
{
    std::string blob;
    appendBlob(blob, snap.params);
    appendBlob(blob, snap.adamM);
    appendBlob(blob, snap.adamV);

    JsonValue header = JsonValue::object();
    header.set("version", JsonValue::integer(snap.version));
    header.set("step", JsonValue::integer(snap.step));
    header.set("data_seed",
               JsonValue::integer(
                   static_cast<std::int64_t>(snap.dataSeed)));
    header.set("optimizer", JsonValue::string("adam"));
    header.set("adam_t", JsonValue::integer(snap.adamT));
    header.set("model", modelConfigToJson(snap.config));
    header.set("params", shapesToJson(snap.params));
    header.set("adam_m", shapesToJson(snap.adamM));
    header.set("adam_v", shapesToJson(snap.adamV));
    header.set("blob_floats",
               JsonValue::integer(static_cast<std::int64_t>(
                   blob.size() / sizeof(float))));
    header.set("blob_checksum", JsonValue::string(hex16(fnv1a64(blob))));
    const std::string header_text = header.dump(0);

    std::string bytes;
    bytes.reserve(std::strlen(kMagic) + 24 + header_text.size() +
                  blob.size());
    bytes += kMagic;
    bytes += std::to_string(header_text.size());
    bytes += '\n';
    bytes += header_text;
    bytes += blob;
    return bytes;
}

ParseResult<TrainingSnapshot>
snapshotFromBytes(const std::string &bytes)
{
    using Result = ParseResult<TrainingSnapshot>;
    const std::size_t magic_len = std::strlen(kMagic);
    if (bytes.size() < magic_len ||
        bytes.compare(0, magic_len, kMagic) != 0) {
        return Result::failure(
            "snapshot: bad magic (not a snapshot file, or truncated "
            "before the format marker)");
    }

    // Header length: a short decimal line. Bound the digits so a
    // corrupt byte stream cannot send us scanning megabytes for '\n'.
    std::size_t pos = magic_len;
    std::size_t header_len = 0;
    std::size_t digits = 0;
    while (pos < bytes.size() && bytes[pos] != '\n') {
        const char c = bytes[pos];
        if (c < '0' || c > '9' || ++digits > 9)
            return Result::failure(
                "snapshot: malformed header length");
        header_len = header_len * 10 +
                     static_cast<std::size_t>(c - '0');
        ++pos;
    }
    if (pos >= bytes.size() || digits == 0)
        return Result::failure(
            "snapshot: truncated before header length");
    ++pos; // consume '\n'
    if (bytes.size() - pos < header_len)
        return Result::failure("snapshot: truncated header");

    ParseResult<JsonValue> json =
        JsonValue::tryParse(bytes.substr(pos, header_len));
    if (!json.ok()) {
        return Result::failure("snapshot header: " + json.error());
    }
    pos += header_len;

    std::int64_t declared_floats = 0;
    std::string declared_checksum;
    Result parsed = readJson<TrainingSnapshot>(
        json.value(), "snapshot",
        [&declared_floats, &declared_checksum](JsonReader root) {
            TrainingSnapshot snap;
            snap.version = static_cast<int>(
                root.key("version").asInteger());
            if (snap.version != kVersion) {
                root.key("version")
                    .fail("unsupported snapshot version " +
                          std::to_string(snap.version) +
                          " (this build reads version " +
                          std::to_string(kVersion) + ")");
            }
            snap.step = root.key("step").asInteger();
            if (snap.step < 0)
                root.key("step").fail("step must be >= 0");
            snap.dataSeed = static_cast<std::uint64_t>(
                root.key("data_seed").asInteger());
            const std::string optimizer =
                root.key("optimizer").asString();
            if (optimizer != "adam")
                root.key("optimizer")
                    .fail("unsupported optimizer '" + optimizer +
                          "' (snapshots hold adam state)");
            snap.adamT = static_cast<int>(
                root.key("adam_t").asInteger());
            if (snap.adamT < 0)
                root.key("adam_t").fail("adam_t must be >= 0");
            snap.config = modelConfigFromJson(root.key("model"));

            std::int64_t total_floats = 0;
            snap.params =
                readShapes(root.key("params"), total_floats);
            snap.adamM =
                readShapes(root.key("adam_m"), total_floats);
            snap.adamV =
                readShapes(root.key("adam_v"), total_floats);
            if (snap.params.empty())
                root.key("params").fail("no parameters");
            if (snap.adamM.size() != snap.adamV.size())
                root.key("adam_v")
                    .fail("adam_m/adam_v count mismatch");
            if (snap.adamM.size() != snap.params.size())
                root.key("adam_m")
                    .fail("moment count does not match parameter "
                          "count");
            for (std::size_t i = 0; i < snap.adamM.size(); ++i) {
                if (!snap.adamM[i].sameShape(snap.params[i]) ||
                    !snap.adamV[i].sameShape(snap.params[i]))
                    root.key("adam_m")
                        .fail("moment shape does not match "
                              "parameter " +
                              std::to_string(i));
            }

            declared_floats =
                root.key("blob_floats").asInteger();
            if (declared_floats != total_floats) {
                root.key("blob_floats")
                    .fail("declared " +
                          std::to_string(declared_floats) +
                          " floats but shapes sum to " +
                          std::to_string(total_floats));
            }
            declared_checksum =
                root.key("blob_checksum").asString();
            return snap;
        });
    if (!parsed.ok())
        return parsed;
    TrainingSnapshot snap = std::move(parsed).value();

    const std::size_t blob_bytes =
        static_cast<std::size_t>(declared_floats) * sizeof(float);
    if (bytes.size() - pos != blob_bytes) {
        return Result::failure(
            "snapshot: blob length mismatch (header declares " +
            std::to_string(blob_bytes) + " bytes, file carries " +
            std::to_string(bytes.size() - pos) + ")");
    }
    const std::string checksum = hex16(
        fnv1a64(std::string_view(bytes.data() + pos, blob_bytes)));
    if (checksum != declared_checksum) {
        return Result::failure(
            "snapshot: blob checksum mismatch (header " +
            declared_checksum + ", blob " + checksum + ")");
    }

    std::size_t offset = pos;
    readBlob(bytes.data(), offset, snap.params);
    readBlob(bytes.data(), offset, snap.adamM);
    readBlob(bytes.data(), offset, snap.adamV);
    return Result::success(std::move(snap));
}

ParseStatus
writeSnapshotFile(const std::string &path,
                  const TrainingSnapshot &snap)
{
    const std::string tmp = path + ".tmp";
    ParseStatus wrote = writeTextFile(tmp, snapshotToBytes(snap));
    if (!wrote.ok())
        return wrote;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return ParseStatus::failure(path +
                                    ": cannot rename snapshot into "
                                    "place");
    }
    return parseOk();
}

ParseResult<TrainingSnapshot>
loadSnapshotFile(const std::string &path)
{
    ParseResult<std::string> text = readTextFile(path);
    if (!text.ok())
        return ParseResult<TrainingSnapshot>::failure(text.error());
    ParseResult<TrainingSnapshot> snap =
        snapshotFromBytes(text.value());
    if (!snap.ok()) {
        return ParseResult<TrainingSnapshot>::failure(
            path + ": " + snap.error());
    }
    return snap;
}

TrainingSnapshot
captureTrainingSnapshot(const TinyLM &model,
                        const std::vector<const Adam *> &optimizers,
                        std::int64_t step, std::uint64_t data_seed)
{
    TrainingSnapshot snap;
    snap.config = model.config();
    snap.step = step;
    snap.dataSeed = data_seed;

    const std::vector<Variable> params = model.params();
    snap.params.reserve(params.size());
    snap.adamM.reserve(params.size());
    snap.adamV.reserve(params.size());
    for (const Variable &p : params) {
        snap.params.push_back(p.value());
        snap.adamM.emplace_back(p.value().shape());
        snap.adamV.emplace_back(p.value().shape());
    }
    const auto index = canonicalIndex(params);
    for (const Adam *adam : optimizers) {
        if (adam == nullptr)
            continue;
        snap.adamT = std::max(snap.adamT, adam->stepCount());
        const std::vector<Variable> &owned = adam->params();
        for (std::size_t i = 0; i < owned.size(); ++i) {
            const auto it = index.find(owned[i].impl().get());
            ADAPIPE_ASSERT(it != index.end(),
                           "optimizer parameter not in model");
            snap.adamM[it->second] = adam->moment1(i);
            snap.adamV[it->second] = adam->moment2(i);
        }
    }
    return snap;
}

ParseStatus
restoreTinyLM(TinyLM &model, const TrainingSnapshot &snap)
{
    const TinyLmConfig &have = model.config();
    const TinyLmConfig &want = snap.config;
    const auto mismatch = [](const std::string &field,
                             std::int64_t model_v,
                             std::int64_t snap_v) {
        return ParseStatus::failure(
            "snapshot model mismatch: " + field + " is " +
            std::to_string(snap_v) + " in the snapshot but " +
            std::to_string(model_v) + " in the model");
    };
    if (have.vocab != want.vocab)
        return mismatch("vocab", have.vocab, want.vocab);
    if (have.dim != want.dim)
        return mismatch("dim", have.dim, want.dim);
    if (have.blocks != want.blocks)
        return mismatch("blocks", have.blocks, want.blocks);
    if (have.ffnHidden != want.ffnHidden)
        return mismatch("ffn_hidden", have.ffnHidden,
                        want.ffnHidden);
    if (have.maxSeq != want.maxSeq)
        return mismatch("max_seq", have.maxSeq, want.maxSeq);
    if (have.numHeads != want.numHeads)
        return mismatch("num_heads", have.numHeads, want.numHeads);
    if (have.gatedFfn != want.gatedFfn)
        return mismatch("gated_ffn", have.gatedFfn, want.gatedFfn);
    if (have.rmsNorm != want.rmsNorm)
        return mismatch("rms_norm", have.rmsNorm, want.rmsNorm);
    if (have.seed != want.seed)
        return mismatch("seed",
                        static_cast<std::int64_t>(have.seed),
                        static_cast<std::int64_t>(want.seed));

    std::vector<Variable> params = model.params();
    if (params.size() != snap.params.size()) {
        return ParseStatus::failure(
            "snapshot: parameter count mismatch (model has " +
            std::to_string(params.size()) + ", snapshot has " +
            std::to_string(snap.params.size()) + ")");
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (!params[i].value().sameShape(snap.params[i]))
            return ParseStatus::failure(
                "snapshot: shape mismatch at parameter " +
                std::to_string(i));
    }
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i].mutableValue() = snap.params[i];
    return parseOk();
}

ParseStatus
restoreAdamState(Adam &adam, const TinyLM &model,
                 const TrainingSnapshot &snap)
{
    const std::vector<Variable> params = model.params();
    if (snap.adamM.size() != params.size()) {
        return ParseStatus::failure(
            "snapshot: adam moment count mismatch");
    }
    const auto index = canonicalIndex(params);
    const std::vector<Variable> &owned = adam.params();
    for (std::size_t i = 0; i < owned.size(); ++i) {
        const auto it = index.find(owned[i].impl().get());
        if (it == index.end()) {
            return ParseStatus::failure(
                "snapshot: optimizer parameter " +
                std::to_string(i) + " not found in the model");
        }
        if (!snap.adamM[it->second].sameShape(owned[i].value())) {
            return ParseStatus::failure(
                "snapshot: adam moment shape mismatch at "
                "parameter " +
                std::to_string(it->second));
        }
        adam.setMoments(i, snap.adamM[it->second],
                        snap.adamV[it->second]);
    }
    adam.setStepCount(snap.adamT);
    return parseOk();
}

} // namespace adapipe
