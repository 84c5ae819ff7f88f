#include "autograd/checkpoint.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "autograd/engine.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "util/logging.h"

namespace adapipe {

namespace checkpoint_detail {

/**
 * Shared replay state of one checkpointed segment: what the lazy
 * replay needs (segment + saved input) plus, once warmed, the rebuilt
 * recorded sub-graph the backward differentiates.
 */
struct ReplayState
{
    Segment segment;
    Variable input;
    bool warmed = false;
    /** Recorded leaf copy of the input (grad routes through it). */
    Variable warmIn;
    /** Recorded segment output; root of the rebuilt sub-graph. */
    Variable warmOut;

    /** @name Host-offload tier (checkpointResident() only)
     *  @{ */
    /** Marks a resident checkpoint eligible for evict()/fetch(). Set
     *  before the state is published, immutable afterwards, so the
     *  plain checkpoint() path never takes the mutex below. */
    bool offloadable = false;
    /** Guards everything below. Held across a *whole* evict or
     *  fetch, so the backward closure (which locks it first) either
     *  sees a fully resident graph or a fully evicted one. */
    std::mutex mu;
    /** Backward consumed (or dropped) the graph; transfers no-op. */
    bool consumed = false;
    /** Interior activations currently live in hostStage, not on
     *  the graph nodes. */
    bool evicted = false;
    /** One staged interior tensor: owning node, shape, host copy. */
    struct HostTensor
    {
        std::shared_ptr<Variable::Impl> node;
        std::vector<int> shape;
        std::vector<float> data;
    };
    std::vector<HostTensor> hostStage;
    /** @} */
};

namespace {

thread_local CheckpointCollector *g_collector = nullptr;

/**
 * Interior nodes of the warm graph: every non-leaf reachable from
 * warmOut via parent edges, excluding warmOut itself (its value is
 * also the checkpoint node's output and must stay on device). Leaves
 * (the recorded input copy, parameters) are excluded too — the 1F1B
 * schedule keeps boundary activations and weights resident.
 */
std::vector<std::shared_ptr<Variable::Impl>>
interiorNodes(const ReplayState &st)
{
    std::vector<std::shared_ptr<Variable::Impl>> out;
    if (!st.warmOut.defined())
        return out;
    std::unordered_set<const Variable::Impl *> seen;
    std::vector<std::shared_ptr<Variable::Impl>> stack;
    stack.push_back(st.warmOut.impl());
    seen.insert(st.warmOut.impl().get());
    while (!stack.empty()) {
        std::shared_ptr<Variable::Impl> node =
            std::move(stack.back());
        stack.pop_back();
        if (!node->isLeaf && node.get() != st.warmOut.impl().get())
            out.push_back(node);
        for (const auto &parent : node->parents) {
            if (parent && seen.insert(parent.get()).second)
                stack.push_back(parent);
        }
    }
    return out;
}

/**
 * Run the forward replay once. Emits the same "checkpoint.replays"
 * count whether the replay fires eagerly (warm) or lazily (backward),
 * so replay totals stay comparable across modes, plus a
 * "checkpoint.replay_us" counter the runtime uses to meter replay
 * time out of the backward timer exactly (per-chunk, merge-safe).
 */
void
ensureWarm(ReplayState &st)
{
    if (st.warmed)
        return;
    st.warmed = true;
    ADAPIPE_OBS_COUNT("checkpoint.replays", 1);
    const double start_us = obs::nowUs();
    {
        ADAPIPE_OBS_SPAN(replay_span, "checkpoint.replay");
        st.warmIn = st.input.detach(true);
        st.warmOut = st.segment(st.warmIn);
    }
    ADAPIPE_OBS_COUNT("checkpoint.replay_us",
                      static_cast<std::int64_t>(obs::nowUs() - start_us));
    // The saved input stays alive through warmIn / the node's parent
    // list; drop this extra reference.
    st.input = Variable();
}

/**
 * Build the checkpoint output node over @p state, with @p input and
 * @p params as its parents, and register a handle with the thread's
 * collector. Shared by checkpoint() and checkpointResident(): the
 * backward closure is the same graph-consuming differentiation
 * either way; resident states additionally gate it on residency
 * (consume the warm graph, or drop it and fall back to a replay when
 * the activations are still on host).
 */
Variable
makeCheckpointNode(const std::shared_ptr<ReplayState> &state,
                   Tensor out_value, const Variable &input,
                   const std::vector<Variable> &params)
{
    std::vector<Variable> parents;
    parents.push_back(input);
    parents.insert(parents.end(), params.begin(), params.end());
    Variable node_out = Variable::makeNode(
        std::move(out_value), std::move(parents),
        [state](Variable::Impl &node) {
            // Recompute the segment with recording enabled (unless a
            // warm() already did), then backpropagate the downstream
            // gradient through the rebuilt sub-graph — entirely on
            // this thread, with leaf accumulation redirected into a
            // private capture map so concurrent replays never touch
            // shared parameter grads. The captured addends come back
            // as ordered lists the outer engine applies in its
            // deterministic reduction, reproducing the eager engine's
            // float sequence exactly (a replayed parameter used twice
            // yields two addends, added one after the other as before
            // — summing them here first would reassociate the
            // floats).
            if (state->offloadable) {
                // Consume-or-fallback gate. The lock orders this
                // against any in-flight transfer: a fetch holding
                // the mutex finishes first and we consume the
                // restored graph; an unfinished (or never issued)
                // fetch leaves the segment evicted and we drop the
                // cold graph, falling back to a recompute replay
                // from the kept input. Both paths perform
                // bit-identical float operations.
                std::lock_guard<std::mutex> lock(state->mu);
                state->consumed = true;
                if (state->evicted) {
                    state->hostStage.clear();
                    state->warmIn = Variable();
                    state->warmOut = Variable();
                    state->warmed = false;
                    ADAPIPE_OBS_COUNT("offload.fetch_miss", 1);
                }
            }
            ensureWarm(*state);
            // Resident states keep the input for the fallback
            // replay; it is no longer needed once the graph is
            // consumed (ensureWarm already cleared it on replay).
            state->input = Variable();
            Variable in_copy = std::move(state->warmIn);
            Variable out = std::move(state->warmOut);
            state->warmIn = Variable();
            state->warmOut = Variable();
            ADAPIPE_ASSERT(out.value().sameShape(node.value),
                           "checkpoint recompute shape mismatch");

            engine_detail::GradCapture capture;
            capture[in_copy.impl().get()];
            for (std::size_t i = 1; i < node.parents.size(); ++i) {
                if (node.parents[i])
                    capture[node.parents[i].get()];
            }
            engine_detail::backwardInline(out.impl(), node.grad,
                                          &capture);

            autograd_detail::BackwardResult result(
                node.parents.size());
            // Input slot: the eager engine accumulated the replay's
            // input gradient into one zero-initialised buffer and
            // added it to the real parent once; fold the captured
            // list the same way.
            if (node.parents[0]) {
                Tensor folded(in_copy.value().shape());
                for (const Tensor &part :
                     capture[in_copy.impl().get()])
                    folded.add_(part);
                result[0].push_back(std::move(folded));
            }
            // Parameter slots receive their captured lists verbatim;
            // a parameter listed in several slots routes everything
            // through its first slot (the map holds one list per
            // leaf).
            std::unordered_set<Variable::Impl *> routed;
            for (std::size_t i = 1; i < node.parents.size(); ++i) {
                Variable::Impl *param = node.parents[i].get();
                if (!param || !routed.insert(param).second)
                    continue;
                result[i] = std::move(capture[param]);
            }
            return result;
        });
    // Only differentiable nodes can ever replay; constant results
    // (grads disabled, no parent requiring them) need no handle.
    if (node_out.impl() && node_out.impl()->backwardFn)
        collect(state);
    return node_out;
}

} // namespace

void
collect(std::shared_ptr<ReplayState> state)
{
    if (g_collector)
        g_collector->handles_.push_back(
            CheckpointHandle(std::move(state)));
}

} // namespace checkpoint_detail

CheckpointHandle::CheckpointHandle(
    std::shared_ptr<checkpoint_detail::ReplayState> state)
    : state_(std::move(state))
{
}

bool
CheckpointHandle::offloadable() const
{
    return state_->offloadable;
}

bool
CheckpointHandle::warm() const
{
    if (state_->offloadable || state_->warmed)
        return false;
    checkpoint_detail::ensureWarm(*state_);
    return true;
}

std::size_t
CheckpointHandle::evict() const
{
    if (!state_->offloadable)
        return 0;
    checkpoint_detail::ReplayState &st = *state_;
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.consumed || st.evicted || !st.warmed)
        return 0;
    std::size_t bytes = 0;
    for (auto &node : checkpoint_detail::interiorNodes(st)) {
        Tensor &value = node->value;
        if (value.numel() == 0)
            continue;
        checkpoint_detail::ReplayState::HostTensor ht;
        ht.shape = value.shape();
        ht.data.assign(value.data().begin(), value.data().end());
        bytes += ht.data.size() * sizeof(float);
        // The device buffer goes back to the pool; the meter must
        // follow (VarImpl's destructor subtracts whatever the node
        // holds at death, which is nothing until fetch()).
        autograd_detail::meterAdjust(-value.numel());
        value = Tensor();
        ht.node = std::move(node);
        st.hostStage.push_back(std::move(ht));
    }
    st.evicted = true;
    return bytes;
}

std::size_t
CheckpointHandle::fetch() const
{
    if (!state_->offloadable)
        return 0;
    checkpoint_detail::ReplayState &st = *state_;
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.consumed || !st.evicted)
        return 0;
    std::size_t bytes = 0;
    for (auto &ht : st.hostStage) {
        Tensor value = Tensor::uninitialized(ht.shape);
        std::copy(ht.data.begin(), ht.data.end(),
                  value.data().begin());
        bytes += ht.data.size() * sizeof(float);
        autograd_detail::meterAdjust(value.numel());
        ht.node->value = std::move(value);
    }
    st.hostStage.clear();
    st.evicted = false;
    return bytes;
}

CheckpointCollector::CheckpointCollector()
    : previous_(checkpoint_detail::g_collector)
{
    checkpoint_detail::g_collector = this;
}

CheckpointCollector::~CheckpointCollector()
{
    checkpoint_detail::g_collector = previous_;
}

std::vector<CheckpointHandle>
CheckpointCollector::take()
{
    std::vector<CheckpointHandle> out = std::move(handles_);
    handles_.clear();
    return out;
}

Variable
checkpoint(const Segment &segment, const Variable &input)
{
    return checkpoint(segment, input, {});
}

Variable
checkpoint(const Segment &segment, const Variable &input,
           const std::vector<Variable> &params)
{
    ADAPIPE_ASSERT(input.defined(), "checkpoint needs a defined input");

    // Forward without recording: none of the segment's intermediates
    // survive this scope.
    Tensor out_value;
    {
        NoGradGuard guard;
        Variable detached = input.detach(false);
        Variable out = segment(detached);
        out_value = out.value();
    }

    auto state =
        std::make_shared<checkpoint_detail::ReplayState>();
    state->segment = segment;
    state->input = input;
    return checkpoint_detail::makeCheckpointNode(
        state, std::move(out_value), input, params);
}

Variable
checkpointResident(const Segment &segment, const Variable &input,
                   const std::vector<Variable> &params)
{
    ADAPIPE_ASSERT(input.defined(),
                   "checkpointResident needs a defined input");

    auto state =
        std::make_shared<checkpoint_detail::ReplayState>();
    state->segment = segment;
    // Kept until backward (unlike checkpoint(), which drops it on
    // replay): the fetch-miss fallback replays from it.
    state->input = input;
    state->offloadable = true;

    // Record the segment *with* gradients: the graph built here is
    // float-identical to the one a warm() replay would rebuild, so
    // backward can consume it directly — or drop it and replay when
    // the staged activations miss their fetch deadline.
    state->warmed = true;
    state->warmIn = input.detach(true);
    state->warmOut = segment(state->warmIn);
    Tensor out_value = state->warmOut.value();
    return checkpoint_detail::makeCheckpointNode(
        state, std::move(out_value), input, params);
}

} // namespace adapipe
