/**
 * @file
 * Segment checkpointing: the recomputation primitive.
 *
 * checkpoint(fn, input) runs fn's forward pass with gradient
 * recording disabled, so none of fn's intermediates are retained;
 * during backward the segment is re-executed with recording enabled
 * and differentiated. Because the recomputed forward performs
 * bit-identical float operations, gradients are bit-identical to the
 * non-checkpointed run — the invariant behind the paper's Fig. 10.
 *
 * Overlapped replay: the forward re-execution is a pure function of
 * the saved input value and the parameters, neither of which changes
 * between a micro-batch's forward and its backward (the optimizer
 * steps only after the whole iteration). It can therefore run *early*
 * — during a pipeline bubble — and produce the exact floats the lazy
 * replay would. A CheckpointCollector installed on the thread that
 * runs checkpoint() hands out one CheckpointHandle per checkpointed
 * segment; warming it performs the forward replay immediately and
 * leaves only the cheap differentiation of the rebuilt sub-graph for
 * backward time (Chen et al., "Optimizing Large Model Training
 * through Overlapped Activation Recomputation").
 *
 * Host offload: checkpointResident() is the third per-unit choice.
 * It records the segment's graph at forward time (warm from birth)
 * and hands out an offloadable CheckpointHandle whose evict() stages
 * every interior activation to host memory — releasing the device
 * buffers to the tensor pool — and whose fetch() copies them back
 * bit-exactly. A backward that arrives while the activations are
 * still on host (the prefetch missed its deadline) drops the cold
 * graph and falls back to a plain recompute replay from the kept
 * input, so losses never depend on transfer timing.
 */

#ifndef ADAPIPE_AUTOGRAD_CHECKPOINT_H
#define ADAPIPE_AUTOGRAD_CHECKPOINT_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/variable.h"

namespace adapipe {

/** A differentiable segment: maps one activation to the next. */
using Segment = std::function<Variable(const Variable &)>;

namespace checkpoint_detail {
struct ReplayState;
/** Register @p state with the thread's innermost collector, if any. */
void collect(std::shared_ptr<ReplayState> state);
} // namespace checkpoint_detail

/**
 * Handle to one checkpointed segment, handed out by a
 * CheckpointCollector. What it can do depends on how the segment was
 * made:
 *
 * - checkpoint(): warm() runs the forward replay (recording enabled)
 *   right away and stashes the rebuilt sub-graph; the node's backward
 *   then differentiates the stashed graph instead of re-running the
 *   forward. The replay runs exactly once, on whichever side gets
 *   there first, and changes no floats: the warm graph holds the same
 *   values the lazy replay would compute.
 * - checkpointResident() (offloadable()): evict() stages the
 *   segment's interior activations to host memory, releasing their
 *   device buffers to the tensor pool, and fetch() copies them back
 *   bit-exactly.
 *
 * The other kind's calls do nothing: warm() on a resident segment
 * returns false, evict()/fetch() on a recompute segment return 0.
 *
 * Threading contract: warm() must run on the thread that owns the
 * checkpointed graph, and never concurrently with a backward pass
 * over it. The pipeline runtime honours this by warming only from
 * the stage worker's own channel-wait loop, which cannot overlap its
 * BackwardEngine::run calls; the engine's internal job handoff then
 * orders the warm writes before any helper-thread read. evict() and
 * fetch() may run on any thread (the runtime's host-stager thread):
 * each holds the segment's state mutex across the whole transfer,
 * and the backward closure takes the same mutex before touching the
 * graph, so a backward racing a transfer either sees the fully
 * restored graph or takes the recompute fallback — never a
 * half-staged graph.
 */
class CheckpointHandle
{
  public:
    /** @return whether the segment is resident (evict()/fetch()). */
    bool offloadable() const;

    /**
     * Run the forward replay now (no-op when already warmed or
     * resident).
     * @return whether this call performed the replay.
     */
    bool warm() const;

    /**
     * Stage the segment's interior activations to host memory,
     * releasing their device buffers to the tensor pool.
     * @return bytes moved (0 when already evicted, already consumed
     *         by backward, or the segment is not offloadable)
     */
    std::size_t evict() const;

    /**
     * Copy staged activations back into their graph nodes
     * (bit-exact float round-trip).
     * @return bytes moved (0 unless the segment is currently evicted)
     */
    std::size_t fetch() const;

  private:
    friend void checkpoint_detail::collect(
        std::shared_ptr<checkpoint_detail::ReplayState>);
    explicit CheckpointHandle(
        std::shared_ptr<checkpoint_detail::ReplayState> state);

    std::shared_ptr<checkpoint_detail::ReplayState> state_;
};

/**
 * RAII collector of CheckpointHandles. While one is installed on a
 * thread, every checkpoint() or checkpointResident() call on that
 * thread that produces a differentiable node registers a handle with
 * the innermost collector; take() drains them in creation order.
 * Collectors nest (the previous one is restored on destruction) and
 * are strictly thread-local.
 */
class CheckpointCollector
{
  public:
    CheckpointCollector();
    ~CheckpointCollector();

    CheckpointCollector(const CheckpointCollector &) = delete;
    CheckpointCollector &operator=(const CheckpointCollector &) = delete;

    /** Handles registered since the last take(), creation order. */
    std::vector<CheckpointHandle> take();

  private:
    friend void checkpoint_detail::collect(
        std::shared_ptr<checkpoint_detail::ReplayState>);
    std::vector<CheckpointHandle> handles_;
    CheckpointCollector *previous_;
};

/**
 * Run @p segment with recomputation: only the segment's input and
 * output survive the forward pass.
 *
 * @param segment the function to checkpoint; it may capture module
 *        parameters (their gradients are accumulated on recompute)
 * @param input segment input
 * @return the segment output, wired into the surrounding graph
 */
Variable checkpoint(const Segment &segment, const Variable &input);

/**
 * Parameters the segment touches must be registered so the
 * recomputed backward can route gradients into them. Convenience
 * overload taking them explicitly.
 */
Variable checkpoint(const Segment &segment, const Variable &input,
                    const std::vector<Variable> &params);

/**
 * Run @p segment as a *resident* checkpoint: the segment's graph is
 * recorded during the forward pass (warm from birth) so its interior
 * activations stay on device — until a CheckpointHandle evicts them
 * to host. Backward differentiates the recorded graph when it is
 * resident and falls back to a recompute replay from the kept input
 * when it is not; both paths perform bit-identical float operations,
 * so gradients match checkpoint() and the plain forward exactly.
 *
 * @param segment the function to record; may capture parameters
 * @param input segment input (retained for the fallback replay)
 * @param params parameters the segment touches (gradient routing)
 * @return the segment output, wired into the surrounding graph
 */
Variable checkpointResident(const Segment &segment,
                            const Variable &input,
                            const std::vector<Variable> &params);

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_CHECKPOINT_H
