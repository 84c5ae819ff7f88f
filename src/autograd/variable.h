/**
 * @file
 * Reverse-mode automatic differentiation: variables and the tape.
 *
 * A Variable is a shared handle to a value plus (when gradients are
 * enabled) its position in the computation graph. Calling
 * Variable::backward() runs the dependency-counting ready-queue
 * executor (autograd/engine.h) on the calling thread, accumulating
 * gradients into leaves and freeing every interior value and
 * gradient at its last reader, which consumes the graph;
 * BackwardEngine runs the same executor over multiple worker threads
 * with bit-identical results. A thread-local GradMode switch lets the
 * checkpointing machinery run segments without recording the graph,
 * exactly like the recomputation the paper performs at scale.
 *
 * Deterministic reduction rule: a node's backward produces, for each
 * parent slot, an ORDERED list of gradient addends instead of adding
 * into the parent directly. The engine applies every parent's
 * contributions in (consumer topological index, parent-slot index)
 * order — the exact order the historical eager sweep performed its
 * in-place accumulations — so gradients are bit-identical at any
 * worker count, regardless of execution interleaving.
 */

#ifndef ADAPIPE_AUTOGRAD_VARIABLE_H
#define ADAPIPE_AUTOGRAD_VARIABLE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/tensor.h"

namespace adapipe {

class Variable;

namespace autograd_detail {

/**
 * Ordered gradient addends for one parent slot. Usually a single
 * tensor; checkpoint replay emits one addend per inner accumulation
 * so the reduction replays the eager engine's exact float order. An
 * empty list means the node contributes nothing to that slot.
 */
using GradParts = std::vector<Tensor>;

/** One contribution list per parent slot, slot order. */
using BackwardResult = std::vector<GradParts>;

/** Shared state of one graph node. */
struct VarImpl
{
    Tensor value;
    Tensor grad;
    bool requiresGrad = false;
    bool isLeaf = true;
    /**
     * A backward freed this interior node's value, grad and backward
     * closure at their last reader (autograd/engine.h). A graph is
     * consumed by its backward: running backward over the node again
     * panics.
     */
    bool consumed = false;
    /** Parents whose gradients this node contributes to. */
    std::vector<std::shared_ptr<VarImpl>> parents;
    /**
     * Whole-node backward: maps this node's grad to one contribution
     * list per parent slot (result size == parents.size()). Exactly
     * one of backwardFn / slotBackwardFn is set on interior nodes.
     */
    std::function<BackwardResult(VarImpl &)> backwardFn;
    /**
     * Per-slot backward: computes the contribution for one parent
     * slot independently of the others, so the engine can run the
     * slots of one node on different workers (e.g. a matmul's dA and
     * dB). Must be safe to call concurrently for distinct slots.
     */
    std::function<GradParts(VarImpl &, int)> slotBackwardFn;

    VarImpl();
    ~VarImpl();

    VarImpl(const VarImpl &) = delete;
    VarImpl &operator=(const VarImpl &) = delete;
};

/**
 * Allocate @p node's grad buffer (zeros, metered) when its shape
 * does not match the value; otherwise keep the existing buffer so
 * gradients accumulate across backward calls (micro-batching).
 */
void ensureGradBuffer(VarImpl &node);

/**
 * Adjust the activation meters by @p n floats (negative to release).
 * The backward engine frees a node's value and grad at their last
 * reader, host-offload eviction moves a live node's value storage
 * off the "device" and fetch moves it back; VarImpl's destructor
 * subtracts whatever the node holds at death, so those moves must
 * re-meter explicitly to keep live/peak counts exact.
 */
void meterAdjust(std::int64_t n);

/**
 * Live and peak activation floats of one graph owner. Every thread
 * owns one and charges it by default (threadLiveActivationFloats()).
 */
struct ActivationMeter
{
    std::atomic<std::int64_t> live{0};
    std::atomic<std::int64_t> peak{0};
};

/** @return the meter the calling thread charges right now. */
ActivationMeter &currentMeter();

/**
 * RAII: charge every meter update the calling thread makes in this
 * scope to @p meter. A thread working on another thread's graph
 * adopts the owner's meter: BackwardEngine helpers for the duration
 * of a job, the host stager for each transfer. The meter must
 * outlive every thread that adopts it.
 */
class AdoptMeter
{
  public:
    explicit AdoptMeter(ActivationMeter &meter);
    ~AdoptMeter();

    AdoptMeter(const AdoptMeter &) = delete;
    AdoptMeter &operator=(const AdoptMeter &) = delete;

  private:
    ActivationMeter *previous_;
};

} // namespace autograd_detail

/**
 * RAII guard disabling gradient recording in its scope (used by
 * checkpointed forward passes).
 */
class NoGradGuard
{
  public:
    NoGradGuard();
    ~NoGradGuard();

    NoGradGuard(const NoGradGuard &) = delete;
    NoGradGuard &operator=(const NoGradGuard &) = delete;

  private:
    bool previous_;
};

/** @return whether operations currently record the graph. */
bool gradEnabled();

/**
 * Peak number of floats held alive by graph nodes since the last
 * resetActivationMeter() call — the engine's measure of activation
 * memory, used to demonstrate that checkpointing really frees
 * intermediates. It counts node values (saved activations), node
 * grads (activation gradients until their last reader, parameter
 * gradients until the parameter dies); buffers a backward closure
 * holds (the GELU slope, softmax probabilities) are not metered, and
 * die with the closure at the node's last reader.
 */
std::int64_t peakActivationFloats();

/** @return floats currently held alive by graph nodes. */
std::int64_t liveActivationFloats();

/** Reset the peak watermark to the current live count. */
void resetActivationMeter();

/**
 * Per-thread activation accounting, used by the pipeline runtime to
 * attribute peak activation memory to individual stage threads (the
 * process-wide meter above cannot tell stages apart).
 *
 * Every allocation and release is charged to the meter of the thread
 * that owns the graph: the calling thread's own, unless it adopted
 * another (autograd_detail::AdoptMeter). BackwardEngine helpers adopt
 * the run() caller's meter, and the host stager charges every
 * transfer to the meter of the stage worker that owns it, so the
 * owner's counts are exact at any engine width and whichever thread
 * allocated or freed a node.
 */
std::int64_t threadLiveActivationFloats();

/** Peak of the calling thread's live count since its last reset. */
std::int64_t threadPeakActivationFloats();

/** Reset the calling thread's peak watermark to its live count. */
void resetThreadActivationMeter();

/**
 * Autograd variable: shared handle to a node.
 */
class Variable
{
  public:
    /** Empty (null) variable. */
    Variable() = default;

    /** Leaf from a value. @p requires_grad marks a parameter. */
    explicit Variable(Tensor value, bool requires_grad = false);

    /** @return whether the handle points to a node. */
    bool defined() const { return impl_ != nullptr; }

    /** @return the value tensor. */
    const Tensor &value() const { return impl_->value; }

    /** @return mutable value (optimizers update parameters). */
    Tensor &mutableValue() { return impl_->value; }

    /** @return accumulated gradient (zeros before backward). */
    const Tensor &grad() const { return impl_->grad; }

    /** @return whether grads flow into this node. */
    bool requiresGrad() const { return impl_->requiresGrad; }

    /** Zero the gradient buffer. */
    void zeroGrad();

    /**
     * Run reverse-mode differentiation from this (scalar) variable.
     * Seeds the output gradient with ones.
     */
    void backward();

    /**
     * Run reverse-mode differentiation seeded with @p seed (same
     * shape as the value), on the calling thread, consuming the
     * graph: every interior node's value and grad are freed, and a
     * second backward over them panics. This is the single-threaded
     * reference the parallel BackwardEngine is bit-identical to.
     */
    void backward(const Tensor &seed);

    /**
     * @return a leaf variable sharing no graph history with this
     * one (fresh copy of the value). Used at checkpoint boundaries.
     */
    Variable detach(bool requires_grad = false) const;

    /** @name Engine internals (used by ops.cpp / checkpoint.cpp)
     *  @{
     */
    using Impl = autograd_detail::VarImpl;
    const std::shared_ptr<Impl> &impl() const { return impl_; }
    static Variable
    fromImpl(std::shared_ptr<Impl> impl)
    {
        Variable v;
        v.impl_ = std::move(impl);
        return v;
    }

    /**
     * Create an interior node. When gradients are disabled or no
     * parent requires them, the result is a constant leaf.
     *
     * @param value forward result
     * @param parents graph parents
     * @param backward_fn produces per-parent gradient contributions
     */
    static Variable
    makeNode(Tensor value, std::vector<Variable> parents,
             std::function<autograd_detail::BackwardResult(Impl &)>
                 backward_fn);

    /**
     * Create an interior node whose backward runs one independent
     * task per parent slot (see VarImpl::slotBackwardFn). Used by
     * the matmul-family ops, whose per-parent kernels share no
     * mutable state.
     */
    static Variable
    makeNodeSlotwise(
        Tensor value, std::vector<Variable> parents,
        std::function<autograd_detail::GradParts(Impl &, int)>
            slot_backward_fn);
    /** @} */

  private:
    std::shared_ptr<Impl> impl_;
};

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_VARIABLE_H
