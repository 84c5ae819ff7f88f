/**
 * @file
 * Dependency-counting ready-queue executor for reverse-mode autograd.
 *
 * Design (after PyTorch's autograd engine): a pre-pass walks the
 * graph once, counts how many gradient contributions each node will
 * receive, and assigns every (consumer, parent-slot) pair a fixed
 * index in the parent's accumulation buffer. Workers pop ready tasks
 * from per-worker deques (stealing from peers when their own queue
 * runs dry); a task runs one node's backward — or one parent slot of
 * it for slot-parallel ops like matmul — and deposits the resulting
 * gradient parts into the parent's buffer at the preassigned index.
 * The last depositor reduces the buffer and enqueues the parent's
 * own tasks.
 *
 * Determinism: contribution indices are assigned in (consumer
 * topological index, parent-slot index) order — exactly the order
 * the historical eager sweep performed its in-place accumulations —
 * and the reduction applies them in that fixed order. Execution
 * order therefore never touches the float stream: gradients are
 * bit-identical at any worker count, which is what keeps pipeline
 * losses equal to the single-threaded trainer's under intra-stage
 * parallelism (the repo's standing bit-equality contract).
 *
 * Lifetimes: the pre-pass also gives every interior node except the
 * root a reader count — its own tasks plus every task of each
 * distinct consumer, since a consumer's backward may read its
 * parents' values. The task that takes the count to zero frees the
 * node's value and grad, re-meters them, drops the node's backward
 * closure with every buffer it saved and marks the node consumed, so
 * activations and their gradients die at their last reader. A
 * backward therefore consumes its graph: running backward over a
 * consumed node panics. The root keeps its value and grad for the
 * caller, leaves are never freed, and a checkpoint replay's inner
 * backward frees its rebuilt graph the same way.
 *
 * Threading: BackwardEngine owns threads-1 persistent helper
 * threads, parked between runs; the calling thread always works as
 * worker 0, so threads == 1 never spawns anything and is the
 * single-threaded reference path Variable::backward uses. Helpers
 * record observability into private scratch registries (obs
 * Registries are single-threaded by contract) that are merged into
 * the caller's registry after quiescence, so counters like
 * checkpoint.replays survive parallel execution losslessly. For the
 * length of a job they also adopt the caller's activation meter, so
 * every allocation and free is charged to the graph's owner.
 */

#ifndef ADAPIPE_AUTOGRAD_ENGINE_H
#define ADAPIPE_AUTOGRAD_ENGINE_H

#include <memory>
#include <unordered_map>

#include "autograd/variable.h"

namespace adapipe {

/** Configuration of a BackwardEngine. */
struct EngineOptions
{
    /**
     * Worker count, calling thread included. Values < 1 clamp to 1;
     * 1 runs entirely inline on the caller (no helper threads).
     */
    int threads = 1;
};

/**
 * Reusable multi-threaded backward executor. One engine per
 * consumer thread (engines are not themselves thread-safe); helper
 * threads persist across run() calls so per-backward thread churn —
 * and the tensor-pool cache loss that came with it — never happens.
 */
class BackwardEngine
{
  public:
    explicit BackwardEngine(EngineOptions opts = {});
    ~BackwardEngine();

    BackwardEngine(const BackwardEngine &) = delete;
    BackwardEngine &operator=(const BackwardEngine &) = delete;

    /** @return the configured worker count (>= 1). */
    int threads() const { return threads_; }

    /**
     * Run backward from @p root seeded with @p seed (same shape as
     * the root's value), accumulating into reachable grads exactly
     * like Variable::backward, and consume the graph (every interior
     * node but the root is freed). Exceptions thrown by backward
     * functions propagate to the caller after all workers quiesce.
     */
    void run(const Variable &root, const Tensor &seed);

  private:
    struct Shared;

    int threads_ = 1;
    std::unique_ptr<Shared> shared_;
};

namespace engine_detail {

/**
 * Redirection table for leaf gradients: when a leaf VarImpl appears
 * as a key, the engine appends its reduced contributions (in
 * deterministic order) to the mapped list instead of touching the
 * leaf's grad tensor. Checkpoint replay uses this to collect the
 * inner pass's parameter gradients race-free, then hands them to the
 * outer engine as ordered addend lists, preserving the exact float
 * sequence the eager engine produced.
 */
using GradCapture =
    std::unordered_map<autograd_detail::VarImpl *,
                       autograd_detail::GradParts>;

/**
 * Single-threaded executor run entirely on the calling thread: the
 * reference all parallel configurations are bit-identical to.
 * @p capture may be null (normal leaf accumulation).
 */
void backwardInline(
    const std::shared_ptr<autograd_detail::VarImpl> &root,
    const Tensor &seed, GradCapture *capture);

} // namespace engine_detail

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_ENGINE_H
