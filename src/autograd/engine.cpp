#include "autograd/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "autograd/tensor_pool.h"
#include "obs/macros.h"
#include "obs/registry.h"
#include "util/logging.h"

namespace adapipe {

namespace {

using autograd_detail::BackwardResult;
using autograd_detail::GradParts;
using autograd_detail::VarImpl;
using engine_detail::GradCapture;

struct NodeState;

/**
 * One unit of backward work. slot == -1 runs the node's whole
 * backwardFn (or nothing, for fn-less nodes) and deposits to every
 * parent; slot >= 0 runs slotBackwardFn for that parent only.
 */
struct Task
{
    NodeState *state = nullptr;
    int slot = -1;
};

/** Where one (consumer, parent-slot) contribution lands. */
struct DepositTarget
{
    NodeState *state = nullptr;
    int index = -1;
};

struct NodeState
{
    VarImpl *node = nullptr;
    /** Node executes backward work (reachable non-leaf, or root). */
    bool interior = false;
    /** Tasks to enqueue once the grad is fully reduced. */
    int numTasks = 0;
    /** Pre-pass accumulator for outstanding (plain; single thread). */
    int pending = 0;
    /**
     * Contribution buffer, one entry per (consumer, parent-slot)
     * pair in deterministic (consumer topo index, slot) order. Each
     * index is written by exactly one task; the last depositor
     * reduces the whole buffer in index order.
     */
    std::vector<GradParts> slots;
    /** Per-parent-slot deposit target (state null for null parent). */
    std::vector<DepositTarget> deposit;
    /** Contributions not yet deposited; last one reduces. */
    std::atomic<int> outstanding{0};
    /**
     * Nodes whose storage this node's tasks read: the node itself
     * (its grad, sometimes its value; never the root) and each
     * distinct interior parent (a backward may read its parents'
     * values).
     */
    std::vector<NodeState *> reads;
    /** Tasks still to read this node; the last one frees it. */
    std::atomic<int> readers{0};
};

struct WorkerQueue
{
    std::mutex mu;
    std::deque<Task> q;
};

/** Per-worker counters, flushed to the worker's registry on exit. */
struct WorkerStats
{
    std::int64_t tasks = 0;
    std::int64_t nodes = 0;
    std::int64_t enqueues = 0;
    std::int64_t steals = 0;
    double busySeconds = 0;
};

/** One backward pass's shared state; lives on the caller's stack. */
struct Job
{
    std::deque<NodeState> states;
    std::unordered_map<VarImpl *, NodeState *> index;
    GradCapture *capture = nullptr;
    /** Meter of the thread that owns the graph; helpers adopt it. */
    autograd_detail::ActivationMeter *meter = nullptr;

    std::deque<WorkerQueue> queues;
    /** Tasks not yet finished (counted in full by the pre-pass). */
    std::atomic<std::int64_t> remaining{0};
    /** Tasks currently sitting in queues. */
    std::atomic<std::int64_t> queued{0};
    /** High-water mark of queued (engine.ready_peak gauge). */
    std::atomic<std::int64_t> readyPeak{0};

    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::exception_ptr error;

    std::mutex waitMu;
    std::condition_variable waitCv;
};

NodeState &
stateFor(Job &job, VarImpl *node)
{
    auto it = job.index.find(node);
    if (it != job.index.end())
        return *it->second;
    job.states.emplace_back();
    NodeState &st = job.states.back();
    st.node = node;
    job.index.emplace(node, &st);
    return st;
}

/**
 * Walk the graph exactly like the historical eager sweep (iterative
 * DFS over non-leaf parents, reversed post-order) and register every
 * contribution slot in that order. Reproducing the old traversal
 * verbatim is what makes the reduction order — and therefore every
 * gradient bit — identical to the original single-threaded engine.
 *
 * Each interior node other than the root also gets a reader count:
 * its own tasks plus every task of each distinct consumer. The root
 * keeps its value and grad for the caller; leaves are never freed.
 */
void
buildJob(Job &job, VarImpl *root)
{
    std::vector<VarImpl *> order;
    std::unordered_set<VarImpl *> visited;
    std::vector<std::pair<VarImpl *, std::size_t>> stack;
    stack.emplace_back(root, 0);
    visited.insert(root);
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child < node->parents.size()) {
            VarImpl *next = node->parents[child].get();
            ++child;
            if (next && !next->isLeaf && !visited.count(next)) {
                visited.insert(next);
                stack.emplace_back(next, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());

    for (VarImpl *node : order) {
        ADAPIPE_ASSERT(!node->consumed,
                       "backward over a consumed graph: an earlier "
                       "backward freed this node's value and gradient; "
                       "build a fresh graph for every backward");
        stateFor(job, node).interior = true;
    }

    std::int64_t total_tasks = 0;
    for (VarImpl *node : order) {
        NodeState &cs = *job.index.at(node);
        cs.deposit.resize(node->parents.size());
        int live_parents = 0;
        for (std::size_t s = 0; s < node->parents.size(); ++s) {
            VarImpl *parent = node->parents[s].get();
            if (!parent)
                continue;
            NodeState &ps = stateFor(job, parent);
            cs.deposit[s] = {&ps, static_cast<int>(ps.slots.size())};
            ps.slots.emplace_back();
            ++ps.pending;
            ++live_parents;
        }
        if (node->slotBackwardFn)
            cs.numTasks = live_parents;
        else if (node->backwardFn)
            cs.numTasks = 1;
        else
            cs.numTasks = live_parents > 0 ? 1 : 0;
        total_tasks += cs.numTasks;

        if (cs.numTasks == 0)
            continue;
        if (node != root)
            cs.reads.push_back(&cs);
        for (const auto &parent : node->parents) {
            if (!parent || parent->isLeaf)
                continue;
            NodeState *ps = job.index.at(parent.get());
            if (std::find(cs.reads.begin(), cs.reads.end(), ps) ==
                cs.reads.end())
                cs.reads.push_back(ps);
        }
        for (NodeState *read : cs.reads)
            read->readers.fetch_add(cs.numTasks,
                                    std::memory_order_relaxed);
    }

    for (NodeState &st : job.states)
        st.outstanding.store(st.pending, std::memory_order_relaxed);
    job.remaining.store(total_tasks, std::memory_order_relaxed);
}

void
pushTasks(Job &job, int me, NodeState &st, WorkerStats &stats)
{
    WorkerQueue &own = job.queues[static_cast<std::size_t>(me)];
    const int pushed = st.numTasks;
    if (pushed == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(own.mu);
        if (st.node->slotBackwardFn) {
            for (std::size_t s = 0; s < st.deposit.size(); ++s) {
                if (st.deposit[s].state)
                    own.q.push_back({&st, static_cast<int>(s)});
            }
        } else {
            own.q.push_back({&st, -1});
        }
    }
    stats.enqueues += pushed;
    const std::int64_t now =
        job.queued.fetch_add(pushed, std::memory_order_relaxed) +
        pushed;
    std::int64_t peak = job.readyPeak.load(std::memory_order_relaxed);
    while (now > peak &&
           !job.readyPeak.compare_exchange_weak(
               peak, now, std::memory_order_relaxed)) {
    }
    // Empty critical section: a worker that evaluated the park
    // predicate before our fetch_add is guaranteed to be inside
    // wait() by the time we notify, so the wakeup cannot be lost.
    { std::lock_guard<std::mutex> lock(job.waitMu); }
    if (pushed == 1)
        job.waitCv.notify_one();
    else
        job.waitCv.notify_all();
}

/**
 * Reduce @p st's fully-deposited contribution buffer in index order
 * and, for interior nodes, release the node's own tasks. Captured
 * leaves divert their addend stream into the capture map unreduced.
 */
void
finishNode(Job &job, int me, NodeState &st, WorkerStats &stats)
{
    VarImpl &node = *st.node;
    ++stats.nodes;

    if (job.capture && node.isLeaf) {
        auto it = job.capture->find(&node);
        if (it != job.capture->end()) {
            for (GradParts &slot : st.slots) {
                for (Tensor &part : slot)
                    it->second.push_back(std::move(part));
            }
            st.slots.clear();
            return;
        }
    }

    autograd_detail::ensureGradBuffer(node);
    for (GradParts &slot : st.slots) {
        for (const Tensor &part : slot)
            node.grad.add_(part);
        slot.clear();
    }
    st.slots.clear();

    if (st.interior)
        pushTasks(job, me, st, stats);
}

void
deposit(Job &job, int me, const DepositTarget &target, GradParts parts,
        WorkerStats &stats)
{
    NodeState &ps = *target.state;
    ps.slots[static_cast<std::size_t>(target.index)] =
        std::move(parts);
    if (ps.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1)
        finishNode(job, me, ps, stats);
}

/**
 * Count one finished reader off @p st. The last reader frees the
 * node's value and grad, re-meters them, drops its backward closure
 * (and every buffer it saved) and marks the node consumed; acq_rel
 * orders every other reader's accesses before the free.
 */
void
releaseRead(NodeState &st)
{
    if (st.readers.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    VarImpl &node = *st.node;
    autograd_detail::meterAdjust(
        -(node.value.numel() + node.grad.numel()));
    node.value = Tensor();
    node.grad = Tensor();
    node.backwardFn = nullptr;
    node.slotBackwardFn = nullptr;
    node.consumed = true;
}

void
runTask(Job &job, int me, const Task &task, WorkerStats &stats)
{
    NodeState &st = *task.state;
    VarImpl &node = *st.node;
    ++stats.tasks;

    if (task.slot >= 0) {
        GradParts parts = node.slotBackwardFn(
            node, task.slot);
        deposit(job, me,
                st.deposit[static_cast<std::size_t>(task.slot)],
                std::move(parts), stats);
    } else {
        BackwardResult result;
        if (node.backwardFn)
            result = node.backwardFn(node);
        for (std::size_t s = 0; s < st.deposit.size(); ++s) {
            if (!st.deposit[s].state)
                continue;
            GradParts parts =
                s < result.size() ? std::move(result[s]) : GradParts{};
            deposit(job, me, st.deposit[s], std::move(parts), stats);
        }
    }
    for (NodeState *read : st.reads)
        releaseRead(*read);
}

bool
popTask(Job &job, int me, Task &out, WorkerStats &stats)
{
    const int workers = static_cast<int>(job.queues.size());
    {
        WorkerQueue &own = job.queues[static_cast<std::size_t>(me)];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.q.empty()) {
            out = own.q.front();
            own.q.pop_front();
            job.queued.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    for (int i = 1; i < workers; ++i) {
        WorkerQueue &victim =
            job.queues[static_cast<std::size_t>((me + i) % workers)];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.q.empty()) {
            out = victim.q.back();
            victim.q.pop_back();
            job.queued.fetch_sub(1, std::memory_order_relaxed);
            ++stats.steals;
            return true;
        }
    }
    return false;
}

void
notifyAllWorkers(Job &job)
{
    { std::lock_guard<std::mutex> lock(job.waitMu); }
    job.waitCv.notify_all();
}

void
recordFailure(Job &job)
{
    {
        std::lock_guard<std::mutex> lock(job.errMu);
        if (!job.error)
            job.error = std::current_exception();
    }
    job.failed.store(true, std::memory_order_release);
    notifyAllWorkers(job);
}

/** Flush a worker's local counters to its installed registry. */
void
flushStats(int me, const WorkerStats &stats)
{
    if (!obs::current())
        return;
    ADAPIPE_OBS_COUNT("engine.tasks", stats.tasks);
    ADAPIPE_OBS_COUNT("engine.nodes", stats.nodes);
    ADAPIPE_OBS_COUNT("engine.enqueues", stats.enqueues);
    ADAPIPE_OBS_COUNT("engine.steals", stats.steals);
    ADAPIPE_OBS_GAUGE("engine.thread." + std::to_string(me) +
                          ".busy_seconds",
                      stats.busySeconds);
}

void
workerLoop(Job &job, int me)
{
    WorkerStats stats;
    for (;;) {
        if (job.failed.load(std::memory_order_acquire))
            break;
        Task task;
        if (popTask(job, me, task, stats)) {
            const auto t0 = std::chrono::steady_clock::now();
            try {
                runTask(job, me, task, stats);
            } catch (...) {
                recordFailure(job);
            }
            stats.busySeconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (job.remaining.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                notifyAllWorkers(job);
                break;
            }
            continue;
        }
        if (job.remaining.load(std::memory_order_acquire) == 0)
            break;
        if (job.queues.size() == 1) {
            // Single worker, empty queue, work outstanding: the
            // dependency graph broke an invariant. Fail loudly
            // instead of parking forever.
            ADAPIPE_ASSERT(false,
                           "backward engine stalled with ",
                           job.remaining.load(), " tasks remaining");
        }
        std::unique_lock<std::mutex> lock(job.waitMu);
        job.waitCv.wait(lock, [&job] {
            return job.queued.load(std::memory_order_relaxed) > 0 ||
                   job.remaining.load(std::memory_order_relaxed) ==
                       0 ||
                   job.failed.load(std::memory_order_relaxed);
        });
    }
    flushStats(me, stats);
}

/**
 * Seed the root (buffer + seed add, like the eager engine's
 * epilogue) and enqueue its tasks onto queue 0.
 */
void
seedRoot(Job &job, VarImpl *root, const Tensor &seed)
{
    if (job.capture && root->isLeaf) {
        // Degenerate captured graph (e.g. an identity checkpoint
        // segment): the seed IS the leaf's contribution.
        auto it = job.capture->find(root);
        if (it != job.capture->end()) {
            it->second.push_back(seed);
            return;
        }
    }
    autograd_detail::ensureGradBuffer(*root);
    root->grad.add_(seed);
    NodeState &rs = *job.index.at(root);
    WorkerStats seed_stats;
    if (rs.numTasks > 0)
        pushTasks(job, 0, rs, seed_stats);
    ADAPIPE_OBS_COUNT("engine.enqueues", seed_stats.enqueues);
}

void
rethrowJobError(Job &job)
{
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace

namespace engine_detail {

void
backwardInline(const std::shared_ptr<autograd_detail::VarImpl> &root,
               const Tensor &seed, GradCapture *capture)
{
    ADAPIPE_ASSERT(root, "backward on undefined variable");
    ADAPIPE_ASSERT(seed.sameShape(root->value),
                   "backward seed shape mismatch");
    Job job;
    job.capture = capture;
    job.queues.emplace_back();
    buildJob(job, root.get());
    ADAPIPE_OBS_COUNT("engine.runs", 1);
    seedRoot(job, root.get(), seed);
    workerLoop(job, 0);
    ADAPIPE_OBS_GAUGE("engine.ready_peak",
                      job.readyPeak.load(std::memory_order_relaxed));
    rethrowJobError(job);
}

} // namespace engine_detail

struct BackwardEngine::Shared
{
    std::mutex mu;
    std::condition_variable cv;
    std::condition_variable doneCv;
    Job *job = nullptr;
    std::uint64_t seq = 0;
    int active = 0;
    bool shutdown = false;
    std::vector<std::thread> helpers;
    /** One scratch registry per helper; merged after quiescence. */
    std::deque<obs::Registry> registries;
};

BackwardEngine::BackwardEngine(EngineOptions opts)
    : threads_(std::max(1, opts.threads)),
      shared_(std::make_unique<Shared>())
{
    Shared &sh = *shared_;
    for (int i = 1; i < threads_; ++i) {
        sh.registries.emplace_back();
        obs::Registry *scratch = &sh.registries.back();
        sh.helpers.emplace_back([this, i, scratch] {
            Shared &s = *shared_;
            std::uint64_t last_seen = 0;
            for (;;) {
                Job *job = nullptr;
                {
                    std::unique_lock<std::mutex> lock(s.mu);
                    s.cv.wait(lock, [&] {
                        return s.shutdown ||
                               (s.job && s.seq != last_seen);
                    });
                    if (s.shutdown)
                        break;
                    job = s.job;
                    last_seen = s.seq;
                    ++s.active;
                }
                {
                    obs::ScopedRegistry scope(scratch);
                    autograd_detail::AdoptMeter adopt(*job->meter);
                    workerLoop(*job, i);
                }
                {
                    std::lock_guard<std::mutex> lock(s.mu);
                    if (--s.active == 0)
                        s.doneCv.notify_all();
                }
            }
            // Return this worker's cached buffers to the global
            // freelist so engine teardown never strands pool memory.
            TensorPool::instance().drainThreadCache();
        });
    }
}

BackwardEngine::~BackwardEngine()
{
    Shared &sh = *shared_;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.shutdown = true;
    }
    sh.cv.notify_all();
    for (std::thread &t : sh.helpers)
        t.join();
}

void
BackwardEngine::run(const Variable &root, const Tensor &seed)
{
    ADAPIPE_ASSERT(root.defined(), "backward on undefined variable");
    if (threads_ == 1) {
        engine_detail::backwardInline(root.impl(), seed, nullptr);
        return;
    }

    Shared &sh = *shared_;
    Job job;
    job.meter = &autograd_detail::currentMeter();
    for (int i = 0; i < threads_; ++i)
        job.queues.emplace_back();
    buildJob(job, root.impl().get());
    ADAPIPE_OBS_COUNT("engine.runs", 1);
    for (obs::Registry &reg : sh.registries)
        reg.clear();
    seedRoot(job, root.impl().get(), seed);

    {
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.job = &job;
        ++sh.seq;
    }
    sh.cv.notify_all();

    workerLoop(job, 0);

    {
        std::unique_lock<std::mutex> lock(sh.mu);
        sh.job = nullptr;
        sh.doneCv.wait(lock, [&sh] { return sh.active == 0; });
    }

    if (obs::Registry *current = obs::current()) {
        for (const obs::Registry &reg : sh.registries)
            current->merge(reg);
    }
    ADAPIPE_OBS_GAUGE("engine.ready_peak",
                      job.readyPeak.load(std::memory_order_relaxed));
    rethrowJobError(job);
}

} // namespace adapipe
