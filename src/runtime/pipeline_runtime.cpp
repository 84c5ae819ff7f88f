#include "runtime/pipeline_runtime.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <chrono>
#include <condition_variable>
#include <optional>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/optim.h"
#include "autograd/trainer.h"
#include "obs/macros.h"
#include "runtime/channel.h"
#include "runtime/host_stager.h"
#include "sim/schedule.h"
#include "util/logging.h"

namespace adapipe {

namespace {

/** Channel-wait tick under the watchdog: a blocked worker re-arms
 *  its wait this often and beats in between, so waiting on a slow
 *  but alive neighbour never looks like a stall. */
constexpr auto kHeartbeatTick = std::chrono::milliseconds(2);

/**
 * Snapshot barrier + capturer. Every worker arrives after its
 * optimizer step on a due iteration; channels are empty at that
 * point (the step's in-flight micro-batches all drained), so the
 * barrier cannot deadlock against channel backpressure. The last
 * arriver captures the training state under the barrier mutex —
 * every peer is parked, and its arrival gave the capture
 * happens-before over the peer's parameter writes — then writes the
 * file *outside* the lock while the others resume training. Parked
 * waiters wake on a short tick to beat the watchdog, and abort()
 * (called from RunState::fail) converts them to the standard
 * ChannelClosedError unwind so a failure elsewhere never strands the
 * barrier.
 */
class SnapshotCoordinator
{
  public:
    SnapshotCoordinator(TinyLM &model, const RuntimeOptions &opts,
                        int num_workers)
        : model_(model), opts_(opts), numWorkers_(num_workers),
          adams_(static_cast<std::size_t>(num_workers), nullptr)
    {
    }

    /** @return whether global step @p gstep ends with a snapshot. */
    bool
    due(int gstep) const
    {
        return opts_.snapshot.every > 0 &&
               (gstep + 1) % opts_.snapshot.every == 0;
    }

    /** Publish @p worker's Adam (may be null) for moment capture. */
    void
    registerAdam(int worker, const Adam *adam)
    {
        std::lock_guard<std::mutex> lock(mu_);
        adams_[static_cast<std::size_t>(worker)] = adam;
    }

    /**
     * Barrier after the optimizer step of global step @p gstep.
     * @throws std::runtime_error when the snapshot write fails
     * @throws ChannelClosedError after abort()
     */
    void
    arrive(int worker, int gstep, Watchdog *watchdog)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (aborted_)
            throw ChannelClosedError{};
        const std::int64_t gen = generation_;
        if (++arrived_ == numWorkers_) {
            // The snapshot records *completed* steps: gstep + 1.
            TrainingSnapshot snap = captureTrainingSnapshot(
                model_, adams_, gstep + 1, opts_.dataSeed);
            arrived_ = 0;
            ++generation_;
            lock.unlock();
            cv_.notify_all();
            const ParseStatus wrote =
                writeSnapshotFile(opts_.snapshot.path, snap);
            if (watchdog)
                watchdog->beat(worker);
            if (!wrote.ok()) {
                throw std::runtime_error("snapshot write failed: " +
                                         wrote.error());
            }
            ADAPIPE_OBS_COUNT("snapshot.writes", 1);
            return;
        }
        while (generation_ == gen && !aborted_) {
            cv_.wait_for(lock, kHeartbeatTick);
            if (watchdog)
                watchdog->beat(worker);
        }
        if (generation_ == gen)
            throw ChannelClosedError{};
    }

    /** Release parked waiters into the shutdown unwind. */
    void
    abort()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            aborted_ = true;
        }
        cv_.notify_all();
    }

  private:
    TinyLM &model_;
    const RuntimeOptions &opts_;
    int numWorkers_;
    std::vector<const Adam *> adams_;

    std::mutex mu_;
    std::condition_variable cv_;
    int arrived_ = 0;
    std::int64_t generation_ = 0;
    bool aborted_ = false;
};

/**
 * Replays registered by one forward op that its backward has not yet
 * consumed: the overlap executor's unit of work. Handles are warmed
 * in creation order (block order within the micro-batch); entries
 * are keyed by the backward op's rank in the worker's device order,
 * so the nearest backward warms first.
 */
struct PendingReplays
{
    /** Local chunk index (metrics attribution). */
    int local = 0;
    /** Chain position / micro-batch (firing-log coordinates). */
    int pos = 0;
    int microBatch = 0;
    /** Next handle to warm. */
    std::size_t next = 0;
    std::vector<CheckpointHandle> handles;
};

/** Activation state of one in-flight micro-batch on one chunk. */
struct Inflight
{
    /** Boundary leaf the chunk's segment starts from (pos > 0). */
    Variable input;
    /** Chunk output kept until backward: the boundary activation,
     *  or the loss on the head chunk. This retention IS the
     *  schedule's in-flight activation memory. */
    Variable output;
};

/** One model chunk hosted by a worker: its spec, channels, stats. */
struct ChunkCtx
{
    const StageSpec *spec = nullptr;
    /** Chain position g = chunk * workers + workerIdx. */
    int pos = 0;
    BoundedChannel<Tensor> *fwdIn = nullptr;
    BoundedChannel<Tensor> *fwdOut = nullptr;
    BoundedChannel<Tensor> *bwdIn = nullptr;
    BoundedChannel<Tensor> *bwdOut = nullptr;
    StageMetrics metrics;
};

/**
 * One device's worker: owns its optimizer (over every hosted chunk's
 * parameters), its obs registry and its in-flight table; runs the
 * device's fixed op order, dispatching each op to the chunk its
 * chain position names.
 */
class StageWorker
{
  public:
    StageWorker(TinyLM &model, int worker_idx, int num_workers,
                const Schedule &sched, const RuntimeOptions &opts,
                FaultInjector *injector, Watchdog *watchdog,
                SnapshotCoordinator *snapshots)
        : model_(model), workerIdx_(worker_idx),
          numWorkers_(num_workers), sched_(sched), opts_(opts),
          injector_(injector), watchdog_(watchdog),
          snapshots_(snapshots)
    {
    }

    void
    addChunk(ChunkCtx ctx)
    {
        ctx.metrics.chainPos = ctx.pos;
        ctx.metrics.firstBlock = ctx.spec->firstBlock;
        ctx.metrics.lastBlock = ctx.spec->lastBlock;
        ctx.metrics.embedding = ctx.spec->embedding;
        ctx.metrics.head = ctx.spec->head;
        if (ctx.spec->head)
            hasHead_ = true;
        chunks_.push_back(std::move(ctx));
    }

    void run();

    /** Attach the heartbeat monitor (before run(); may stay null). */
    void setWatchdog(Watchdog *watchdog) { watchdog_ = watchdog; }

    int workerIdx() const { return workerIdx_; }

    const StageMetrics &
    metrics(int local_chunk) const
    {
        return chunks_[static_cast<std::size_t>(local_chunk)].metrics;
    }

    const std::vector<double> &losses() const { return losses_; }
    const obs::Registry &registry() const { return registry_; }

  private:
    ChunkCtx &
    chunkOf(const PipeOp &op)
    {
        return chunks_[static_cast<std::size_t>(op.pos / numWorkers_)];
    }

    std::vector<Variable> ownParams() const;
    void runForward(int step, const PipeOp &op);
    void runBackward(int step, const PipeOp &op);
    template <typename Attempt, typename Block>
    double waitLoop(Attempt attempt, Block block);
    double recvFrom(BoundedChannel<Tensor> *ch, Tensor &out);
    double sendTo(BoundedChannel<Tensor> *ch, Tensor value);
    double warmOnePending();
    double drainAllPending();
    void recordSpan(const char *name, double start_us);
    void flushGauges();

    TinyLM &model_;
    int workerIdx_;
    int numWorkers_;
    const Schedule &sched_;
    const RuntimeOptions &opts_;
    FaultInjector *injector_;
    Watchdog *watchdog_;
    SnapshotCoordinator *snapshots_;
    std::vector<ChunkCtx> chunks_;
    bool hasHead_ = false;

    /** Keyed by (local chunk, micro-batch). */
    std::map<std::pair<int, int>, Inflight> inflight_;
    /** Overlap executor state: pending replays keyed by the rank of
     *  their backward op in this worker's device order, so
     *  pending_.begin() is always the next backward's work. */
    std::map<std::size_t, PendingReplays> pending_;
    /** (pos, microBatch) -> backward-op rank in the device order. */
    std::map<std::pair<int, int>, std::size_t> bwdRank_;
    /** Warm firing log (encoded; see StageMetrics::overlapFirings). */
    std::vector<std::int64_t> firings_;
    std::vector<int> tokens_;
    std::vector<int> targets_;
    /** The worker's activation meter: run() adopts it, the engine
     *  helpers and the host stager charge it. Declared before both so
     *  it outlives them, also when run() unwinds with the stager's
     *  transfer thread still running. */
    autograd_detail::ActivationMeter meter_;
    /** Per-stage backward engine (opts.intraStageThreads workers);
     *  created on the worker thread so helpers are its children. */
    std::unique_ptr<BackwardEngine> engine_;
    /** Host-staging tier; created only when a hosted chunk offloads
     *  at least one block. */
    std::unique_ptr<HostStager> stager_;
    double lossSum_ = 0;
    /** Ops completed within the current step (the fault injector's
     *  crash coordinate). */
    std::int64_t opsThisStep_ = 0;
    std::vector<double> losses_;
    obs::Registry registry_;
};

std::vector<Variable>
StageWorker::ownParams() const
{
    std::vector<Variable> params;
    for (const ChunkCtx &ctx : chunks_) {
        const StageSpec &spec = *ctx.spec;
        if (spec.embedding) {
            const auto e = model_.embedParams();
            params.insert(params.end(), e.begin(), e.end());
        }
        for (int b = spec.firstBlock; b <= spec.lastBlock; ++b) {
            const auto bp = model_.blockParams(b);
            params.insert(params.end(), bp.begin(), bp.end());
        }
        if (spec.head) {
            const auto h = model_.headParams();
            params.insert(params.end(), h.begin(), h.end());
        }
    }
    return params;
}

/**
 * Warm the next pending replay: the lowest-backward-rank entry's
 * next unwarmed handle (nearest backward first, block order within a
 * micro-batch). Exhausted entries are dropped on the way.
 *
 * @return microseconds spent warming (0 when nothing was pending);
 *         metrics are attributed to the owning chunk.
 */
double
StageWorker::warmOnePending()
{
    while (!pending_.empty()) {
        auto it = pending_.begin();
        PendingReplays &entry = it->second;
        while (entry.next < entry.handles.size()) {
            const std::size_t unit = entry.next++;
            const double t0 = obs::nowUs();
            if (!entry.handles[unit].warm())
                continue; // already fired (lazy backward got there)
            const double us = obs::nowUs() - t0;
            StageMetrics &m =
                chunks_[static_cast<std::size_t>(entry.local)]
                    .metrics;
            m.replayHiddenSeconds += us * 1e-6;
            m.replaySeconds += us * 1e-6;
            ++m.replayHiddenOps;
            ++m.replayOps;
            registry_.add("runtime.overlap.warms", 1);
            firings_.push_back(
                static_cast<std::int64_t>(entry.pos) * 1000000 +
                static_cast<std::int64_t>(entry.microBatch) * 1000 +
                static_cast<std::int64_t>(unit));
            return us;
        }
        pending_.erase(it);
    }
    return 0;
}

/** Test hook (overlapDrainAll): warm everything pending right now,
 *  making the firing log a pure function of the schedule. */
double
StageWorker::drainAllPending()
{
    double us = 0;
    for (;;) {
        const double step = warmOnePending();
        if (step == 0 && pending_.empty())
            return us;
        us += step;
        if (watchdog_)
            watchdog_->beat(workerIdx_);
    }
}

/**
 * Channel wait that beats the heartbeat and/or warms pending
 * checkpoint replays while blocked. @p attempt makes one timed try
 * at the transfer (a zero tick polls) and returns its status;
 * @p block is the plain blocking transfer, used once there is no
 * watchdog to beat and nothing left to warm.
 *
 * Wait accounting: the loop reports its wall clock minus the time
 * spent warming (which is compute, not waiting), so the reported
 * wait matches the plain blocking path no matter how many 2ms beat
 * iterations the wait spanned — the heartbeat overhead between
 * re-armed waits stays inside the measurement instead of leaking out
 * of it.
 *
 * @return microseconds blocked, warm time excluded
 */
template <typename Attempt, typename Block>
double
StageWorker::waitLoop(Attempt attempt, Block block)
{
    const bool overlap = opts_.overlapReplay;
    const double wait_start = obs::nowUs();
    double warm_us = 0;
    if (overlap && opts_.overlapDrainAll)
        warm_us += drainAllPending();
    for (;;) {
        const bool have_pending = overlap && !pending_.empty();
        if (!watchdog_ && !have_pending) {
            block();
            break;
        }
        // With work to warm, poll instead of parking: an empty
        // channel immediately yields the bubble to a warm.
        const auto tick = have_pending
                              ? std::chrono::microseconds(0)
                              : std::chrono::microseconds(
                                    kHeartbeatTick);
        const ChannelStatus status = attempt(tick);
        if (status == ChannelStatus::Ok)
            break;
        if (status == ChannelStatus::Closed)
            throw ChannelClosedError{};
        if (watchdog_)
            watchdog_->beat(workerIdx_);
        if (have_pending)
            warm_us += warmOnePending();
    }
    return std::max(0.0, obs::nowUs() - wait_start - warm_us);
}

/**
 * Receive into @p out. Without a watchdog and with overlap off this
 * is the plain blocking recv (no extra branches inside the wait).
 *
 * @return microseconds blocked (see waitLoop())
 */
double
StageWorker::recvFrom(BoundedChannel<Tensor> *ch, Tensor &out)
{
    double waited_us = 0;
    if (!watchdog_ && !opts_.overlapReplay) {
        out = ch->recv(&waited_us);
        return waited_us;
    }
    return waitLoop(
        [&](std::chrono::microseconds tick) {
            return ch->tryRecvFor(out, tick, nullptr);
        },
        [&] { out = ch->recv(nullptr); });
}

/** Send counterpart of recvFrom(). */
double
StageWorker::sendTo(BoundedChannel<Tensor> *ch, Tensor value)
{
    if (!watchdog_ && !opts_.overlapReplay)
        return ch->send(std::move(value));
    return waitLoop(
        [&](std::chrono::microseconds tick) {
            return ch->trySendFor(value, tick, nullptr);
        },
        [&] { ch->send(std::move(value)); });
}

void
StageWorker::recordSpan(const char *name, double start_us)
{
    obs::SpanRecord span;
    span.name = name;
    span.startUs = start_us;
    span.durUs = obs::nowUs() - start_us;
    span.depth = 0;
    span.thread = obs::threadId();
    registry_.record(std::move(span));
}

void
StageWorker::runForward(int step, const PipeOp &op)
{
    ChunkCtx &ctx = chunkOf(op);
    const StageSpec &spec = *ctx.spec;
    const int local = op.pos / numWorkers_;
    const int n = opts_.microBatches;
    Variable h;
    if (ctx.fwdIn) {
        Tensor in;
        ctx.metrics.recvWaitSeconds += recvFrom(ctx.fwdIn, in) * 1e-6;
        registry_.add("runtime.recvs", 1);
        Variable leaf(std::move(in), /*requires_grad=*/true);
        inflight_[{local, op.microBatch}].input = leaf;
        h = leaf;
    }

    const double start_us = obs::nowUs();
    // Scoop up the handles the blocks' checkpoints register, keyed by
    // the backward's rank: resident (offloaded) segments go to the
    // host stager as soon as their block's forward ends, so the next
    // block runs without them on device; recompute segments go to the
    // overlap executor once the whole forward ran.
    std::optional<CheckpointCollector> collector;
    std::size_t bwd_rank = 0;
    if (opts_.overlapReplay || stager_) {
        collector.emplace();
        const auto rank = bwdRank_.find({op.pos, op.microBatch});
        ADAPIPE_ASSERT(rank != bwdRank_.end(),
                       "no backward op for position ", op.pos,
                       " micro-batch ", op.microBatch,
                       " in the device order");
        bwd_rank = rank->second;
    }
    PendingReplays entry;
    if (spec.embedding) {
        makeBigramBatch(model_.config().vocab, opts_.seqLen,
                        step * n + op.microBatch, opts_.dataSeed,
                        tokens_, targets_);
        h = model_.embed(tokens_);
    }
    for (int b = spec.firstBlock; b <= spec.lastBlock; ++b) {
        const std::size_t bi =
            static_cast<std::size_t>(b - spec.firstBlock);
        if (spec.offload[bi])
            h = model_.blockForwardOffload(b, h);
        else
            h = model_.blockForward(b, h, spec.recompute[bi]);
        if (!collector)
            continue;
        std::vector<CheckpointHandle> offloaded;
        for (CheckpointHandle &handle : collector->take()) {
            (handle.offloadable() ? offloaded : entry.handles)
                .push_back(std::move(handle));
        }
        if (!offloaded.empty())
            stager_->submitEvict(bwd_rank, std::move(offloaded));
    }
    collector.reset();
    if (opts_.overlapReplay && !entry.handles.empty()) {
        entry.local = local;
        entry.pos = op.pos;
        entry.microBatch = op.microBatch;
        pending_.emplace(bwd_rank, std::move(entry));
    }
    Inflight &fl = inflight_[{local, op.microBatch}];
    if (spec.head) {
        makeBigramBatch(model_.config().vocab, opts_.seqLen,
                        step * n + op.microBatch, opts_.dataSeed,
                        tokens_, targets_);
        Variable loss = model_.headLoss(h, targets_);
        lossSum_ += loss.value()[0];
        fl.output = loss;
    } else {
        fl.output = h;
    }
    ctx.metrics.fwdSeconds += (obs::nowUs() - start_us) * 1e-6;
    ++ctx.metrics.fwdOps;
    recordSpan("runtime.forward", start_us);
    registry_.add("runtime.fwd_ops", 1);

    if (ctx.fwdOut) {
        if (injector_) {
            injector_->beforeSend(workerIdx_, op.pos, step,
                                  op.microBatch, /*forward=*/true);
        }
        const double blocked_us =
            sendTo(ctx.fwdOut, fl.output.value());
        ctx.metrics.sendBlockedSeconds += blocked_us * 1e-6;
        registry_.add("runtime.sends", 1);
        if (blocked_us > 0)
            registry_.add("runtime.send_blocked", 1);
    }
}

void
StageWorker::runBackward(int step, const PipeOp &op)
{
    ChunkCtx &ctx = chunkOf(op);
    const int local = op.pos / numWorkers_;
    const auto it = inflight_.find({local, op.microBatch});
    ADAPIPE_ASSERT(it != inflight_.end(), "backward of micro-batch ",
                   op.microBatch, " at position ", op.pos,
                   " before its forward");
    Inflight fl = std::move(it->second);

    Tensor seed;
    if (ctx.spec->head) {
        // Seed with 1/n: gradients average over the iteration's
        // micro-batches, matching the single-threaded reference.
        seed = Tensor::full(
            fl.output.value().shape(),
            1.0f / static_cast<float>(opts_.microBatches));
    } else {
        ctx.metrics.recvWaitSeconds += recvFrom(ctx.bwdIn, seed) * 1e-6;
        registry_.add("runtime.recvs", 1);
    }

    // This micro-batch's replays are about to fire (lazily, inside
    // the engine) if they have not been warmed; stop offering them
    // to the overlap executor.
    if (opts_.overlapReplay) {
        const auto rank = bwdRank_.find({op.pos, op.microBatch});
        if (rank != bwdRank_.end())
            pending_.erase(rank->second);
    }

    // Counter deltas around the engine run meter the lazy replays
    // exactly per chunk, even with intraStageThreads > 1: helper
    // threads merge their scratch registries into this worker's
    // before run() returns. Warm replays fire outside this window
    // and are accounted directly in warmOnePending().
    const double start_us = obs::nowUs();
    const std::int64_t replays_before =
        registry_.counter("checkpoint.replays");
    const std::int64_t replay_us_before =
        registry_.counter("checkpoint.replay_us");
    const std::int64_t miss_before =
        stager_ ? registry_.counter("offload.fetch_miss") : 0;
    engine_->run(fl.output, seed);
    Tensor input_grad;
    if (ctx.fwdIn)
        input_grad = fl.input.grad();
    // Drop the micro-batch's graph: this is the moment the schedule
    // releases the chunk's in-flight activation memory.
    inflight_.erase(it);
    fl = Inflight{};
    ctx.metrics.bwdSeconds += (obs::nowUs() - start_us) * 1e-6;
    ++ctx.metrics.bwdOps;
    ctx.metrics.replayOps +=
        registry_.counter("checkpoint.replays") - replays_before;
    ctx.metrics.replaySeconds +=
        static_cast<double>(
            registry_.counter("checkpoint.replay_us") -
            replay_us_before) *
        1e-6;
    if (stager_) {
        // The closure's fetch-miss count lands in this registry via
        // the engine's merge-on-return, exactly like the replay
        // counters above.
        ctx.metrics.offloadFetchMisses +=
            registry_.counter("offload.fetch_miss") - miss_before;
        const auto rank = bwdRank_.find({op.pos, op.microBatch});
        if (rank != bwdRank_.end())
            stager_->release(rank->second);
    }
    recordSpan("runtime.backward", start_us);
    registry_.add("runtime.bwd_ops", 1);

    if (ctx.bwdOut) {
        if (injector_) {
            injector_->beforeSend(workerIdx_, op.pos, step,
                                  op.microBatch, /*forward=*/false);
        }
        const double blocked_us =
            sendTo(ctx.bwdOut, std::move(input_grad));
        ctx.metrics.sendBlockedSeconds += blocked_us * 1e-6;
        registry_.add("runtime.sends", 1);
        if (blocked_us > 0)
            registry_.add("runtime.send_blocked", 1);
    }
}

void
StageWorker::flushGauges()
{
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
        std::string prefix =
            "runtime.stage." + std::to_string(workerIdx_) + ".";
        if (chunks_.size() > 1)
            prefix += "chunk." + std::to_string(c) + ".";
        for (const StageField &f : stageFields())
            registry_.set(prefix + f.suffix, f.value(chunks_[c].metrics));
    }
}

void
StageWorker::run()
{
    // Per-worker registry, merged by the parent after join: the obs
    // discipline that keeps counters deterministic and TSan happy.
    // Engine-level instrumentation (checkpoint replays) lands here
    // too via the thread-local obs::current() pointer.
    obs::ScopedRegistry scope(&registry_);
    autograd_detail::AdoptMeter adopt(meter_);
    resetThreadActivationMeter();
    const std::int64_t act_base = threadLiveActivationFloats();

    // The engine (and its persistent helper threads) lives for the
    // whole run, so per-backward thread churn never happens; its
    // deterministic reduction keeps every gradient bit-identical to
    // intraStageThreads == 1.
    engine_ = std::make_unique<BackwardEngine>(
        EngineOptions{opts_.intraStageThreads});

    const std::vector<Variable> params = ownParams();
    std::unique_ptr<Adam> adam;
    if (!params.empty())
        adam = std::make_unique<Adam>(params, opts_.lr);
    if (opts_.restore && adam) {
        // Parameters were restored before launch; the moments and
        // the bias-correction counter are per-worker state.
        const ParseStatus restored =
            restoreAdamState(*adam, model_, *opts_.restore);
        if (!restored.ok())
            throw std::runtime_error(restored.error());
    }
    if (snapshots_)
        snapshots_->registerAdam(workerIdx_, adam.get());

    bool offload_active = false;
    for (const ChunkCtx &ctx : chunks_) {
        for (const bool off : ctx.spec->offload)
            offload_active = offload_active || off;
    }
    if (offload_active) {
        HostStager::Options so;
        so.sync = opts_.offloadSync;
        so.forceMiss = opts_.offloadForceMiss;
        stager_ = std::make_unique<HostStager>(so, meter_);
    }

    const std::vector<std::size_t> &order =
        sched_.deviceOrder[static_cast<std::size_t>(workerIdx_)];
    if (opts_.overlapReplay || stager_) {
        // Rank each backward op within this worker's device order:
        // the overlap executor warms pending replays in ascending
        // rank (the next backward this worker will run first), and
        // the host stager keys parked offload segments the same way.
        for (std::size_t k = 0; k < order.size(); ++k) {
            const PipeOp &op = sched_.ops[order[k]];
            if (op.kind == OpKind::Backward)
                bwdRank_[{op.pos, op.microBatch}] = k;
        }
    }
    for (int step = 0; step < opts_.steps; ++step) {
        const int gstep = opts_.firstStep + step;
        if (adam)
            adam->zeroGrad();
        lossSum_ = 0;
        opsThisStep_ = 0;

        for (std::size_t k = 0; k < order.size(); ++k) {
            const PipeOp &op = sched_.ops[order[k]];
            const bool forward = op.kind == OpKind::Forward;
            // Fetch staged activations just in time: a forward
            // queues the fetch for the backward right after it, a
            // backward fetches whatever of its own is not back yet.
            if (stager_)
                stager_->advance(k, forward);
            if (injector_) {
                injector_->beforeOp(workerIdx_, op.pos, gstep,
                                    op.microBatch, forward,
                                    opsThisStep_);
            }
            const double op_start = injector_ ? obs::nowUs() : 0;
            if (forward)
                runForward(gstep, op);
            else
                runBackward(gstep, op);
            if (injector_) {
                injector_->afterOp(workerIdx_, op.pos, gstep,
                                   op.microBatch, forward,
                                   obs::nowUs() - op_start);
            }
            ++opsThisStep_;
            if (watchdog_)
                watchdog_->beat(workerIdx_);
        }
        ADAPIPE_ASSERT(inflight_.empty(),
                       "in-flight micro-batches left after step");
        ADAPIPE_ASSERT(pending_.empty(),
                       "pending replays left after step");
        // Let queued transfers finish before the optimizer step so
        // byte counters stay attributable to the step that caused
        // them (every graph was consumed above either way).
        if (stager_)
            stager_->drain();

        if (hasHead_)
            losses_.push_back(lossSum_ / opts_.microBatches);
        if (adam)
            adam->step();
        if (snapshots_ && snapshots_->due(gstep))
            snapshots_->arrive(workerIdx_, gstep, watchdog_);
    }
    if (watchdog_)
        watchdog_->markDone(workerIdx_);

    // Stop the stager before tearing the engine down; its totals
    // land on the first chunk (worker-level, like the activation
    // peak) and on the registry's offload.* counters.
    if (stager_) {
        stager_->stop();
        StageMetrics &m0 = chunks_.front().metrics;
        m0.offloadEvictions = stager_->evictions();
        m0.offloadFetches = stager_->fetches();
        m0.offloadBytesEvicted = stager_->bytesEvicted();
        m0.offloadBytesFetched = stager_->bytesFetched();
        registry_.add("offload.evictions", stager_->evictions());
        registry_.add("offload.fetches", stager_->fetches());
        registry_.add("offload.bytes_evicted",
                      static_cast<std::int64_t>(
                          stager_->bytesEvicted()));
        registry_.add("offload.bytes_fetched",
                      static_cast<std::int64_t>(
                          stager_->bytesFetched()));
        stager_.reset();
    }

    // Thread-level measurements land on the worker's first chunk
    // (the only chunk when virtualStages == 1); replay counts and
    // times are attributed exactly per chunk in runBackward /
    // warmOnePending.
    // Tear the engine down on this thread: helpers drain their
    // tensor-pool caches and exit before the worker joins.
    engine_.reset();

    chunks_.front().metrics.peakActivationFloats =
        threadPeakActivationFloats() - act_base;
    chunks_.front().metrics.overlapFirings = std::move(firings_);
    flushGauges();
}

/**
 * Tracks the first worker failure and force-closes every channel so
 * blocked peers unwind instead of waiting on a dead producer or
 * consumer forever. fail() also cancels every pending injected sleep
 * (a stalled or hung injector sleep would otherwise outlive the
 * shutdown) and releases any workers parked at the snapshot barrier.
 */
class RunState
{
  public:
    RunState(std::vector<BoundedChannel<Tensor> *> channels,
             FaultInjector *injector,
             SnapshotCoordinator *snapshots)
        : channels_(std::move(channels)), injector_(injector),
          snapshots_(snapshots)
    {
    }

    void
    fail(int worker, RuntimeFailureKind kind,
         const std::string &message, double detect_us = 0)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!failed_) {
                failed_ = true;
                error_ = message;
                failedWorker_ = worker;
                kind_ = kind;
                detectUs_ = detect_us;
            }
        }
        if (injector_)
            injector_->cancelSleeps();
        if (snapshots_)
            snapshots_->abort();
        for (BoundedChannel<Tensor> *ch : channels_)
            ch->close();
    }

    bool
    failed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return failed_;
    }

    std::string
    error() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return error_;
    }

    int
    failedWorker() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return failedWorker_;
    }

    RuntimeFailureKind
    kind() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return kind_;
    }

    double
    detectUs() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return detectUs_;
    }

  private:
    mutable std::mutex mu_;
    bool failed_ = false;
    std::string error_;
    int failedWorker_ = -1;
    RuntimeFailureKind kind_ = RuntimeFailureKind::None;
    double detectUs_ = 0;
    std::vector<BoundedChannel<Tensor> *> channels_;
    FaultInjector *injector_;
    SnapshotCoordinator *snapshots_;
};

/** Validate the chain-order partition; panics on caller error. */
void
validateSpecs(const TinyLM &model, const std::vector<StageSpec> &specs)
{
    ADAPIPE_ASSERT(!specs.empty(), "need at least one stage");
    const int num_blocks = model.config().blocks;
    int next_block = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const StageSpec &spec = specs[s];
        ADAPIPE_ASSERT(spec.embedding == (s == 0),
                       "embedding must live on chain position 0 "
                       "(position ", s, ")");
        ADAPIPE_ASSERT(spec.head == (s + 1 == specs.size()),
                       "head must live on the last chain position "
                       "(position ", s, ")");
        if (spec.numBlocks() == 0)
            continue;
        ADAPIPE_ASSERT(spec.firstBlock == next_block,
                       "position ", s, " starts at block ",
                       spec.firstBlock, ", expected ", next_block);
        ADAPIPE_ASSERT(spec.lastBlock < num_blocks,
                       "position ", s, " ends past block ",
                       num_blocks - 1);
        ADAPIPE_ASSERT(spec.recompute.empty() ||
                           static_cast<int>(spec.recompute.size()) ==
                               spec.numBlocks(),
                       "position ", s,
                       " recompute size does not match its blocks");
        ADAPIPE_ASSERT(spec.offload.empty() ||
                           static_cast<int>(spec.offload.size()) ==
                               spec.numBlocks(),
                       "position ", s,
                       " offload size does not match its blocks");
        next_block = spec.lastBlock + 1;
    }
    ADAPIPE_ASSERT(next_block == num_blocks,
                   "stages cover blocks [0, ", next_block,
                   "), model has ", num_blocks);
}

} // namespace

std::span<const StageField>
stageFields()
{
    using M = const StageMetrics &;
    using U = StageUnit;
    static constexpr StageField kFields[] = {
        {"num_blocks", U::Count,
         [](M m) { return static_cast<double>(m.numBlocks()); }},
        {"fwd_us", U::Microseconds, [](M m) { return m.fwdSeconds * 1e6; }},
        {"bwd_us", U::Microseconds, [](M m) { return m.bwdSeconds * 1e6; }},
        {"bwd_compute_us", U::Microseconds,
         [](M m) { return m.bwdComputeSeconds() * 1e6; }},
        {"replay_us", U::Microseconds,
         [](M m) { return m.replaySeconds * 1e6; }},
        {"replay_hidden_us", U::Microseconds,
         [](M m) { return m.replayHiddenSeconds * 1e6; }},
        {"replay_critical_us", U::Microseconds,
         [](M m) { return m.replayCriticalSeconds() * 1e6; }},
        {"send_blocked_us", U::Microseconds,
         [](M m) { return m.sendBlockedSeconds * 1e6; }},
        {"recv_wait_us", U::Microseconds,
         [](M m) { return m.recvWaitSeconds * 1e6; }},
        {"peak_activation_floats", U::Floats,
         [](M m) { return static_cast<double>(m.peakActivationFloats); }},
        {"offload_evictions", U::Count,
         [](M m) { return static_cast<double>(m.offloadEvictions); }},
        {"offload_fetches", U::Count,
         [](M m) { return static_cast<double>(m.offloadFetches); }},
        {"offload_fetch_misses", U::Count,
         [](M m) { return static_cast<double>(m.offloadFetchMisses); }},
        {"offload_bytes_evicted", U::Bytes,
         [](M m) { return static_cast<double>(m.offloadBytesEvicted); }},
    };
    return kFields;
}

const char *
blockActionKey(const StageSpec &spec, int i)
{
    const auto b = static_cast<std::size_t>(i);
    if (b < spec.offload.size() && spec.offload[b])
        return "offload";
    const BlockRecompute mode =
        b < spec.recompute.size() ? spec.recompute[b] : BlockRecompute::None;
    for (const RecomputeStrategy &s : recomputeStrategyTable()) {
        if (s.mode == mode)
            return s.key;
    }
    ADAPIPE_PANIC("recompute mode missing from the strategy table");
}

std::vector<BlockRecompute>
referenceRecompute(const std::vector<StageSpec> &specs)
{
    std::vector<BlockRecompute> modes;
    for (const StageSpec &spec : specs) {
        for (int i = 0; i < spec.numBlocks(); ++i) {
            // "offload" names no strategy, so it maps to None.
            const RecomputeStrategy *s =
                findRecomputeStrategy(blockActionKey(spec, i));
            modes.push_back(s ? s->mode : BlockRecompute::None);
        }
    }
    return modes;
}

std::vector<StageSpec>
evenStageSpecs(int num_blocks, int num_stages, BlockRecompute mode)
{
    ADAPIPE_ASSERT(num_stages >= 1 && num_blocks >= 0,
                   "invalid even split request");
    std::vector<StageSpec> specs(
        static_cast<std::size_t>(num_stages));
    const int base = num_blocks / num_stages;
    const int rem = num_blocks % num_stages;
    int next = 0;
    for (int s = 0; s < num_stages; ++s) {
        const int take = base + (s < rem ? 1 : 0);
        StageSpec &spec = specs[static_cast<std::size_t>(s)];
        spec.firstBlock = next;
        spec.lastBlock = next + take - 1;
        spec.embedding = (s == 0);
        spec.head = (s == num_stages - 1);
        spec.recompute.assign(static_cast<std::size_t>(take), mode);
        next += take;
    }
    return specs;
}

RuntimeResult
runPipeline(TinyLM &model, const std::vector<StageSpec> &stages,
            const RuntimeOptions &opts, obs::Registry *metrics)
{
    ADAPIPE_ASSERT(opts.steps >= 1, "need at least one step");
    ADAPIPE_ASSERT(opts.microBatches >= 1,
                   "need at least one micro-batch");
    ADAPIPE_ASSERT(opts.seqLen >= 1 &&
                       opts.seqLen <= model.config().maxSeq,
                   "seqLen must be in [1, maxSeq]");
    ADAPIPE_ASSERT(opts.channelCapacity >= 1,
                   "channel capacity must be >= 1");
    ADAPIPE_ASSERT(opts.intraStageThreads >= 1,
                   "intraStageThreads must be >= 1");
    const int v = opts.virtualStages;
    ADAPIPE_ASSERT(v >= 1, "virtualStages must be >= 1");
    ADAPIPE_ASSERT(static_cast<int>(stages.size()) % v == 0,
                   "stage spec count ", stages.size(),
                   " is not a multiple of virtualStages ", v);
    validateSpecs(model, stages);

    ADAPIPE_ASSERT(opts.firstStep >= 0, "firstStep must be >= 0");
    const int chunks = static_cast<int>(stages.size());
    const int p = chunks / v;

    RuntimeResult result;
    const auto invalid = [&result](const std::string &why) {
        result.ok = false;
        result.error = why;
        return result;
    };
    if (opts.faults && opts.faults->crash.worker >= 0 &&
        opts.faults->crash.hang && !opts.watchdog.enabled) {
        return invalid(
            "fault spec: a hang crash requires the watchdog "
            "(a silently parked worker can only be detected by the "
            "heartbeat monitor; enable RuntimeOptions::watchdog)");
    }
    if (opts.snapshot.every < 0)
        return invalid("snapshot: every must be >= 0");
    if (opts.snapshot.every > 0 && opts.snapshot.path.empty())
        return invalid("snapshot: every is set but path is empty");
    if (opts.restore) {
        const ParseStatus restored =
            restoreTinyLM(model, *opts.restore);
        if (!restored.ok())
            return invalid("restore: " + restored.error());
    }

    ParseResult<Schedule> built =
        tryBuildInterleaved1F1B(p, opts.microBatches, v);
    if (!built.ok()) {
        result.ok = false;
        result.error = built.error();
        return result;
    }
    const Schedule sched = std::move(built).value();

    // Normalised copy: fill empty recompute/offload vectors so
    // workers can index them unconditionally.
    std::vector<StageSpec> specs = stages;
    for (StageSpec &spec : specs) {
        if (spec.recompute.empty() && spec.numBlocks() > 0) {
            spec.recompute.assign(
                static_cast<std::size_t>(spec.numBlocks()),
                BlockRecompute::None);
        }
        if (spec.offload.empty() && spec.numBlocks() > 0)
            spec.offload.assign(
                static_cast<std::size_t>(spec.numBlocks()), false);
    }

    // One channel pair per chain boundary. The interleaved op order
    // revisits a chunk's sends before draining its neighbour's, so
    // v > 1 needs depth >= microBatches to keep blocking purely
    // dependency-driven (one step never queues more per edge).
    const std::size_t capacity =
        v == 1 ? static_cast<std::size_t>(opts.channelCapacity)
               : static_cast<std::size_t>(std::max(
                     opts.channelCapacity, opts.microBatches));
    std::vector<std::unique_ptr<BoundedChannel<Tensor>>> fwd_chans;
    std::vector<std::unique_ptr<BoundedChannel<Tensor>>> bwd_chans;
    std::vector<BoundedChannel<Tensor> *> all_chans;
    for (int g = 0; g + 1 < chunks; ++g) {
        fwd_chans.push_back(
            std::make_unique<BoundedChannel<Tensor>>(capacity));
        bwd_chans.push_back(
            std::make_unique<BoundedChannel<Tensor>>(capacity));
        all_chans.push_back(fwd_chans.back().get());
        all_chans.push_back(bwd_chans.back().get());
    }
    auto edge = [](auto &chans, int i) -> BoundedChannel<Tensor> * {
        return (i >= 0 && i < static_cast<int>(chans.size()))
                   ? chans[static_cast<std::size_t>(i)].get()
                   : nullptr;
    };

    std::unique_ptr<FaultInjector> injector;
    if (opts.faults && !opts.faults->empty())
        injector = std::make_unique<FaultInjector>(*opts.faults, p);
    std::unique_ptr<SnapshotCoordinator> snapshots;
    if (opts.snapshot.every > 0) {
        snapshots =
            std::make_unique<SnapshotCoordinator>(model, opts, p);
    }

    std::vector<std::unique_ptr<StageWorker>> workers;
    workers.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
        workers.push_back(std::make_unique<StageWorker>(
            model, r, p, sched, opts, injector.get(),
            /*watchdog=*/nullptr, snapshots.get()));
        for (int c = 0; c < v; ++c) {
            const int g = c * p + r;
            ChunkCtx ctx;
            ctx.spec = &specs[static_cast<std::size_t>(g)];
            ctx.pos = g;
            ctx.fwdIn = edge(fwd_chans, g - 1);
            ctx.fwdOut = edge(fwd_chans, g);
            ctx.bwdIn = edge(bwd_chans, g);
            ctx.bwdOut = edge(bwd_chans, g - 1);
            workers.back()->addChunk(std::move(ctx));
        }
    }

    RunState state(std::move(all_chans), injector.get(),
                   snapshots.get());

    std::unique_ptr<Watchdog> watchdog;
    if (opts.watchdog.enabled) {
        watchdog = std::make_unique<Watchdog>(
            p, opts.watchdog, [&state](int w, double silent_us) {
                state.fail(
                    w, RuntimeFailureKind::WatchdogStall,
                    "watchdog: worker " + std::to_string(w) +
                        " made no progress for " +
                        std::to_string(static_cast<std::int64_t>(
                            silent_us / 1000)) +
                        " ms",
                    silent_us);
            });
        for (auto &worker : workers)
            worker->setWatchdog(watchdog.get());
    }

    resetActivationMeter();
    const std::int64_t act_base = liveActivationFloats();
    const double start_us = obs::nowUs();

    if (watchdog)
        watchdog->start();
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto &worker : workers) {
        threads.emplace_back([&worker, &state] {
            try {
                worker->run();
            } catch (const ChannelClosedError &) {
                // Expected unwind path after a peer's failure; a
                // close without a recorded failure is itself a bug.
                if (!state.failed()) {
                    state.fail(worker->workerIdx(),
                               RuntimeFailureKind::WorkerError,
                               "worker " +
                                   std::to_string(
                                       worker->workerIdx()) +
                                   ": channel closed unexpectedly");
                }
            } catch (const std::exception &e) {
                state.fail(worker->workerIdx(),
                           RuntimeFailureKind::WorkerError,
                           "worker " +
                               std::to_string(worker->workerIdx()) +
                               ": " + e.what());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (watchdog)
        watchdog->stop();

    result.wallSeconds = (obs::nowUs() - start_us) * 1e-6;
    result.peakActivationFloats = peakActivationFloats() - act_base;
    result.losses = workers.back()->losses();
    for (int g = 0; g < chunks; ++g)
        result.stages.push_back(workers[static_cast<std::size_t>(
                                            g % p)]
                                    ->metrics(g / p));
    for (auto &worker : workers) {
        if (metrics)
            metrics->merge(worker->registry());
    }
    if (state.failed()) {
        result.ok = false;
        result.error = state.error();
        result.failureKind = state.kind();
        result.failedWorker = state.failedWorker();
        result.detectSeconds = state.detectUs() * 1e-6;
    }
    if (injector)
        result.faultEvents = injector->events();
    if (metrics && watchdog) {
        metrics->set("watchdog.polls",
                     static_cast<double>(watchdog->polls()));
        metrics->set("watchdog.stall_detections",
                     static_cast<double>(
                         watchdog->stallsDetected()));
    }
    if (metrics) {
        metrics->set("runtime.stages", p);
        metrics->set("runtime.virtual_stages", v);
        metrics->set("runtime.overlap.enabled",
                     opts.overlapReplay ? 1 : 0);
        bool any_offload = false;
        for (const StageSpec &spec : specs)
            for (const bool off : spec.offload)
                any_offload = any_offload || off;
        metrics->set("runtime.offload.enabled", any_offload ? 1 : 0);
        metrics->set("runtime.intra_stage_threads",
                     opts.intraStageThreads);
        metrics->set("runtime.micro_batches", opts.microBatches);
        metrics->set("runtime.wall_us", result.wallSeconds * 1e6);
        metrics->set("runtime.peak_activation_floats",
                     static_cast<double>(result.peakActivationFloats));
    }
    return result;
}

} // namespace adapipe
