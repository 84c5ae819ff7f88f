#include "autograd/variable.h"

#include <atomic>

#include "autograd/engine.h"
#include "util/logging.h"

namespace adapipe {

namespace {

thread_local bool grad_enabled = true;

std::atomic<std::int64_t> live_floats{0};
std::atomic<std::int64_t> peak_floats{0};

/** The calling thread's own meter, and the one it adopted (if any). */
thread_local autograd_detail::ActivationMeter tl_own_meter;
thread_local autograd_detail::ActivationMeter *tl_adopted = nullptr;

/** Add @p n to @p live and raise @p peak to the new value. */
void
addTracked(std::atomic<std::int64_t> &live,
           std::atomic<std::int64_t> &peak, std::int64_t n)
{
    const std::int64_t now =
        live.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen && !peak.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
}

void
meterAdd(std::int64_t n)
{
    addTracked(live_floats, peak_floats, n);
    autograd_detail::ActivationMeter &meter =
        autograd_detail::currentMeter();
    addTracked(meter.live, meter.peak, n);
}

} // namespace

namespace autograd_detail {

VarImpl::VarImpl() = default;

VarImpl::~VarImpl()
{
    const std::int64_t n = value.numel() + grad.numel();
    live_floats.fetch_sub(n, std::memory_order_relaxed);
    currentMeter().live.fetch_sub(n, std::memory_order_relaxed);
}

void
ensureGradBuffer(VarImpl &node)
{
    if (!node.grad.sameShape(node.value)) {
        meterAdd(node.value.numel());
        node.grad = Tensor(node.value.shape());
    }
}

void
meterAdjust(std::int64_t n)
{
    meterAdd(n);
}

ActivationMeter &
currentMeter()
{
    return tl_adopted ? *tl_adopted : tl_own_meter;
}

AdoptMeter::AdoptMeter(ActivationMeter &meter) : previous_(tl_adopted)
{
    tl_adopted = &meter;
}

AdoptMeter::~AdoptMeter()
{
    tl_adopted = previous_;
}

} // namespace autograd_detail

NoGradGuard::NoGradGuard() : previous_(grad_enabled)
{
    grad_enabled = false;
}

NoGradGuard::~NoGradGuard()
{
    grad_enabled = previous_;
}

bool
gradEnabled()
{
    return grad_enabled;
}

std::int64_t
peakActivationFloats()
{
    return peak_floats.load(std::memory_order_relaxed);
}

std::int64_t
liveActivationFloats()
{
    return live_floats.load(std::memory_order_relaxed);
}

void
resetActivationMeter()
{
    peak_floats.store(live_floats.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

std::int64_t
threadLiveActivationFloats()
{
    return autograd_detail::currentMeter().live.load(
        std::memory_order_relaxed);
}

std::int64_t
threadPeakActivationFloats()
{
    return autograd_detail::currentMeter().peak.load(
        std::memory_order_relaxed);
}

void
resetThreadActivationMeter()
{
    autograd_detail::ActivationMeter &meter =
        autograd_detail::currentMeter();
    meter.peak.store(meter.live.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

Variable::Variable(Tensor value, bool requires_grad)
{
    impl_ = std::make_shared<Impl>();
    meterAdd(value.numel());
    impl_->value = std::move(value);
    impl_->requiresGrad = requires_grad;
    impl_->isLeaf = true;
}

void
Variable::zeroGrad()
{
    ADAPIPE_ASSERT(defined(), "zeroGrad on undefined variable");
    if (!impl_->grad.sameShape(impl_->value)) {
        meterAdd(impl_->value.numel());
        impl_->grad = Tensor(impl_->value.shape());
    } else {
        impl_->grad.zero_();
    }
}

Variable
Variable::detach(bool requires_grad) const
{
    ADAPIPE_ASSERT(defined(), "detach on undefined variable");
    Tensor copy = impl_->value;
    return Variable(std::move(copy), requires_grad);
}

Variable
Variable::makeNode(
    Tensor value, std::vector<Variable> parents,
    std::function<autograd_detail::BackwardResult(Impl &)> backward_fn)
{
    bool any_grad = false;
    if (grad_enabled) {
        for (const auto &p : parents) {
            if (p.defined() &&
                (p.impl()->requiresGrad || !p.impl()->isLeaf)) {
                any_grad = true;
                break;
            }
        }
    }

    if (!any_grad)
        return Variable(std::move(value), false);

    auto impl = std::make_shared<Impl>();
    meterAdd(value.numel());
    impl->value = std::move(value);
    impl->requiresGrad = false;
    impl->isLeaf = false;
    impl->parents.reserve(parents.size());
    for (auto &p : parents)
        impl->parents.push_back(p.impl());
    impl->backwardFn = std::move(backward_fn);
    return fromImpl(std::move(impl));
}

Variable
Variable::makeNodeSlotwise(
    Tensor value, std::vector<Variable> parents,
    std::function<autograd_detail::GradParts(Impl &, int)>
        slot_backward_fn)
{
    Variable v = makeNode(std::move(value), std::move(parents), {});
    if (!v.impl_->isLeaf) {
        v.impl_->slotBackwardFn = std::move(slot_backward_fn);
    }
    return v;
}

void
Variable::backward()
{
    ADAPIPE_ASSERT(defined(), "backward on undefined variable");
    Tensor seed = Tensor::full(impl_->value.shape(), 1.0f);
    backward(seed);
}

void
Variable::backward(const Tensor &seed)
{
    ADAPIPE_ASSERT(defined(), "backward on undefined variable");
    ADAPIPE_ASSERT(seed.sameShape(impl_->value),
                   "backward seed shape mismatch");
    engine_detail::backwardInline(impl_, seed, nullptr);
}

} // namespace adapipe
