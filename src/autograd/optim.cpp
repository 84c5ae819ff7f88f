#include "autograd/optim.h"

#include <cmath>

#include "util/logging.h"

namespace adapipe {

float
clipGradNorm(const std::vector<Variable> &params, float max_norm)
{
    ADAPIPE_ASSERT(max_norm > 0, "max_norm must be positive");
    double sq = 0.0;
    for (const auto &p : params) {
        const Tensor &g = p.grad();
        for (std::int64_t i = 0; i < g.numel(); ++i)
            sq += static_cast<double>(g[i]) * g[i];
    }
    const float norm = static_cast<float>(std::sqrt(sq));
    if (norm > max_norm) {
        const float scale = max_norm / norm;
        for (const auto &p : params) {
            // Gradients live in the shared impl; scale in place.
            auto impl = p.impl();
            impl->grad.scale_(scale);
        }
    }
    return norm;
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1,
           float beta2, float eps, float weight_decay)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps), weightDecay_(weight_decay)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (auto &p : params_) {
        ADAPIPE_ASSERT(p.requiresGrad(),
                       "optimizer parameter without requiresGrad");
        m_.emplace_back(p.value().shape());
        v_.emplace_back(p.value().shape());
    }
}

void
Adam::step()
{
    ++t_;
    const float bc1 =
        1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 =
        1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Tensor &value = params_[i].mutableValue();
        const Tensor &grad = params_[i].grad();
        if (grad.numel() != value.numel())
            continue;
        for (std::int64_t j = 0; j < value.numel(); ++j) {
            const float g = grad[j];
            m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * g;
            v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * g * g;
            const float mhat = m_[i][j] / bc1;
            const float vhat = v_[i][j] / bc2;
            value[j] -= lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                               weightDecay_ * value[j]);
        }
    }
}

void
Adam::zeroGrad()
{
    for (auto &p : params_)
        p.zeroGrad();
}

void
Adam::setStepCount(int t)
{
    ADAPIPE_ASSERT(t >= 0, "Adam step counter must be >= 0, got ", t);
    t_ = t;
}

const Tensor &
Adam::moment1(std::size_t i) const
{
    ADAPIPE_ASSERT(i < m_.size(), "Adam moment index out of range");
    return m_[i];
}

const Tensor &
Adam::moment2(std::size_t i) const
{
    ADAPIPE_ASSERT(i < v_.size(), "Adam moment index out of range");
    return v_[i];
}

void
Adam::setMoments(std::size_t i, const Tensor &m, const Tensor &v)
{
    ADAPIPE_ASSERT(i < params_.size(),
                   "Adam moment index out of range");
    ADAPIPE_ASSERT(m.sameShape(params_[i].value()) &&
                       v.sameShape(params_[i].value()),
                   "Adam moment shape mismatch for parameter ", i);
    m_[i] = m;
    v_[i] = v;
}

} // namespace adapipe
