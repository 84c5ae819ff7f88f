#include "autograd/tensor.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "autograd/tensor_pool.h"
#include "util/logging.h"

namespace adapipe {

namespace {

std::int64_t
shapeNumel(const std::vector<int> &shape)
{
    std::int64_t n = 1;
    for (int d : shape) {
        ADAPIPE_ASSERT(d > 0, "non-positive tensor dimension ", d);
        n *= d;
    }
    return n;
}

} // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)),
      data_(TensorPool::instance().acquire(
          static_cast<std::size_t>(shapeNumel(shape_)),
          /*zero_fill=*/true))
{
    ADAPIPE_ASSERT(shape_.size() <= 2, "tensors are rank <= 2");
}

Tensor::Tensor(std::vector<int> shape, Uninit)
    : shape_(std::move(shape)),
      data_(TensorPool::instance().acquire(
          static_cast<std::size_t>(shapeNumel(shape_)),
          /*zero_fill=*/false))
{
    ADAPIPE_ASSERT(shape_.size() <= 2, "tensors are rank <= 2");
}

Tensor::~Tensor()
{
    TensorPool::instance().release(std::move(data_));
}

Tensor::Tensor(const Tensor &other)
    : shape_(other.shape_),
      data_(TensorPool::instance().acquire(other.data_.size(),
                                           /*zero_fill=*/false))
{
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    shape_ = other.shape_;
    if (data_.size() != other.data_.size()) {
        TensorPool::instance().release(std::move(data_));
        data_ = TensorPool::instance().acquire(other.data_.size(),
                                               /*zero_fill=*/false);
    }
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
    return *this;
}

Tensor &
Tensor::operator=(Tensor &&other) noexcept
{
    if (this == &other)
        return *this;
    // A plain vector move-assign would free our buffer behind the
    // pool's back; recycle it instead.
    TensorPool::instance().release(std::move(data_));
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    return *this;
}

Tensor
Tensor::uninitialized(std::vector<int> shape)
{
    return Tensor(std::move(shape), Uninit{});
}

Tensor
Tensor::full(std::vector<int> shape, float value)
{
    Tensor t(std::move(shape), Uninit{});
    for (auto &x : t.data_)
        x = value;
    return t;
}

Tensor
Tensor::randn(std::vector<int> shape, Rng &rng, float stddev)
{
    Tensor t(std::move(shape), Uninit{});
    for (auto &x : t.data_)
        x = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

void
Tensor::add_(const Tensor &other)
{
    ADAPIPE_ASSERT(sameShape(other), "add_ shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
Tensor::scale_(float factor)
{
    for (auto &x : data_)
        x *= factor;
}

void
Tensor::zero_()
{
    for (auto &x : data_)
        x = 0.0f;
}

} // namespace adapipe
