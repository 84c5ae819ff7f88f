/**
 * @file
 * Dense row-major float tensor used by the autograd engine.
 *
 * Deliberately minimal: the convergence study (Fig. 10) needs a real
 * training loop with real gradients, not a fast one.
 */

#ifndef ADAPIPE_AUTOGRAD_TENSOR_H
#define ADAPIPE_AUTOGRAD_TENSOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace adapipe {

/**
 * A dense float tensor with up to rank-2 semantics (the engine
 * flattens batch dimensions into rows).
 */
class Tensor
{
  public:
    /** Empty tensor. */
    Tensor() = default;

    /** Zero-initialised tensor of the given shape. */
    explicit Tensor(std::vector<int> shape);

    /**
     * Storage is recycled through TensorPool: destruction returns
     * the buffer to a freelist and construction prefers a recycled
     * buffer of the same element count over the heap, so the
     * shape-repetitive training loop stops hitting the allocator.
     */
    ~Tensor();
    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    Tensor(Tensor &&other) noexcept = default;
    Tensor &operator=(Tensor &&other) noexcept;

    /**
     * @return tensor of the shape with UNSPECIFIED contents (stale
     * values from a recycled buffer). Only for kernels that
     * overwrite every element before any read.
     */
    static Tensor uninitialized(std::vector<int> shape);

    /** @return tensor of the shape filled with @p value. */
    static Tensor full(std::vector<int> shape, float value);

    /** @return tensor with N(0, stddev^2) entries from @p rng. */
    static Tensor randn(std::vector<int> shape, Rng &rng,
                        float stddev = 1.0f);

    /** @return number of elements. */
    std::int64_t numel() const
    {
        return static_cast<std::int64_t>(data_.size());
    }

    /** @return the shape vector. */
    const std::vector<int> &shape() const { return shape_; }

    /** @return rows for rank-2 tensors (rank-1: 1). */
    int rows() const { return shape_.size() < 2 ? 1 : shape_[0]; }

    /** @return columns for rank-2 tensors (rank-1: size). */
    int cols() const { return shape_.empty() ? 0 : shape_.back(); }

    /** @return mutable flat element access. */
    float &operator[](std::int64_t i) { return data_[i]; }

    /** @return flat element access. */
    float operator[](std::int64_t i) const { return data_[i]; }

    /** @return mutable 2D element access (row-major). */
    float &at(int r, int c)
    {
        return data_[static_cast<std::size_t>(r) * cols() + c];
    }

    /** @return 2D element access (row-major). */
    float at(int r, int c) const
    {
        return data_[static_cast<std::size_t>(r) * cols() + c];
    }

    /** @return raw storage. */
    std::vector<float> &data() { return data_; }
    const std::vector<float> &data() const { return data_; }

    /** In-place element-wise accumulate; shapes must match. */
    void add_(const Tensor &other);

    /** In-place scalar multiply. */
    void scale_(float factor);

    /** Set every element to zero. */
    void zero_();

    /** @return true if shape is identical to @p other's. */
    bool sameShape(const Tensor &other) const
    {
        return shape_ == other.shape_;
    }

  private:
    struct Uninit
    {};
    Tensor(std::vector<int> shape, Uninit);

    std::vector<int> shape_;
    std::vector<float> data_;
};

} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_TENSOR_H
