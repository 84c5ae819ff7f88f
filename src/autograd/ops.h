/**
 * @file
 * Differentiable operations of the autograd engine.
 *
 * All binary ops require exact shape matches (the engine works in
 * flattened [rows, cols] form); matmul is standard rank-2. Every op
 * registers a backward closure when gradient recording is enabled.
 */

#ifndef ADAPIPE_AUTOGRAD_OPS_H
#define ADAPIPE_AUTOGRAD_OPS_H

#include <vector>

#include "autograd/variable.h"

namespace adapipe {
namespace ops {

/** C = A . B for A [m,k], B [k,n]. */
Variable matmul(const Variable &a, const Variable &b);

/** Element-wise sum of two same-shape tensors. */
Variable add(const Variable &a, const Variable &b);

/** Add a [n] bias row-wise to a [m,n] tensor. */
Variable addBias(const Variable &a, const Variable &bias);

/**
 * Fused x . W + bias as a single graph node. Bit-identical to
 * addBias(matmul(x, w), bias) — the bias joins after the complete
 * k-summation — while saving one node and one tensor copy.
 */
Variable linearBias(const Variable &x, const Variable &w,
                    const Variable &bias);

/**
 * Fused gelu(x . W + bias) as a single graph node. Bit-identical
 * to gelu(addBias(matmul(x, w), bias)); GELU's derivative at the
 * pre-activation is kept for the backward pass in place of the
 * intermediate node, computed from the forward's own tanh.
 */
Variable linearBiasGelu(const Variable &x, const Variable &w,
                        const Variable &bias);

/** Multiply by a compile-time constant. */
Variable scale(const Variable &a, float factor);

/** Element-wise product of two same-shape tensors. */
Variable mul(const Variable &a, const Variable &b);

/** GELU activation (tanh approximation). */
Variable gelu(const Variable &a);

/** SiLU (swish) activation, x * sigmoid(x) — Llama-style FFNs. */
Variable silu(const Variable &a);

/**
 * RMS normalisation over the last dimension with a scale parameter
 * (no mean subtraction, no bias) — Llama-style norms.
 */
Variable rmsNorm(const Variable &a, const Variable &gamma,
                 float eps = 1e-5f);

/** Transpose of a [m, n] tensor: the attention's K^T. */
Variable transpose(const Variable &a);

/** Columns [start, start+len) of a [m, n] tensor. */
Variable sliceCols(const Variable &a, int start, int len);

/** Concatenate same-row-count tensors along columns. */
Variable concatCols(const std::vector<Variable> &parts);

/** Layer normalisation over the last dimension with affine params. */
Variable layerNorm(const Variable &a, const Variable &gamma,
                   const Variable &beta, float eps = 1e-5f);

/**
 * Row lookup: output row i = table row ids[i]. Gradients flow into
 * the table.
 */
Variable embedding(const Variable &table, const std::vector<int> &ids);

/**
 * Row-wise softmax with an optional causal mask (entry (i, j) with
 * j > i is excluded). Numerically stabilised.
 */
Variable softmaxRows(const Variable &a, bool causal = false);

/**
 * Mean token-level cross entropy of logits [T, V] against integer
 * targets; the returned variable is scalar-shaped [1].
 */
Variable crossEntropy(const Variable &logits,
                      const std::vector<int> &targets);

} // namespace ops
} // namespace adapipe

#endif // ADAPIPE_AUTOGRAD_OPS_H
