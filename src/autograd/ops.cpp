#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "autograd/gemm.h"
#include "util/logging.h"

namespace adapipe {
namespace ops {

namespace {

using Impl = Variable::Impl;
using autograd_detail::BackwardResult;
using autograd_detail::GradParts;
using autograd_detail::matmulBackwardA;
using autograd_detail::matmulBackwardB;
using autograd_detail::matmulForward;

/** Single-addend contribution list. */
GradParts
one(Tensor t)
{
    GradParts parts;
    parts.push_back(std::move(t));
    return parts;
}

/**
 * GELU (tanh approximation) at one point: the value and the
 * derivative from a single tanh.
 */
struct GeluPoint
{
    float value;
    float slope;
};

inline GeluPoint
geluAt(float x)
{
    const float c = 0.7978845608028654f; // sqrt(2/pi)
    const float t = std::tanh(c * (x + 0.044715f * x * x * x));
    const float sech2 = 1.0f - t * t;
    return {0.5f * x * (1.0f + t),
            0.5f * (1.0f + t) +
                0.5f * x * sech2 * c * (1.0f + 3.0f * 0.044715f * x * x)};
}

/** db[j] += sum_i g(i, j), ascending i — the addBias reduction. */
void
biasGrad(const Tensor &g, Tensor &db)
{
    const int m = g.rows();
    const int n = g.cols();
    const float *G = g.data().data();
    float *DB = db.data().data();
    for (int i = 0; i < m; ++i) {
        const float *grow = G + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j)
            DB[j] += grow[j];
    }
}

} // namespace

Variable
matmul(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    ADAPIPE_ASSERT(av.cols() == bv.rows(), "matmul shape mismatch: [",
                   av.rows(), ",", av.cols(), "] x [", bv.rows(), ",",
                   bv.cols(), "]");
    const int m = av.rows();
    const int k = av.cols();
    const int n = bv.cols();

    Tensor out({m, n});
    matmulForward(av, bv, out);

    // Slotwise: dA and dB are independent kernels, so the engine can
    // run them on different workers.
    return Variable::makeNodeSlotwise(
        std::move(out), {a, b},
        [m, k, n](Impl &node, int slot) -> GradParts {
            const Tensor &g = node.grad;
            if (slot == 0) {
                Tensor da({m, k});
                matmulBackwardA(g, node.parents[1]->value, da);
                return one(std::move(da));
            }
            Tensor db({k, n});
            matmulBackwardB(node.parents[0]->value, g, db);
            return one(std::move(db));
        });
}

Variable
add(const Variable &a, const Variable &b)
{
    ADAPIPE_ASSERT(a.value().sameShape(b.value()), "add shape mismatch");
    Tensor out = a.value();
    out.add_(b.value());
    return Variable::makeNode(
        std::move(out), {a, b}, [](Impl &node) {
            BackwardResult result(2);
            if (node.parents[0])
                result[0] = one(node.grad);
            if (node.parents[1])
                result[1] = one(node.grad);
            return result;
        });
}

Variable
addBias(const Variable &a, const Variable &bias)
{
    const Tensor &av = a.value();
    const Tensor &bv = bias.value();
    ADAPIPE_ASSERT(av.cols() == static_cast<int>(bv.numel()),
                   "bias width mismatch");
    Tensor out = av;
    const int m = av.rows();
    const int n = av.cols();
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j)
            out.at(i, j) += bv[j];
    }
    return Variable::makeNode(
        std::move(out), {a, bias}, [](Impl &node) {
            BackwardResult result(2);
            if (node.parents[0])
                result[0] = one(node.grad);
            if (const auto &pb = node.parents[1]) {
                Tensor db(pb->value.shape());
                biasGrad(node.grad, db);
                result[1] = one(std::move(db));
            }
            return result;
        });
}

Variable
linearBias(const Variable &x, const Variable &w, const Variable &bias)
{
    const Tensor &av = x.value();
    const Tensor &wv = w.value();
    const Tensor &bv = bias.value();
    ADAPIPE_ASSERT(av.cols() == wv.rows(),
                   "linearBias shape mismatch: [", av.rows(), ",",
                   av.cols(), "] x [", wv.rows(), ",", wv.cols(),
                   "]");
    ADAPIPE_ASSERT(wv.cols() == static_cast<int>(bv.numel()),
                   "bias width mismatch");
    const int m = av.rows();
    const int k = av.cols();
    const int n = wv.cols();

    Tensor out({m, n});
    matmulForward(av, wv, out);
    // Bias joins after the full k-sum, exactly as the two-node
    // addBias(matmul(x, w), b) graph would add it.
    {
        float *O = out.data().data();
        const float *B = bv.data().data();
        for (int i = 0; i < m; ++i) {
            float *orow = O + static_cast<std::size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                orow[j] += B[j];
        }
    }

    return Variable::makeNodeSlotwise(
        std::move(out), {x, w, bias},
        [m, k, n](Impl &node, int slot) -> GradParts {
            const Tensor &g = node.grad;
            if (slot == 0) {
                Tensor da({m, k});
                matmulBackwardA(g, node.parents[1]->value, da);
                return one(std::move(da));
            }
            if (slot == 1) {
                Tensor dw({k, n});
                matmulBackwardB(node.parents[0]->value, g, dw);
                return one(std::move(dw));
            }
            Tensor db(node.parents[2]->value.shape());
            biasGrad(g, db);
            return one(std::move(db));
        });
}

Variable
linearBiasGelu(const Variable &x, const Variable &w,
               const Variable &bias)
{
    const Tensor &av = x.value();
    const Tensor &wv = w.value();
    const Tensor &bv = bias.value();
    ADAPIPE_ASSERT(av.cols() == wv.rows(),
                   "linearBiasGelu shape mismatch: [", av.rows(), ",",
                   av.cols(), "] x [", wv.rows(), ",", wv.cols(),
                   "]");
    ADAPIPE_ASSERT(wv.cols() == static_cast<int>(bv.numel()),
                   "bias width mismatch");
    const int m = av.rows();
    const int k = av.cols();
    const int n = wv.cols();

    Tensor pre({m, n});
    matmulForward(av, wv, pre);
    {
        float *P = pre.data().data();
        const float *B = bv.data().data();
        for (int i = 0; i < m; ++i) {
            float *prow = P + static_cast<std::size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                prow[j] += B[j];
        }
    }

    // The backward pass needs only GELU's derivative at the
    // pre-activation, so the derivative overwrites the pre-activation
    // in its own buffer (the tensor the separate addBias node would
    // have kept) and the forward's tanh serves both.
    Tensor out = Tensor::uninitialized({m, n});
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        const GeluPoint p = geluAt(pre[i]);
        out[i] = p.value;
        pre[i] = p.slope;
    }

    return Variable::makeNodeSlotwise(
        std::move(out), {x, w, bias},
        [m, k, n, slope = std::move(pre)](Impl &node,
                                          int slot) -> GradParts {
            // Each slot forms dpre itself, so the three slot tasks
            // share no mutable state (slope is read-only here).
            Tensor dpre = node.grad;
            for (std::int64_t i = 0; i < dpre.numel(); ++i)
                dpre[i] *= slope[i];

            if (slot == 0) {
                Tensor da({m, k});
                matmulBackwardA(dpre, node.parents[1]->value, da);
                return one(std::move(da));
            }
            if (slot == 1) {
                Tensor dw({k, n});
                matmulBackwardB(node.parents[0]->value, dpre, dw);
                return one(std::move(dw));
            }
            Tensor db(node.parents[2]->value.shape());
            biasGrad(dpre, db);
            return one(std::move(db));
        });
}

Variable
scale(const Variable &a, float factor)
{
    Tensor out = a.value();
    out.scale_(factor);
    return Variable::makeNode(
        std::move(out), {a}, [factor](Impl &node) {
            BackwardResult result(1);
            if (node.parents[0]) {
                Tensor da = node.grad;
                da.scale_(factor);
                result[0] = one(std::move(da));
            }
            return result;
        });
}

Variable
mul(const Variable &a, const Variable &b)
{
    ADAPIPE_ASSERT(a.value().sameShape(b.value()), "mul shape mismatch");
    Tensor out = a.value();
    for (std::int64_t i = 0; i < out.numel(); ++i)
        out[i] *= b.value()[i];
    return Variable::makeNode(
        std::move(out), {a, b}, [](Impl &node) {
            const auto &pa = node.parents[0];
            const auto &pb = node.parents[1];
            BackwardResult result(2);
            if (pa) {
                Tensor da = node.grad;
                for (std::int64_t i = 0; i < da.numel(); ++i)
                    da[i] *= pb->value[i];
                result[0] = one(std::move(da));
            }
            if (pb) {
                Tensor db = node.grad;
                for (std::int64_t i = 0; i < db.numel(); ++i)
                    db[i] *= pa->value[i];
                result[1] = one(std::move(db));
            }
            return result;
        });
}

Variable
gelu(const Variable &a)
{
    Tensor out = a.value();
    for (std::int64_t i = 0; i < out.numel(); ++i)
        out[i] = geluAt(out[i]).value;
    return Variable::makeNode(std::move(out), {a}, [](Impl &node) {
        BackwardResult result(1);
        const auto &pa = node.parents[0];
        if (!pa)
            return result;
        Tensor da = node.grad;
        for (std::int64_t i = 0; i < da.numel(); ++i)
            da[i] *= geluAt(pa->value[i]).slope;
        result[0] = one(std::move(da));
        return result;
    });
}

Variable
silu(const Variable &a)
{
    Tensor out = a.value();
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        const float x = out[i];
        out[i] = x / (1.0f + std::exp(-x));
    }
    return Variable::makeNode(std::move(out), {a}, [](Impl &node) {
        BackwardResult result(1);
        const auto &pa = node.parents[0];
        if (!pa)
            return result;
        Tensor da = node.grad;
        for (std::int64_t i = 0; i < da.numel(); ++i) {
            const float x = pa->value[i];
            const float s = 1.0f / (1.0f + std::exp(-x));
            da[i] *= s * (1.0f + x * (1.0f - s));
        }
        result[0] = one(std::move(da));
        return result;
    });
}

Variable
rmsNorm(const Variable &a, const Variable &gamma, float eps)
{
    const Tensor &av = a.value();
    const int m = av.rows();
    const int n = av.cols();
    ADAPIPE_ASSERT(static_cast<int>(gamma.value().numel()) == n,
                   "rmsNorm scale shape mismatch");

    Tensor out({m, n});
    std::vector<float> rms(m);
    for (int i = 0; i < m; ++i) {
        float sq = 0.0f;
        for (int j = 0; j < n; ++j)
            sq += av.at(i, j) * av.at(i, j);
        const float r = 1.0f / std::sqrt(sq / n + eps);
        rms[i] = r;
        for (int j = 0; j < n; ++j)
            out.at(i, j) = av.at(i, j) * r * gamma.value()[j];
    }

    return Variable::makeNode(
        std::move(out), {a, gamma},
        [m, n, rms = std::move(rms)](Impl &node) {
            const auto &pa = node.parents[0];
            const auto &pg = node.parents[1];
            const Tensor &g = node.grad;
            BackwardResult result(2);
            if (pg) {
                Tensor dg(pg->value.shape());
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < n; ++j) {
                        dg[j] += g.at(i, j) * pa->value.at(i, j) *
                                 rms[i];
                    }
                }
                result[1] = one(std::move(dg));
            }
            if (pa) {
                Tensor da({m, n});
                for (int i = 0; i < m; ++i) {
                    // d/dx_k of x_j * r(x): r * delta_jk -
                    // x_j x_k r^3 / n.
                    float dot = 0.0f;
                    for (int j = 0; j < n; ++j) {
                        dot += g.at(i, j) * pg->value[j] *
                               pa->value.at(i, j);
                    }
                    const float r = rms[i];
                    for (int k = 0; k < n; ++k) {
                        da.at(i, k) =
                            g.at(i, k) * pg->value[k] * r -
                            pa->value.at(i, k) * dot * r * r * r /
                                static_cast<float>(n);
                    }
                }
                result[0] = one(std::move(da));
            }
            return result;
        });
}

Variable
sliceCols(const Variable &a, int start, int len)
{
    const Tensor &av = a.value();
    const int m = av.rows();
    const int n = av.cols();
    ADAPIPE_ASSERT(start >= 0 && len > 0 && start + len <= n,
                   "bad column slice [", start, ", ", start + len,
                   ") of width ", n);
    Tensor out({m, len});
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < len; ++j)
            out.at(i, j) = av.at(i, start + j);
    }
    return Variable::makeNode(
        std::move(out), {a}, [m, len, start](Impl &node) {
            BackwardResult result(1);
            const auto &pa = node.parents[0];
            if (!pa)
                return result;
            Tensor da(pa->value.shape());
            for (int i = 0; i < m; ++i) {
                for (int j = 0; j < len; ++j)
                    da.at(i, start + j) = node.grad.at(i, j);
            }
            result[0] = one(std::move(da));
            return result;
        });
}

Variable
concatCols(const std::vector<Variable> &parts)
{
    ADAPIPE_ASSERT(!parts.empty(), "concat of nothing");
    const int m = parts.front().value().rows();
    int total = 0;
    for (const auto &p : parts) {
        ADAPIPE_ASSERT(p.value().rows() == m,
                       "concat row count mismatch");
        total += p.value().cols();
    }
    Tensor out({m, total});
    std::vector<int> offsets;
    int off = 0;
    for (const auto &p : parts) {
        offsets.push_back(off);
        const Tensor &pv = p.value();
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < pv.cols(); ++j)
                out.at(i, off + j) = pv.at(i, j);
        }
        off += pv.cols();
    }
    return Variable::makeNode(
        std::move(out), parts,
        [m, offsets = std::move(offsets)](Impl &node) {
            BackwardResult result(node.parents.size());
            for (std::size_t k = 0; k < node.parents.size(); ++k) {
                const auto &p = node.parents[k];
                if (!p)
                    continue;
                Tensor dp(p->value.shape());
                const int cols = dp.cols();
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < cols; ++j)
                        dp.at(i, j) = node.grad.at(i, offsets[k] + j);
                }
                result[k] = one(std::move(dp));
            }
            return result;
        });
}

Variable
layerNorm(const Variable &a, const Variable &gamma, const Variable &beta,
          float eps)
{
    const Tensor &av = a.value();
    const int m = av.rows();
    const int n = av.cols();
    ADAPIPE_ASSERT(static_cast<int>(gamma.value().numel()) == n &&
                       static_cast<int>(beta.value().numel()) == n,
                   "layerNorm affine shape mismatch");

    Tensor out({m, n});
    Tensor xhat({m, n});
    std::vector<float> rstd(m);
    for (int i = 0; i < m; ++i) {
        float mean = 0.0f;
        for (int j = 0; j < n; ++j)
            mean += av.at(i, j);
        mean /= n;
        float var = 0.0f;
        for (int j = 0; j < n; ++j) {
            const float d = av.at(i, j) - mean;
            var += d * d;
        }
        var /= n;
        const float r = 1.0f / std::sqrt(var + eps);
        rstd[i] = r;
        for (int j = 0; j < n; ++j) {
            const float xh = (av.at(i, j) - mean) * r;
            xhat.at(i, j) = xh;
            out.at(i, j) =
                xh * gamma.value()[j] + beta.value()[j];
        }
    }

    return Variable::makeNode(
        std::move(out), {a, gamma, beta},
        [m, n, xhat = std::move(xhat),
         rstd = std::move(rstd)](Impl &node) {
            const auto &pa = node.parents[0];
            const auto &pg = node.parents[1];
            const auto &pb = node.parents[2];
            const Tensor &g = node.grad;
            BackwardResult result(3);

            if (pg) {
                Tensor dg(pg->value.shape());
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < n; ++j)
                        dg[j] += g.at(i, j) * xhat.at(i, j);
                }
                result[1] = one(std::move(dg));
            }
            if (pb) {
                Tensor db(pb->value.shape());
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < n; ++j)
                        db[j] += g.at(i, j);
                }
                result[2] = one(std::move(db));
            }
            if (pa) {
                Tensor da({m, n});
                for (int i = 0; i < m; ++i) {
                    // dxhat_j = g_j * gamma_j
                    float sum_dx = 0.0f;
                    float sum_dx_xhat = 0.0f;
                    for (int j = 0; j < n; ++j) {
                        const float dx = g.at(i, j) * pg->value[j];
                        sum_dx += dx;
                        sum_dx_xhat += dx * xhat.at(i, j);
                    }
                    for (int j = 0; j < n; ++j) {
                        const float dx = g.at(i, j) * pg->value[j];
                        da.at(i, j) =
                            rstd[i] *
                            (dx - sum_dx / n -
                             xhat.at(i, j) * sum_dx_xhat / n);
                    }
                }
                result[0] = one(std::move(da));
            }
            return result;
        });
}

Variable
embedding(const Variable &table, const std::vector<int> &ids)
{
    const Tensor &tv = table.value();
    const int dim = tv.cols();
    const int rows = static_cast<int>(ids.size());
    Tensor out({rows, dim});
    for (int i = 0; i < rows; ++i) {
        ADAPIPE_ASSERT(ids[i] >= 0 && ids[i] < tv.rows(),
                       "token id out of vocabulary: ", ids[i]);
        for (int j = 0; j < dim; ++j)
            out.at(i, j) = tv.at(ids[i], j);
    }
    return Variable::makeNode(
        std::move(out), {table}, [ids, rows, dim](Impl &node) {
            BackwardResult result(1);
            const auto &pt = node.parents[0];
            if (!pt)
                return result;
            Tensor dt(pt->value.shape());
            for (int i = 0; i < rows; ++i) {
                for (int j = 0; j < dim; ++j)
                    dt.at(ids[i], j) += node.grad.at(i, j);
            }
            result[0] = one(std::move(dt));
            return result;
        });
}

Variable
softmaxRows(const Variable &a, bool causal)
{
    const Tensor &av = a.value();
    const int m = av.rows();
    const int n = av.cols();
    if (causal) {
        ADAPIPE_ASSERT(m == n, "causal softmax needs a square matrix");
    }

    Tensor out({m, n});
    for (int i = 0; i < m; ++i) {
        const int limit = causal ? i + 1 : n;
        float max_v = -1e30f;
        for (int j = 0; j < limit; ++j)
            max_v = std::max(max_v, av.at(i, j));
        float denom = 0.0f;
        for (int j = 0; j < limit; ++j) {
            const float e = std::exp(av.at(i, j) - max_v);
            out.at(i, j) = e;
            denom += e;
        }
        for (int j = 0; j < limit; ++j)
            out.at(i, j) /= denom;
        // masked entries stay exactly zero
    }

    // Keep a copy of the probabilities for the backward pass.
    Tensor probs = out;
    return Variable::makeNode(
        std::move(out), {a},
        [m, n, causal, probs = std::move(probs)](Impl &node) {
            BackwardResult result(1);
            const auto &pa = node.parents[0];
            if (!pa)
                return result;
            Tensor da({m, n});
            for (int i = 0; i < m; ++i) {
                const int limit = causal ? i + 1 : n;
                float dot = 0.0f;
                for (int j = 0; j < limit; ++j)
                    dot += node.grad.at(i, j) * probs.at(i, j);
                for (int j = 0; j < limit; ++j) {
                    da.at(i, j) = probs.at(i, j) *
                                  (node.grad.at(i, j) - dot);
                }
            }
            result[0] = one(std::move(da));
            return result;
        });
}

Variable
crossEntropy(const Variable &logits, const std::vector<int> &targets)
{
    const Tensor &lv = logits.value();
    const int m = lv.rows();
    const int v = lv.cols();
    ADAPIPE_ASSERT(static_cast<int>(targets.size()) == m,
                   "one target per logits row required");

    Tensor probs({m, v});
    double loss = 0.0;
    for (int i = 0; i < m; ++i) {
        ADAPIPE_ASSERT(targets[i] >= 0 && targets[i] < v,
                       "target out of vocabulary: ", targets[i]);
        float max_v = -1e30f;
        for (int j = 0; j < v; ++j)
            max_v = std::max(max_v, lv.at(i, j));
        double denom = 0.0;
        for (int j = 0; j < v; ++j)
            denom += std::exp(static_cast<double>(lv.at(i, j)) - max_v);
        const double log_denom = std::log(denom) + max_v;
        loss += log_denom - lv.at(i, targets[i]);
        for (int j = 0; j < v; ++j) {
            probs.at(i, j) = static_cast<float>(
                std::exp(static_cast<double>(lv.at(i, j)) - log_denom));
        }
    }

    Tensor out({1});
    out[0] = static_cast<float>(loss / m);
    return Variable::makeNode(
        std::move(out), {logits},
        [m, v, targets, probs = std::move(probs)](Impl &node) {
            BackwardResult result(1);
            const auto &pl = node.parents[0];
            if (!pl)
                return result;
            const float g = node.grad[0] / static_cast<float>(m);
            Tensor dl({m, v});
            for (int i = 0; i < m; ++i) {
                for (int j = 0; j < v; ++j)
                    dl.at(i, j) = g * probs.at(i, j);
                dl.at(i, targets[i]) -= g;
            }
            result[0] = one(std::move(dl));
            return result;
        });
}

} // namespace ops
} // namespace adapipe
