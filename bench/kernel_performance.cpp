/**
 * @file
 * google-benchmark microbenchmarks of the per-width kernels, at the
 * training workloads' shapes, for every SIMD width this host
 * supports:
 *
 * - the matmul micro-kernel x the three products of a linear layer
 *   (forward, dA = g . W^T, dB = x^T . g), named
 *   BM_Gemm/<width>/<product>/<m>x<k>x<n> for the forward product
 *   [m,k] x [k,n], with its rate in multiply-adds per second;
 * - GELU's value and slope over n elements, BM_Gelu/<width>/<n>, with
 *   its rate in elements per second, next to BM_Gelu/libm/<n>, the
 *   same formula one element at a time on libm's tanhf.
 *
 *   ./build/bench/kernel_performance --benchmark_out=BENCH_kernels.json
 *        --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gemm.h"
#include "autograd/tensor.h"
#include "util/rng.h"

namespace adapipe {
namespace {

using autograd_detail::GemmKernel;

enum class Product
{
    Forward,
    GradA,
    GradB
};

struct Shape
{
    int m, k, n;
};

void
BM_Gemm(benchmark::State &state, const GemmKernel *kernel,
        Product product, Shape s)
{
    Rng rng(11);
    const Tensor x = Tensor::randn({s.m, s.k}, rng);
    const Tensor w = Tensor::randn({s.k, s.n}, rng);
    const Tensor g = Tensor::randn({s.m, s.n}, rng);
    // Results accumulate across iterations; the kernel's cost does
    // not depend on the values.
    Tensor out({s.m, s.n});
    Tensor dx({s.m, s.k});
    Tensor dw({s.k, s.n});
    for (auto _ : state) {
        switch (product) {
        case Product::Forward:
            autograd_detail::matmulForward(x, w, out, *kernel);
            benchmark::DoNotOptimize(out.data().data());
            break;
        case Product::GradA:
            autograd_detail::matmulBackwardA(g, w, dx, *kernel);
            benchmark::DoNotOptimize(dx.data().data());
            break;
        case Product::GradB:
            autograd_detail::matmulBackwardB(x, g, dw, *kernel);
            benchmark::DoNotOptimize(dw.data().data());
            break;
        }
        benchmark::ClobberMemory();
    }
    state.counters["MAC/s"] = benchmark::Counter(
        static_cast<double>(s.m) * s.k * s.n,
        benchmark::Counter::kIsIterationInvariantRate);
}

/** GELU's value and slope at n normal(0, 3) inputs per iteration. */
void
BM_Gelu(benchmark::State &state, const GemmKernel *kernel, std::size_t n)
{
    Rng rng(12);
    std::vector<float> x(n);
    for (float &v : x)
        v = static_cast<float>(rng.normal(0.0, 3.0));
    std::vector<float> value(n);
    std::vector<float> slope(n);
    for (auto _ : state) {
        if (kernel) {
            kernel->gelu(x.data(), value.data(), slope.data(), n);
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const float v = x[i];
                const float c = 0.7978845608028654f; // sqrt(2/pi)
                const float t = std::tanh(c * (v + 0.044715f * v * v * v));
                const float sech2 = 1.0f - t * t;
                value[i] = 0.5f * v * (1.0f + t);
                slope[i] = 0.5f * (1.0f + t) +
                           0.5f * v * sech2 * c *
                               (1.0f + 3.0f * 0.044715f * v * v);
            }
        }
        benchmark::DoNotOptimize(value.data());
        benchmark::DoNotOptimize(slope.data());
        benchmark::ClobberMemory();
    }
    state.counters["elements/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}

void
registerBenchmarks()
{
    // train-single's feed-forward up and down projections
    // (seq 64, dim 128, ffn 512) and train-pipeline's up projection
    // (seq 32, dim 64, ffn 128).
    const Shape shapes[] = {{64, 128, 512}, {64, 512, 128}, {32, 64, 128}};
    const std::pair<Product, const char *> products[] = {
        {Product::Forward, "fwd"},
        {Product::GradA, "dA"},
        {Product::GradB, "dB"},
    };
    for (const GemmKernel &kernel : autograd_detail::gemmKernels()) {
        if (!kernel.supported)
            continue;
        for (const auto &[product, label] : products) {
            for (const Shape &s : shapes) {
                const std::string name =
                    std::string("BM_Gemm/") + kernel.name + "/" + label +
                    "/" + std::to_string(s.m) + "x" +
                    std::to_string(s.k) + "x" + std::to_string(s.n);
                benchmark::RegisterBenchmark(name.c_str(), BM_Gemm,
                                             &kernel, product, s)
                    ->Unit(benchmark::kMicrosecond);
            }
        }
    }

    // train-pipeline's and train-single's feed-forward activations
    // (32 x 128 and 64 x 512).
    const std::size_t geluSizes[] = {4096, 32768};
    auto registerGelu = [&](const char *width, const GemmKernel *kernel) {
        for (std::size_t n : geluSizes) {
            const std::string name = std::string("BM_Gelu/") + width + "/" +
                                     std::to_string(n);
            benchmark::RegisterBenchmark(name.c_str(), BM_Gelu, kernel, n)
                ->Unit(benchmark::kMicrosecond);
        }
    };
    for (const GemmKernel &kernel : autograd_detail::gemmKernels()) {
        if (kernel.supported)
            registerGelu(kernel.name, &kernel);
    }
    registerGelu("libm", nullptr);
}

} // namespace
} // namespace adapipe

int
main(int argc, char **argv)
{
    adapipe::registerBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
