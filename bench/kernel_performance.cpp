/**
 * @file
 * google-benchmark microbenchmarks of the matmul micro-kernel: every
 * SIMD width this host supports x the three products of a linear
 * layer (forward, dA = g . W^T, dB = x^T . g) at the training
 * workloads' shapes. Each row is named
 * BM_Gemm/<width>/<product>/<m>x<k>x<n> for the forward product
 * [m,k] x [k,n], and reports its rate in multiply-adds per second.
 *
 *   ./build/bench/kernel_performance --benchmark_out=BENCH_kernels.json
 *        --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

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

void
registerGemmBenchmarks()
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
}

} // namespace
} // namespace adapipe

int
main(int argc, char **argv)
{
    adapipe::registerGemmBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
