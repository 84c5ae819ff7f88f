/**
 * @file
 * Randomized-graph oracle for the parallel backward engine: ~100
 * seeded random autograd DAGs, each differentiated once by the
 * single-threaded reference (Variable::backward) and once per worker
 * count by BackwardEngine, with every leaf gradient compared with
 * EXPECT_EQ on floats — bit equality, not tolerance.
 *
 * The generator deliberately manufactures the structures that break
 * naive parallel reductions: shared subexpressions (every node stays
 * eligible as an operand forever, so fan-out grows with graph size),
 * diamond joins (two consumers of one node later merged by a binary
 * op), nodes consumed twice by the SAME op (add(x, x), matmul(x, x)
 * — the same-parent-multi-slot case), fused linearBias /
 * linearBiasGelu nodes (slot-parallel backward), and leaves that are
 * never consumed at all (their grad must stay unallocated, exactly
 * like the reference leaves it).
 *
 * Graphs are rebuilt from the seed for every run: gradients
 * accumulate in place, so a fresh graph per run is what makes the
 * comparison exact rather than cumulative. A backward also consumes
 * its graph — every interior value and gradient is freed at its last
 * reader — so a second backward always needs a graph of its own.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace adapipe {
namespace {

constexpr int kDim = 6;       // every matrix node is [kDim, kDim]
constexpr int kOpSteps = 14;  // random interior nodes per graph
constexpr int kNumGraphs = 100;
const int kThreadCounts[] = {1, 2, 4, 8};

/** One rebuildable random DAG: leaves to check plus the root. */
struct RandomGraph
{
    /** Every grad-requiring leaf, consumed or not, fixed order. */
    std::vector<Variable> leaves;
    Variable root;
    Tensor seed;
};

/**
 * Deterministic graph from @p seed. Identical seeds produce
 * bit-identical values, topology and backward seed, so runs are
 * comparable across engines. With @p reuse the graph is built on
 * reuse's leaves instead (fresh ones are still drawn, so the rest of
 * the stream is unchanged): a backward over it accumulates into the
 * gradients those leaves already hold.
 */
RandomGraph
buildGraph(std::uint64_t seed, const RandomGraph *reuse = nullptr)
{
    Rng rng(seed);
    RandomGraph g;

    // Matrix leaves feed the op pool; vector leaves serve as biases
    // and norm gains. One of each is created but never consumed.
    std::vector<Variable> pool;
    for (int i = 0; i < 4; ++i) {
        Variable leaf(Tensor::randn({kDim, kDim}, rng, 0.5f), true);
        g.leaves.push_back(leaf);
        pool.push_back(leaf);
    }
    std::vector<Variable> vecs;
    for (int i = 0; i < 2; ++i) {
        Variable leaf(Tensor::randn({kDim}, rng, 0.5f), true);
        g.leaves.push_back(leaf);
        vecs.push_back(leaf);
    }
    g.leaves.emplace_back(Tensor::randn({kDim, kDim}, rng, 0.5f),
                          true); // unused matrix leaf
    g.leaves.emplace_back(Tensor::randn({kDim}, rng, 0.5f),
                          true); // unused vector leaf
    if (reuse) {
        g.leaves = reuse->leaves;
        pool.assign(g.leaves.begin(), g.leaves.begin() + 4);
        vecs.assign(g.leaves.begin() + 4, g.leaves.begin() + 6);
    }

    auto pick = [&]() -> Variable & {
        return pool[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) -
                                  1))];
    };
    auto pickVec = [&]() -> Variable & {
        return vecs[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(vecs.size()) -
                                  1))];
    };

    for (int step = 0; step < kOpSteps; ++step) {
        Variable out;
        switch (rng.uniformInt(0, 10)) {
          case 0: out = ops::add(pick(), pick()); break;
          case 1: out = ops::mul(pick(), pick()); break;
          case 2: out = ops::matmul(pick(), pick()); break;
          case 3: {
            // Same node in both slots, on purpose: the reduction
            // must apply slot 0's addend before slot 1's.
            Variable &a = pick();
            out = rng.uniform() < 0.5 ? ops::add(a, a)
                                      : ops::matmul(a, a);
            break;
          }
          case 4: out = ops::gelu(pick()); break;
          case 5: out = ops::silu(pick()); break;
          case 6:
            out = ops::scale(
                pick(), static_cast<float>(rng.uniform(0.5, 1.5)));
            break;
          case 7:
            out = ops::linearBias(pick(), pick(), pickVec());
            break;
          case 8:
            out = ops::linearBiasGelu(pick(), pick(), pickVec());
            break;
          case 9: out = ops::rmsNorm(pick(), pickVec()); break;
          default:
            out = ops::softmaxRows(pick(), rng.uniform() < 0.5);
            break;
        }
        pool.push_back(std::move(out));
    }

    // Fold the whole pool into one root so every node (diamond arms
    // included) is reachable, adding one more consumer per node.
    Variable root = pool[0];
    for (std::size_t i = 1; i < pool.size(); ++i)
        root = ops::add(root, pool[i]);
    g.root = std::move(root);
    g.seed = Tensor::randn(g.root.value().shape(), rng);
    return g;
}

/** Snapshot of one leaf's gradient after a backward run. */
struct GradSnapshot
{
    bool allocated = false;
    std::vector<float> bits;
};

std::vector<GradSnapshot>
snapshotGrads(const RandomGraph &g)
{
    std::vector<GradSnapshot> out;
    out.reserve(g.leaves.size());
    for (const Variable &leaf : g.leaves) {
        GradSnapshot s;
        s.allocated = leaf.grad().numel() > 0;
        if (s.allocated)
            s.bits = leaf.grad().data();
        out.push_back(std::move(s));
    }
    return out;
}

void
expectSameGrads(const std::vector<GradSnapshot> &got,
                const std::vector<GradSnapshot> &want,
                const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].allocated, want[i].allocated)
            << label << " leaf " << i;
        ASSERT_EQ(got[i].bits.size(), want[i].bits.size())
            << label << " leaf " << i;
        for (std::size_t j = 0; j < got[i].bits.size(); ++j) {
            ASSERT_EQ(got[i].bits[j], want[i].bits[j])
                << label << " leaf " << i << " element " << j;
        }
    }
}

TEST(EngineOracle, RandomDagsBitIdenticalAcrossThreadCounts)
{
    for (int gi = 0; gi < kNumGraphs; ++gi) {
        const std::uint64_t seed = 1000 + 17 * gi;

        RandomGraph ref = buildGraph(seed);
        ref.root.backward(ref.seed);
        const std::vector<GradSnapshot> want = snapshotGrads(ref);

        for (const int threads : kThreadCounts) {
            RandomGraph run = buildGraph(seed);
            BackwardEngine engine(EngineOptions{threads});
            engine.run(run.root, run.seed);
            expectSameGrads(snapshotGrads(run), want,
                            "graph " + std::to_string(gi) +
                                " threads " +
                                std::to_string(threads));
        }
    }
}

TEST(EngineOracle, UnusedLeavesStayUnallocated)
{
    // A leaf no consumer reaches must keep its grad unallocated under
    // every engine — allocation itself is observable (zeroGrad-free
    // optimizers skip unallocated grads).
    RandomGraph g = buildGraph(4242);
    BackwardEngine engine(EngineOptions{4});
    engine.run(g.root, g.seed);
    const Variable &unused_matrix = g.leaves[g.leaves.size() - 2];
    const Variable &unused_vector = g.leaves[g.leaves.size() - 1];
    EXPECT_EQ(unused_matrix.grad().numel(), 0);
    EXPECT_EQ(unused_vector.grad().numel(), 0);
}

TEST(EngineOracle, RepeatedRunsAccumulateLikeReference)
{
    // Micro-batch accumulation: two backward passes, each over its
    // own graph built on the same leaves, must add up to the same
    // bits in either engine.
    const std::uint64_t seed = 9001;
    RandomGraph ref = buildGraph(seed);
    ref.root.backward(ref.seed);
    RandomGraph ref_again = buildGraph(seed, &ref);
    ref_again.root.backward(ref_again.seed);
    const std::vector<GradSnapshot> want = snapshotGrads(ref);

    RandomGraph run = buildGraph(seed);
    BackwardEngine engine(EngineOptions{4});
    engine.run(run.root, run.seed);
    RandomGraph run_again = buildGraph(seed, &run);
    engine.run(run_again.root, run_again.seed);
    expectSameGrads(snapshotGrads(run), want, "double run");
}

TEST(EngineOracle, BackwardFreesEveryInteriorNodeButTheRoot)
{
    // Each interior value and gradient dies at its last backward
    // reader. Afterwards only the root and the leaves hold storage,
    // and the process meter counts exactly what they hold.
    for (int gi = 0; gi < kNumGraphs; ++gi) {
        const std::uint64_t seed = 1000 + 17 * gi;
        for (const int threads : kThreadCounts) {
            const std::string label = "graph " + std::to_string(gi) +
                                      " threads " +
                                      std::to_string(threads);
            const std::int64_t base = liveActivationFloats();
            RandomGraph g = buildGraph(seed);
            BackwardEngine engine(EngineOptions{threads});
            engine.run(g.root, g.seed);

            std::unordered_set<const Variable::Impl *> seen;
            std::vector<const Variable::Impl *> stack{
                g.root.impl().get()};
            seen.insert(stack.back());
            for (const Variable &leaf : g.leaves)
                seen.insert(leaf.impl().get());
            std::int64_t held = 0;
            for (const Variable::Impl *node : seen)
                held += node->value.numel() + node->grad.numel();
            while (!stack.empty()) {
                const Variable::Impl *node = stack.back();
                stack.pop_back();
                for (const auto &parent : node->parents) {
                    if (!parent || !seen.insert(parent.get()).second)
                        continue;
                    stack.push_back(parent.get());
                    ASSERT_FALSE(parent->isLeaf) << label;
                    EXPECT_EQ(parent->value.numel(), 0) << label;
                    EXPECT_EQ(parent->grad.numel(), 0) << label;
                    EXPECT_TRUE(parent->consumed) << label;
                }
            }
            EXPECT_GT(seen.size(), g.leaves.size() + 1) << label;
            EXPECT_FALSE(g.root.impl()->consumed) << label;
            EXPECT_TRUE(g.root.value().sameShape(g.seed)) << label;
            EXPECT_TRUE(g.root.grad().sameShape(g.seed)) << label;
            for (const Variable &leaf : g.leaves)
                EXPECT_GT(leaf.value().numel(), 0) << label;
            EXPECT_EQ(liveActivationFloats() - base, held) << label;
        }
    }
}

TEST(EngineOracleDeathTest, RerunningAConsumedGraphPanics)
{
    // A backward consumes its graph, like PyTorch's default
    // retain_graph=False: a second backward over it stops with a
    // diagnostic instead of reading freed storage, in either engine.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    RandomGraph ref = buildGraph(9001);
    ref.root.backward(ref.seed);
    EXPECT_DEATH(ref.root.backward(ref.seed), "consumed graph");

    RandomGraph run = buildGraph(9001);
    BackwardEngine engine(EngineOptions{4});
    engine.run(run.root, run.seed);
    EXPECT_DEATH(engine.run(run.root, run.seed), "consumed graph");
}

} // namespace
} // namespace adapipe
