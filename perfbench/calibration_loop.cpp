#include <cstddef>
#include <vector>

#include "host_speed.h"

namespace perfbench {

/*
 * A knapsack-style DP over doubles with a bit matrix of choices, then
 * a small float matmul: the first is scalar and branchy like the
 * planner's knapsack, the second vectorised like the training kernels.
 */
double
calibrationPass()
{
    constexpr std::size_t kCap = 16384;
    constexpr std::size_t kItems = 64;
    std::vector<double> dp(kCap + 1, 0.0);
    std::vector<std::vector<bool>> choice(
        kItems, std::vector<bool>(kCap + 1, false));
    for (std::size_t k = 0; k < kItems; ++k) {
        const std::size_t cost = 37 + k * 131 % 997;
        const double value = 1.0 + 0.37 * static_cast<double>(k % 11);
        for (std::size_t m = kCap; m >= cost; --m) {
            const double candidate = dp[m - cost] + value;
            if (candidate > dp[m]) {
                dp[m] = candidate;
                choice[k][m] = true;
            }
        }
    }
    constexpr int kDim = 64;
    std::vector<float> a(kDim * kDim, 1.01f), b(kDim * kDim, 0.99f),
        c(kDim * kDim, 0.0f);
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < kDim; ++i) {
            for (int k = 0; k < kDim; ++k) {
                const float x = a[i * kDim + k];
                for (int j = 0; j < kDim; ++j)
                    c[i * kDim + j] += x * b[k * kDim + j];
            }
        }
    }
    return dp.back() + (choice.back()[kCap] ? 1 : 0) + c[kDim + 1];
}

} // namespace perfbench
