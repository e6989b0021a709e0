/**
 * @file
 * Same-runner RNG speed guard: the house engine (Rng's Mt19937_64)
 * against std::mt19937_64, timed in one process on one machine.
 *
 *     check_rng_speed
 *
 * Draws 10M words from each engine, alternating three times, and
 * prints every round. Both engines start from the same seed, so the
 * XOR of their words must agree (the stream contract of
 * util/rng.hh). Exit status:
 *
 *   0  the streams agree and Rng's best round is at least 1.5x faster
 *      than std::mt19937_64's best round
 *   1  otherwise
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>

#include "util/rng.hh"

using namespace dosa;

namespace {

constexpr uint64_t kSeed = 1;
constexpr long kDraws = 10'000'000;
constexpr int kRounds = 3;
constexpr double kMinSpeedup = 1.5;

/** Seconds to draw kDraws words from `engine`; XOR of them in `acc`. */
template <class Engine>
double
timeDraws(Engine &engine, uint64_t &acc)
{
    auto t0 = std::chrono::steady_clock::now();
    uint64_t x = 0;
    for (long i = 0; i < kDraws; ++i)
        x ^= engine();
    auto t1 = std::chrono::steady_clock::now();
    acc = x;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    Rng rng(kSeed);
    std::mt19937_64 ref(kSeed);
    double best_rng = 1e300, best_ref = 1e300;
    bool same = true;
    for (int round = 0; round < kRounds; ++round) {
        uint64_t acc_rng = 0, acc_ref = 0;
        double t_rng = timeDraws(rng.engine(), acc_rng);
        double t_ref = timeDraws(ref, acc_ref);
        same = same && acc_rng == acc_ref;
        best_rng = std::min(best_rng, t_rng);
        best_ref = std::min(best_ref, t_ref);
        std::printf("round %d: Rng %.1f ms, std::mt19937_64 %.1f ms "
                    "(%ld words each)\n",
                round + 1, t_rng * 1e3, t_ref * 1e3, kDraws);
    }
    const double speedup = best_ref / best_rng;
    std::printf("best: Rng %.1f ms, std::mt19937_64 %.1f ms, %.2fx "
                "(required %.2fx)\n",
            best_rng * 1e3, best_ref * 1e3, speedup, kMinSpeedup);
    if (!same) {
        std::printf("FAIL: Rng's words differ from std::mt19937_64's\n");
        return 1;
    }
    if (speedup < kMinSpeedup) {
        std::printf("FAIL: Rng is under %.2fx faster\n", kMinSpeedup);
        return 1;
    }
    return 0;
}
