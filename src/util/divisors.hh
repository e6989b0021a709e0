/**
 * @file
 * Divisor arithmetic used by mapping construction and rounding.
 *
 * Tiling factors of a loop dimension must multiply exactly to the problem
 * size, so every factor manipulation in the mapspace reduces to divisor
 * queries on (usually small) integers. Results are memoized because the
 * same dimension sizes recur across thousands of mapping evaluations.
 */

#ifndef DOSA_UTIL_DIVISORS_HH
#define DOSA_UTIL_DIVISORS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace dosa {

class Rng;

/**
 * Return the sorted list of positive divisors of n (n >= 1). Memoized;
 * a memo hit takes no lock and writes no shared cache line, and the
 * returned reference stays valid for the life of the process.
 */
const std::vector<int64_t> &divisorsOf(int64_t n);

/** Live hit/miss/entry counts of the divisor memo behind divisorsOf.
 *  Every divisorsOf call counts exactly once, as a hit or a miss; the
 *  counts are exact once the calling threads have been joined.
 *  Also published into the global metrics registry (obs/metrics.hh)
 *  as the `divisors.memo_*` counters via a snapshot collector. */
struct DivisorMemoStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
};
DivisorMemoStats divisorMemoStats();

/**
 * Return the divisor of n closest to target.
 *
 * Ties are broken toward the smaller divisor, matching the paper's
 * "round to the nearest divisor" step (Section 5.3.2).
 */
int64_t nearestDivisor(int64_t n, double target);

/**
 * Return the divisor of n closest to target among divisors <= cap.
 * cap must be >= 1.
 */
int64_t nearestDivisorAtMost(int64_t n, double target, int64_t cap);

/** Largest divisor of n that is <= cap (cap >= 1). */
int64_t largestDivisorAtMost(int64_t n, int64_t cap);

/**
 * Split n into `parts` integer factors whose product is exactly n,
 * drawn uniformly-ish at random by repeatedly sampling a divisor of the
 * remaining quota. Used by random-mapping generation.
 */
std::vector<int64_t> randomFactorSplit(int64_t n, int parts, Rng &rng);

/**
 * As above, into caller storage: out.size() parts, with the same RNG
 * draws (same order, same bounds) and the same factors. Allocates
 * nothing and looks up the divisors of n once.
 */
void randomFactorSplit(int64_t n, std::span<int64_t> out, Rng &rng);

/**
 * Divisor-quota chain over one dimension size: rounding walks a chain
 * remaining -> remaining / f1 -> ... where every intermediate value
 * divides the original n. Since divisors(remaining) is a subset of
 * divisors(n), the whole chain is served from the single memoized
 * divisor list of n, grabbed once at construction — one memo lookup
 * per dimension instead of one per factor.
 */
class DivisorQuota
{
  public:
    /** Start a chain at n (n >= 1). */
    explicit DivisorQuota(int64_t n);

    /** Quota still to be factored. */
    int64_t remaining() const { return remaining_; }

    /**
     * Take the divisor of remaining() nearest to `target` (ties to
     * the smaller, matching nearestDivisor) and divide it out.
     */
    int64_t take(double target);

    /** As take(), restricted to divisors <= cap (cap >= 1). */
    int64_t takeAtMost(double target, int64_t cap);

  private:
    /** Memoized divisor list of the original n (never mutated). */
    const std::vector<int64_t> *divs_;
    int64_t remaining_;
};

} // namespace dosa

#endif // DOSA_UTIL_DIVISORS_HH
