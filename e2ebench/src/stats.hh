/**
 * @file
 * The benchmark's pure measurement rules, kept free of the dosa
 * library so the unit tests in ../tests pin them on their own:
 *
 *   - the tail-percentile rule: report the highest percentile that
 *     still has at least ten samples beyond it, with its count;
 *   - open-loop timing: a request is timed from when it was *due*,
 *     so a generator stall is charged to the requests it delayed;
 *   - the matched-index EDP ratio between two best-so-far traces;
 *   - failure accounting against the number of attempted checks.
 */

#ifndef E2EBENCH_STATS_HH
#define E2EBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Median (mean of the middle pair for even n); 0 for no samples. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/** 1-based nearest rank of percentile `p` among `n` samples (the
 *  epsilon keeps e.g. 99.9% of 10000 at rank 9990). */
inline size_t
rankOf(size_t n, double p)
{
    double rank = std::ceil(p * double(n) / 100.0 - 1e-9);
    return std::min(n, size_t(std::max(rank, 1.0)));
}

/** Nearest-rank percentile `p` in (0, 100] of `v`; 0 when empty. */
inline double
nearestRank(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[rankOf(v.size(), p) - 1];
}

/** A tail percentile together with the evidence behind it. */
struct Tail
{
    double percentile = 0.0; ///< e.g. 99 for p99; 0 = none qualifies
    double value = 0.0;      ///< the sample at that nearest rank
    size_t beyond = 0;       ///< samples strictly above its rank
    size_t n = 0;            ///< samples in total
};

/** Samples beyond the nearest rank of percentile `p` among `n`. */
inline size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - rankOf(n, p);
}

/**
 * The highest of the candidate percentiles (99.9, 99, 95, 90, 75,
 * 50) that leaves at least `min_beyond` samples above its rank. With
 * fewer than 2 * min_beyond samples not even the median qualifies
 * and the result has percentile 0.
 */
inline Tail
tailPercentile(const std::vector<double> &v, size_t min_beyond = 10)
{
    static constexpr double kCandidates[] = {99.9, 99, 95, 90, 75, 50};
    Tail t;
    t.n = v.size();
    for (double p : kCandidates) {
        size_t beyond = samplesBeyond(v.size(), p);
        if (beyond >= min_beyond) {
            t.percentile = p;
            t.value = nearestRank(v, p);
            t.beyond = beyond;
            return t;
        }
    }
    return t;
}

/** Geometric mean of positive values; 0 for no values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

/**
 * Open-loop schedule: request k of a constant-rate stream is due at
 * start + k / rate. Times are nanoseconds on one monotonic clock.
 */
inline int64_t
dueNs(int64_t start_ns, double rate_per_s, size_t k)
{
    return start_ns + int64_t(std::llround(double(k) * 1e9 / rate_per_s));
}

/** One open-loop request's timestamps (ns, one monotonic clock). */
struct RequestTiming
{
    int64_t due_ns = 0;  ///< when the schedule wanted it sent
    int64_t sent_ns = 0; ///< when the generator actually sent it
    int64_t done_ns = 0; ///< when its terminal reply arrived

    /** Latency charged to the system: from due, not from sent. */
    double latencyMs() const { return double(done_ns - due_ns) * 1e-6; }

    /** How late the generator ran for this request (>= 0). */
    double lagMs() const
    {
        return double(std::max<int64_t>(0, sent_ns - due_ns)) * 1e-6;
    }
};

/**
 * Best-so-far EDP of a trace at a 0-based sample index. Traces hold
 * best-so-far values, so this is the entry itself; an index past the
 * end is not clamped — it returns NaN, and the caller counts a
 * failure (a ratio at a sample the run never reached is not a
 * matched-budget comparison).
 */
inline double
bestAt(const std::vector<double> &trace, size_t index)
{
    if (index >= trace.size())
        return std::nan("");
    return trace[index];
}

/**
 * Baseline best EDP over DOSA best EDP, both taken at the same
 * sample `index` (> 1 means DOSA found the better design by then).
 */
inline double
matchedRatio(const std::vector<double> &baseline,
             const std::vector<double> &dosa, size_t index)
{
    return bestAt(baseline, index) / bestAt(dosa, index);
}

/**
 * Failure accounting: every output check is one attempted operation,
 * and a check that does not hold is one failed operation. The first
 * few failure messages are kept for the report.
 */
class Tally
{
  public:
    /** Record one check; returns `ok` so callers can branch on it. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (messages_.size() < kMaxMessages)
                messages_.push_back(what);
        }
        return ok;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    static constexpr size_t kMaxMessages = 8;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

} // namespace e2e

#endif // E2EBENCH_STATS_HH
