/**
 * @file
 * Memoized divisor queries for mapping construction and rounding.
 */
#include "util/divisors.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_annotations.hh"

namespace dosa {

namespace {

std::vector<int64_t>
computeDivisors(int64_t n)
{
    std::vector<int64_t> lo, hi;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            lo.push_back(d);
            if (d != n / d)
                hi.push_back(n / d);
        }
    }
    lo.insert(lo.end(), hi.rbegin(), hi.rend());
    return lo;
}

class DivisorMemo;
DivisorMemo &divisorMemo();

/**
 * Divisor memo with a lock-free read path. Lists live in immutable
 * nodes chained off a fixed bucket array; a node is published with a
 * release store of its bucket head and is never changed or freed
 * (the memo itself is never destroyed), so a hit is a few acquire
 * loads and the reference it returns stays valid forever. Only a miss takes `insert_mtx_`,
 * which serializes publication.
 *
 * Counting: each call counts once, as a hit or a miss. A miss adds
 * an entry under the insert lock. Hits go to the calling thread's own
 * cache-line-sized slot, written only by that thread with relaxed
 * load+store (no read-modify-write), so a hit writes no shared cache
 * line. A thread's exit hands its slot, count intact, to the next new
 * thread, so the sum over slots stays exact. stats() sums relaxed
 * loads; the sum is exact once the counting threads have been joined
 * (or their tasks waited for), and a lower bound before that.
 */
class DivisorMemo
{
  public:
    const std::vector<int64_t> &
    get(int64_t n)
    {
        std::atomic<const Node *> &head = bucket(n);
        if (const Node *hit = find(head, n)) {
            countHit();
            return hit->divs;
        }
        util::MutexLock lock(insert_mtx_);
        // Another thread may have published n since the probe.
        if (const Node *hit = find(head, n)) {
            countHit();
            return hit->divs;
        }
        entries_++;
        // Owned by the (immortal) memo through its bucket chain.
        const Node *node = new Node{n, computeDivisors(n),
                head.load(std::memory_order_relaxed)};
        head.store(node, std::memory_order_release);
        return node->divs;
    }

    DivisorMemoStats
    stats()
    {
        DivisorMemoStats s;
        {
            util::MutexLock lock(insert_mtx_);
            // Entries are never erased: one per miss.
            s.misses = s.entries = entries_;
        }
        util::MutexLock lock(slots_mtx_);
        for (const auto &slot : slots_)
            s.hits += slot->hits.load(std::memory_order_relaxed);
        return s;
    }

  private:
    struct Node
    {
        int64_t n;
        std::vector<int64_t> divs;
        const Node *next;
    };

    /** One thread's hit count, alone on its cache line. */
    struct alignas(64) HitSlot
    {
        std::atomic<uint64_t> hits{0};
        bool in_use = true; ///< guarded by slots_mtx_
    };

    /** Binds the calling thread to a slot; returns it at thread exit. */
    struct ThreadSlot
    {
        HitSlot *slot = nullptr;

        ThreadSlot() = default;
        ThreadSlot(const ThreadSlot &) = delete;
        ThreadSlot &operator=(const ThreadSlot &) = delete;

        ~ThreadSlot()
        {
            if (slot)
                divisorMemo().releaseSlot(slot);
        }
    };

    static constexpr size_t kBucketBits = 12;

    std::atomic<const Node *> &
    bucket(int64_t n)
    {
        // Mix before taking bits: DNN sizes are mostly multiples of
        // powers of two, whose raw low bits would share buckets.
        uint64_t h = static_cast<uint64_t>(n) * 0xbf58476d1ce4e5b9ull;
        return buckets_[h >> (64 - kBucketBits)];
    }

    static const Node *
    find(const std::atomic<const Node *> &head, int64_t n)
    {
        for (const Node *p = head.load(std::memory_order_acquire); p;
             p = p->next)
            if (p->n == n)
                return p;
        return nullptr;
    }

    void
    countHit()
    {
        static thread_local ThreadSlot mine;
        if (!mine.slot)
            mine.slot = acquireSlot();
        std::atomic<uint64_t> &hits = mine.slot->hits;
        hits.store(hits.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    HitSlot *
    acquireSlot()
    {
        util::MutexLock lock(slots_mtx_);
        for (const auto &slot : slots_) {
            if (!slot->in_use) {
                slot->in_use = true;
                return slot.get();
            }
        }
        slots_.push_back(std::make_unique<HitSlot>());
        return slots_.back().get();
    }

    void
    releaseSlot(HitSlot *slot)
    {
        util::MutexLock lock(slots_mtx_);
        slot->in_use = false;
    }

    std::array<std::atomic<const Node *>, size_t(1) << kBucketBits>
            buckets_{};

    util::Mutex insert_mtx_;
    uint64_t entries_ GUARDED_BY(insert_mtx_) = 0;

    util::Mutex slots_mtx_;
    std::vector<std::unique_ptr<HitSlot>> slots_ GUARDED_BY(slots_mtx_);
};

DivisorMemo &
divisorMemo()
{
    // Never destroyed: pool threads that outlive static destruction
    // still return their hit slots at exit.
    static DivisorMemo &memo = *new DivisorMemo;
    // One-time hookup of the memo's live counters into metrics
    // snapshots (the memo itself stays push-free on its hot path).
    static const bool registered = [] {
        obs::globalMetrics().registerCollector(
            [](obs::MetricsSnapshot &snap) {
                DivisorMemoStats s = divisorMemoStats();
                snap.counters["divisors.memo_hits"] = s.hits;
                snap.counters["divisors.memo_misses"] = s.misses;
                snap.gauges["divisors.memo_entries"] =
                    static_cast<int64_t>(s.entries);
            });
        return true;
    }();
    (void)registered;
    return memo;
}

} // namespace

const std::vector<int64_t> &
divisorsOf(int64_t n)
{
    if (n < 1)
        panic("divisorsOf: n must be >= 1");
    return divisorMemo().get(n);
}

DivisorMemoStats
divisorMemoStats()
{
    return divisorMemo().stats();
}

int64_t
nearestDivisor(int64_t n, double target)
{
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : divs) {
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    return best;
}

int64_t
nearestDivisorAtMost(int64_t n, double target, int64_t cap)
{
    if (cap < 1)
        panic("nearestDivisorAtMost: cap must be >= 1");
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : divs) {
        if (d > cap)
            break;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    return best;
}

int64_t
largestDivisorAtMost(int64_t n, int64_t cap)
{
    if (cap < 1)
        panic("largestDivisorAtMost: cap must be >= 1");
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    for (int64_t d : divs) {
        if (d > cap)
            break;
        best = d;
    }
    return best;
}

DivisorQuota::DivisorQuota(int64_t n)
    : divs_(&divisorsOf(n)), remaining_(n)
{
}

int64_t
DivisorQuota::take(double target)
{
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : *divs_) {
        if (remaining_ % d != 0)
            continue;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    remaining_ /= best;
    return best;
}

int64_t
DivisorQuota::takeAtMost(double target, int64_t cap)
{
    if (cap < 1)
        panic("DivisorQuota::takeAtMost: cap must be >= 1");
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : *divs_) {
        if (d > cap)
            break;
        if (remaining_ % d != 0)
            continue;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    remaining_ /= best;
    return best;
}

void
randomFactorSplit(int64_t n, std::span<int64_t> out, Rng &rng)
{
    if (out.empty())
        return;
    // Every quota in the chain divides n, so divisors(remaining) is
    // the subsequence of divisors(n) that divides remaining: draw an
    // index into it by counting, instead of one lookup per part.
    const auto &divs = divisorsOf(n);
    int64_t remaining = n;
    for (size_t i = 0; i + 1 < out.size(); ++i) {
        int64_t pick = remaining;
        if (remaining == n) {
            pick = divs[static_cast<size_t>(rng.uniformInt(0,
                    static_cast<int64_t>(divs.size()) - 1))];
        } else {
            int64_t count = 0;
            for (int64_t d : divs) {
                if (d > remaining)
                    break;
                count += remaining % d == 0;
            }
            int64_t k = rng.uniformInt(0, count - 1);
            for (int64_t d : divs) {
                if (remaining % d != 0)
                    continue;
                if (k == 0) {
                    pick = d;
                    break;
                }
                --k;
            }
        }
        out[i] = pick;
        remaining /= pick;
    }
    out.back() = remaining;
}

std::vector<int64_t>
randomFactorSplit(int64_t n, int parts, Rng &rng)
{
    std::vector<int64_t> out(static_cast<size_t>(parts), 1);
    randomFactorSplit(n, out, rng);
    return out;
}

} // namespace dosa
