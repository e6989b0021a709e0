/**
 * @file
 * Unit tests of the benchmark's measurement rules (src/stats.hh): the
 * tail-percentile rule, open-loop timing from the due time, the
 * matched-index EDP ratio and failure accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats.hh"

using namespace e2e;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond)
{
    // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
    Tail t = tailPercentile(oneTo(1000));
    EXPECT_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.n, 1000u);

    // 10000 samples: p99.9 leaves 10 beyond.
    Tail big = tailPercentile(oneTo(10000));
    EXPECT_EQ(big.percentile, 99.9);
    EXPECT_EQ(big.beyond, 10u);
}

TEST(TailPercentile, FallsBackAndStatesTheCount)
{
    // 999 samples: p99 would leave 9 beyond, so p95 (50 beyond).
    Tail t = tailPercentile(oneTo(999));
    EXPECT_EQ(t.percentile, 95.0);
    EXPECT_EQ(t.beyond, samplesBeyond(999, 95.0));
    EXPECT_GE(t.beyond, 10u);

    // 40 samples: p75 leaves exactly 10.
    EXPECT_EQ(tailPercentile(oneTo(40)).percentile, 75.0);
    // 20 samples: only the median qualifies.
    EXPECT_EQ(tailPercentile(oneTo(20)).percentile, 50.0);
    // 19 samples: nothing qualifies; the result says so.
    Tail none = tailPercentile(oneTo(19));
    EXPECT_EQ(none.percentile, 0.0);
    EXPECT_EQ(none.n, 19u);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter)
{
    std::vector<double> v = oneTo(200);
    std::vector<double> r(v.rbegin(), v.rend());
    EXPECT_EQ(tailPercentile(v).value, tailPercentile(r).value);
    EXPECT_EQ(median(v), 100.5);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(OpenLoop, DueTimesFollowTheRate)
{
    EXPECT_EQ(dueNs(1000, 10.0, 0), 1000);
    EXPECT_EQ(dueNs(1000, 10.0, 3), 1000 + 300000000);
    EXPECT_EQ(dueNs(0, 3.0, 1), 333333333);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime)
{
    // Sent on time: latency is due -> done.
    RequestTiming on_time{1000000, 1000000, 6000000};
    EXPECT_DOUBLE_EQ(on_time.latencyMs(), 5.0);
    EXPECT_DOUBLE_EQ(on_time.lagMs(), 0.0);

    // The generator stalled 20 ms before sending: the stall is charged
    // to the request (latency 25 ms, not the 5 ms the server took)
    // and reported as lag.
    RequestTiming stalled{1000000, 21000000, 26000000};
    EXPECT_DOUBLE_EQ(stalled.latencyMs(), 25.0);
    EXPECT_DOUBLE_EQ(stalled.lagMs(), 20.0);
}

TEST(OpenLoop, AStallDelaysEveryLaterRequestItHeldBack)
{
    // Rate 100/s: due every 10 ms. A 35 ms stall before request 1
    // makes requests 1..4 leave together at 45 ms; each is served in
    // 2 ms. Latency from due grows with how long each was held back.
    const double rate = 100.0;
    std::vector<double> latency, lag;
    for (size_t k = 0; k < 6; ++k) {
        int64_t due = dueNs(0, rate, k);
        int64_t sent = k >= 1 && k <= 4 ? 45000000 : due;
        RequestTiming t{due, sent, sent + 2000000};
        latency.push_back(t.latencyMs());
        lag.push_back(t.lagMs());
    }
    EXPECT_DOUBLE_EQ(latency[0], 2.0);
    EXPECT_DOUBLE_EQ(latency[1], 37.0);
    EXPECT_DOUBLE_EQ(latency[4], 7.0);
    EXPECT_DOUBLE_EQ(latency[5], 2.0);
    EXPECT_DOUBLE_EQ(lag[1], 35.0);
    EXPECT_DOUBLE_EQ(lag[5], 0.0);
}

TEST(MatchedRatio, ComparesBestSoFarAtTheSameSample)
{
    std::vector<double> baseline = {10.0, 8.0, 8.0, 4.0};
    std::vector<double> dosa = {20.0, 5.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(matchedRatio(baseline, dosa, 0), 0.5);
    EXPECT_DOUBLE_EQ(matchedRatio(baseline, dosa, 1), 1.6);
    EXPECT_DOUBLE_EQ(matchedRatio(baseline, dosa, 3), 4.0);
}

TEST(MatchedRatio, ShortTraceIsNotClampedToItsEnd)
{
    // A baseline that stopped at 2 samples has no value at index 3;
    // the old clamp-to-end rule would have compared 8 against 1.
    std::vector<double> baseline = {10.0, 8.0};
    std::vector<double> dosa = {20.0, 5.0, 2.0, 1.0};
    EXPECT_TRUE(std::isnan(matchedRatio(baseline, dosa, 3)));
    EXPECT_TRUE(std::isnan(bestAt(dosa, 4)));
    EXPECT_DOUBLE_EQ(bestAt(dosa, 3), 1.0);
}

TEST(MatchedRatio, GeomeanOverNets)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Tally, CountsEveryCheckAndEveryFailure)
{
    Tally t;
    EXPECT_FALSE(t.correct()); // nothing attempted is not a pass
    EXPECT_TRUE(t.check(true, "a"));
    EXPECT_TRUE(t.correct());
    EXPECT_FALSE(t.check(false, "b failed"));
    EXPECT_TRUE(t.check(true, "c"));
    EXPECT_EQ(t.attempted(), 3u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_FALSE(t.correct());
    ASSERT_EQ(t.messages().size(), 1u);
    EXPECT_EQ(t.messages()[0], "b failed");
}

TEST(Tally, KeepsOnlyTheFirstMessagesButCountsAll)
{
    Tally t;
    for (int i = 0; i < 20; ++i)
        t.check(false, "f" + std::to_string(i));
    EXPECT_EQ(t.failed(), 20u);
    EXPECT_EQ(t.messages().size(), 8u);
    EXPECT_EQ(t.messages().front(), "f0");
}
