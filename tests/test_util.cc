/**
 * @file
 * Unit tests for util: RNG determinism and ranges, divisor arithmetic,
 * table/CSV rendering and CLI parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/cli.hh"
#include "util/divisors.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace dosa {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, LogUniformRangeAndSpread)
{
    Rng rng(11);
    int low_decade = 0;
    for (int i = 0; i < 2000; ++i) {
        double v = rng.logUniform(1.0, 1000.0);
        ASSERT_GE(v, 1.0);
        ASSERT_LE(v, 1000.0);
        if (v < 10.0)
            ++low_decade;
    }
    // Log-uniform: each decade gets ~1/3 of the mass.
    EXPECT_GT(low_decade, 450);
    EXPECT_LT(low_decade, 900);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(1.0, 2.0);
        sum += v;
        sum2 += v * v;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(5);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (parent.uniformInt(0, 1 << 30) ==
            child.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(3);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

// ---- Rng's engine against std::mt19937_64 (the stream contract in
//      util/rng.hh). Goldens and generated benchmark inputs are pinned
//      to this stream, so any drift must fail here first, by name.

/** Words per engine refill; the checks below span several. */
constexpr size_t kRefill = 312;
constexpr size_t kPinWords = 4 * kRefill + 52; // 1300

/** The seed Rng::stream(seed, id) hands the engine (rng.cc). */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
streamSeed(uint64_t seed, uint64_t id)
{
    return splitmix64(splitmix64(seed) ^ splitmix64(~id));
}

TEST(RngStream, EngineTypeMatchesStdMt19937_64)
{
    static_assert(std::is_same_v<Mt19937_64::result_type,
            std::mt19937_64::result_type>);
    static_assert(Mt19937_64::min() == std::mt19937_64::min());
    static_assert(Mt19937_64::max() == std::mt19937_64::max());
}

TEST(RngStream, WordsMatchStdMt19937_64)
{
    for (uint64_t seed : {uint64_t(0), uint64_t(1), uint64_t(5489),
                          std::numeric_limits<uint64_t>::max()}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (size_t i = 0; i < kPinWords; ++i)
            ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed
                                             << " word " << i;
    }
    for (uint64_t seed : {uint64_t(1), uint64_t(7)}) {
        for (uint64_t id : {uint64_t(0), uint64_t(1), uint64_t(1000)}) {
            Rng rng = Rng::stream(seed, id);
            std::mt19937_64 ref(streamSeed(seed, id));
            for (size_t i = 0; i < kPinWords; ++i)
                ASSERT_EQ(rng.engine()(), ref())
                        << "stream (" << seed << ", " << id << ") word "
                        << i;
        }
    }
}

TEST(RngStream, DrawsMatchStdDistributionsAcrossRefills)
{
    // Every Rng draw interleaved, as the searchers mix them, against
    // the same std:: distributions on std::mt19937_64. The loop crosses
    // many refills at varying offsets.
    Rng rng(5489);
    std::mt19937_64 ref(5489);
    auto refInt = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(ref);
    };
    auto refReal = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(ref);
    };
    for (int i = 0; i < 600; ++i) {
        ASSERT_EQ(rng.uniformInt(0, 6), refInt(0, 6)) << i;
        ASSERT_EQ(rng.uniformInt(-3, int64_t(1) << 40),
                refInt(-3, int64_t(1) << 40)) << i;
        ASSERT_EQ(rng.uniformInt(std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()),
                refInt(std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max())) << i;
        ASSERT_EQ(rng.uniformReal(-2.0, 3.0), refReal(-2.0, 3.0)) << i;
        ASSERT_EQ(rng.gaussian(1.0, 2.0),
                std::normal_distribution<double>(1.0, 2.0)(ref)) << i;
        ASSERT_EQ(rng.bernoulli(0.3),
                std::bernoulli_distribution(0.3)(ref)) << i;
        ASSERT_EQ(rng.logUniform(1.0, 1000.0),
                std::exp(refReal(std::log(1.0), std::log(1000.0)))) << i;
    }

    std::vector<int> v(50), w(50);
    for (int i = 0; i < 50; ++i)
        v[size_t(i)] = w[size_t(i)] = i;
    rng.shuffle(v);
    for (size_t i = w.size(); i > 1; --i)
        std::swap(w[i - 1], w[size_t(refInt(0, int64_t(i) - 1))]);
    EXPECT_EQ(v, w);
}

TEST(RngStream, ForkAndMidBufferCopyMatchStdMt19937_64)
{
    Rng rng(1);
    std::mt19937_64 ref(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(rng.engine()(), ref());

    // fork(): two parent words seed the child.
    Rng child = rng.fork();
    uint64_t a = ref(), b = ref();
    std::mt19937_64 ref_child(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ull);
    for (size_t i = 0; i < kPinWords; ++i)
        ASSERT_EQ(child.engine()(), ref_child()) << "child word " << i;

    // A copy taken mid-buffer continues the stream on its own, and
    // the original is unaffected by the copy's draws.
    Rng copy = rng;
    std::mt19937_64 ref_copy = ref;
    for (size_t i = 0; i < kPinWords; ++i)
        ASSERT_EQ(copy.engine()(), ref_copy()) << "copy word " << i;
    for (size_t i = 0; i < kPinWords; ++i)
        ASSERT_EQ(rng.engine()(), ref()) << "parent word " << i;
}

TEST(Divisors, KnownLists)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(56),
              (std::vector<int64_t>{1, 2, 4, 7, 8, 14, 28, 56}));
    EXPECT_EQ(divisorsOf(97), (std::vector<int64_t>{1, 97}));
}

class DivisorProperty : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(DivisorProperty, AllDivideAndSorted)
{
    int64_t n = GetParam();
    const auto &divs = divisorsOf(n);
    ASSERT_FALSE(divs.empty());
    EXPECT_EQ(divs.front(), 1);
    EXPECT_EQ(divs.back(), n);
    for (size_t i = 0; i < divs.size(); ++i) {
        EXPECT_EQ(n % divs[i], 0);
        if (i > 0) {
            EXPECT_LT(divs[i - 1], divs[i]);
        }
    }
}

TEST_P(DivisorProperty, NearestDivisorIsOptimal)
{
    int64_t n = GetParam();
    for (double target : {0.3, 1.0, 2.5, 7.0, 33.3,
                          static_cast<double>(n)}) {
        int64_t best = nearestDivisor(n, target);
        EXPECT_EQ(n % best, 0);
        for (int64_t d : divisorsOf(n))
            EXPECT_LE(std::abs(target - double(best)),
                      std::abs(target - double(d)) + 1e-12);
    }
}

TEST_P(DivisorProperty, NearestAtMostRespectsCap)
{
    int64_t n = GetParam();
    for (int64_t cap : {int64_t(1), int64_t(4), int64_t(10), n}) {
        int64_t d = nearestDivisorAtMost(n, 1e9, cap);
        EXPECT_LE(d, cap);
        EXPECT_EQ(n % d, 0);
        EXPECT_EQ(d, largestDivisorAtMost(n, cap));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DivisorProperty,
        ::testing::Values(1, 2, 3, 7, 12, 56, 64, 96, 100, 112, 224,
                          1000, 1024, 3072, 5124));

TEST(Divisors, QuotaChainMatchesPerCallQueries)
{
    // DivisorQuota serves a whole chain from one memoized list; its
    // takes must equal the per-call nearestDivisor* results on the
    // running remainder, and the chain must multiply back to n.
    for (int64_t n : {int64_t(1), int64_t(12), int64_t(56),
                      int64_t(224), int64_t(3072), int64_t(5124)}) {
        const double targets[] = {3.0, 2.5, 16.0, 1.0};
        DivisorQuota quota(n);
        int64_t remaining = n;
        int64_t prod = 1;
        for (double t : targets) {
            int64_t expect = nearestDivisor(remaining, t);
            int64_t got = quota.take(t);
            EXPECT_EQ(got, expect) << "n=" << n << " t=" << t;
            remaining /= expect;
            prod *= got;
        }
        EXPECT_EQ(quota.remaining(), remaining);
        EXPECT_EQ(prod * quota.remaining(), n);
    }
}

TEST(Divisors, QuotaTakeAtMostMatchesPerCallQueries)
{
    for (int64_t n : {int64_t(96), int64_t(1024), int64_t(5124)}) {
        DivisorQuota quota(n);
        int64_t remaining = n;
        for (int64_t cap : {int64_t(4), int64_t(16), int64_t(2)}) {
            int64_t expect = nearestDivisorAtMost(remaining, 1e9, cap);
            int64_t got = quota.takeAtMost(1e9, cap);
            EXPECT_EQ(got, expect) << "n=" << n << " cap=" << cap;
            remaining /= expect;
        }
        EXPECT_EQ(quota.remaining(), remaining);
    }
}

TEST(Divisors, RandomFactorSplitMultipliesBack)
{
    Rng rng(17);
    for (int64_t n : {1, 6, 56, 64, 720, 1024}) {
        for (int parts : {1, 2, 3, 4, 6}) {
            auto split = randomFactorSplit(n, parts, rng);
            ASSERT_EQ(static_cast<int>(split.size()), parts);
            int64_t prod = 1;
            for (int64_t f : split) {
                EXPECT_GE(f, 1);
                prod *= f;
            }
            EXPECT_EQ(prod, n);
        }
    }
}

TEST(Divisors, RandomFactorSplitDrawsLikeCountingInTheListOfN)
{
    // Reference: part by part, count the divisors of the quota in
    // divisorsOf(n) and draw an index among them. The split must make
    // the same draws (same bounds, same order) and pick the same
    // factors. 735134400 (1344 divisors) is a highly composite size.
    for (int64_t n : {int64_t(1), int64_t(7), int64_t(64), int64_t(720),
                      int64_t(3072), int64_t(5124),
                      int64_t(735134400)}) {
        const std::vector<int64_t> &divs = divisorsOf(n);
        for (int parts : {1, 2, 4, 7}) {
            Rng rng(uint64_t(n) * 31 + uint64_t(parts));
            Rng ref(uint64_t(n) * 31 + uint64_t(parts));
            for (int rep = 0; rep < 20; ++rep) {
                std::vector<int64_t> got = randomFactorSplit(n, parts,
                        rng);
                std::vector<int64_t> want(size_t(parts), 1);
                int64_t remaining = n;
                for (size_t p = 0; p + 1 < want.size(); ++p) {
                    std::vector<int64_t> cands;
                    for (int64_t d : divs)
                        if (remaining % d == 0)
                            cands.push_back(d);
                    want[p] = cands[size_t(ref.uniformInt(0,
                            int64_t(cands.size()) - 1))];
                    remaining /= want[p];
                }
                want.back() = remaining;
                ASSERT_EQ(got, want) << "n=" << n << " parts=" << parts;
            }
            EXPECT_EQ(rng.engine()(), ref.engine()())
                    << "draw count n=" << n << " parts=" << parts;
        }
    }
}

TEST(Divisors, ConcurrentReadsShareOneListAndCountExactly)
{
    // Sizes no other test touches (so first lookups race to insert)
    // plus DNN-typical ones that are likely memoized already.
    std::vector<int64_t> sizes;
    for (int64_t i = 0; i < 96; ++i)
        sizes.push_back(1000003 + 2 * i);
    for (int64_t n : {1, 12, 56, 64, 1024, 3072})
        sizes.push_back(n);
    std::vector<std::vector<int64_t>> expect;
    for (int64_t n : sizes) {
        std::vector<int64_t> divs;
        for (int64_t d = 1; d * d <= n; ++d)
            if (n % d == 0)
                divs.push_back(d);
        for (size_t i = divs.size(); i-- > 0;)
            if (divs[i] * divs[i] != n)
                divs.push_back(n / divs[i]);
        expect.push_back(divs);
    }

    constexpr int kThreads = 4;
    constexpr int kRounds = 50;
    const DivisorMemoStats before = divisorMemoStats();
    std::vector<std::vector<const std::vector<int64_t> *>> seen(
            kThreads, std::vector<const std::vector<int64_t> *>(
                              sizes.size(), nullptr));
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread starts at a different offset, so the
            // threads overlap on every size in a different order.
            for (int r = 0; r < kRounds; ++r) {
                for (size_t j = 0; j < sizes.size(); ++j) {
                    size_t i = (j + size_t(t) * 25) % sizes.size();
                    const auto *got = &divisorsOf(sizes[i]);
                    if (!seen[t][i])
                        seen[t][i] = got;
                    bad[t] += got != seen[t][i];
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    const DivisorMemoStats after = divisorMemoStats();

    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(bad[t], 0) << "thread " << t;
        for (size_t i = 0; i < sizes.size(); ++i) {
            EXPECT_EQ(seen[t][i], seen[0][i]) << "n=" << sizes[i];
            EXPECT_EQ(*seen[t][i], expect[i]) << "n=" << sizes[i];
        }
    }
    // The same reference on a later call from this thread.
    EXPECT_EQ(&divisorsOf(sizes[0]), seen[0][0]);
    const uint64_t calls = uint64_t(kThreads) * kRounds * sizes.size();
    EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            calls);
    // Each new size is computed once, however the first calls race.
    EXPECT_LE(after.misses - before.misses, sizes.size());
}

TEST(Table, RendersAlignedColumns)
{
    TablePrinter tp({"name", "value"});
    tp.addRow({"alpha", "1"});
    tp.addRow({"b", "22222"});
    std::string out = tp.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvRoundTrip)
{
    TablePrinter tp({"a", "b"});
    tp.addRow({"1", "2"});
    tp.addRow({"3", "4"});
    std::string path = "/tmp/dosa_test_table.csv";
    ASSERT_TRUE(tp.writeCsv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtSci(12345.0, 2), "1.23e+04");
}

TEST(Cli, ParsesFlagsAndPositional)
{
    const char *argv[] = {"prog", "--full", "--seed", "7",
                          "--workload=bert", "resnet50"};
    Cli cli(6, argv);
    EXPECT_TRUE(cli.has("full"));
    EXPECT_FALSE(cli.has("quick"));
    EXPECT_EQ(cli.getInt("seed", 0), 7);
    EXPECT_EQ(cli.get("workload"), "bert");
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "resnet50");
}

TEST(Cli, Defaults)
{
    const char *argv[] = {"prog"};
    Cli cli(1, argv);
    EXPECT_EQ(cli.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(cli.get("missing", "x"), "x");
}

TEST(Cli, BooleanFlagBeforeFlag)
{
    const char *argv[] = {"prog", "--quick", "--seed", "3"};
    Cli cli(4, argv);
    EXPECT_TRUE(cli.has("quick"));
    EXPECT_EQ(cli.getInt("seed", 0), 3);
}

} // namespace
} // namespace dosa
