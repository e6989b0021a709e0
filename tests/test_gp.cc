/**
 * @file
 * Unit tests for Gaussian-process regression: interpolation,
 * uncertainty behaviour, LCB ranking, and a differential check of
 * every blocked posterior kernel against the one-row calls and against
 * the plain per-candidate kernel-row + Cholesky::solveLower
 * formulation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <span>

#include "gp/gaussian_process.hh"
#include "gp/posterior_kernel.hh"
#include "search/search_common.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(Gp, InterpolatesTrainingPointsWithLowNoise)
{
    GpParams p;
    p.noise_var = 1e-8;
    GaussianProcess gp(p);
    std::vector<std::vector<double>> x = {{0.0}, {1.0}, {2.0}, {3.0}};
    std::vector<double> y = {1.0, 2.0, 0.5, -1.0};
    gp.fit(x, y);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(gp.predictMean(x[i]), y[i], 1e-4);
}

TEST(Gp, RevertsToMeanFarFromData)
{
    GaussianProcess gp({1.0, 1.0, 1e-6});
    std::vector<std::vector<double>> x = {{0.0}, {1.0}};
    std::vector<double> y = {5.0, 7.0};
    gp.fit(x, y);
    EXPECT_NEAR(gp.predictMean({100.0}), 6.0, 1e-6); // prior = mean(y)
}

TEST(Gp, VarianceSmallAtDataLargeFar)
{
    GaussianProcess gp({1.0, 1.0, 1e-8});
    std::vector<std::vector<double>> x = {{0.0}, {1.0}};
    std::vector<double> y = {0.0, 1.0};
    gp.fit(x, y);
    EXPECT_LT(gp.predictVar({0.0}), 1e-4);
    EXPECT_GT(gp.predictVar({50.0}), 0.9); // ~prior variance
}

TEST(Gp, SmoothFunctionRecovery)
{
    GpParams p;
    p.length_scale = 1.0;
    p.noise_var = 1e-6;
    GaussianProcess gp(p);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i <= 20; ++i) {
        double t = i * 0.25;
        x.push_back({t});
        y.push_back(std::sin(t));
    }
    gp.fit(x, y);
    for (double t : {0.37, 1.9, 3.33, 4.8})
        EXPECT_NEAR(gp.predictMean({t}), std::sin(t), 0.02);
}

TEST(Gp, LcbBelowMean)
{
    GaussianProcess gp({1.0, 1.0, 1e-4});
    std::vector<std::vector<double>> x = {{0.0}, {2.0}};
    std::vector<double> y = {1.0, 3.0};
    gp.fit(x, y);
    std::vector<double> q = {4.0};
    EXPECT_LE(gp.lcb(q, 1.0), gp.predictMean(q));
    EXPECT_DOUBLE_EQ(gp.lcb(q, 0.0), gp.predictMean(q));
}

TEST(Gp, MultiDimensionalFeatures)
{
    GaussianProcess gp({2.0, 1.0, 1e-6});
    Rng rng(4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
        double a = rng.uniformReal(-2.0, 2.0);
        double b = rng.uniformReal(-2.0, 2.0);
        x.push_back({a, b});
        y.push_back(a * a + b);
    }
    gp.fit(x, y);
    // In-distribution prediction should beat the constant-mean model.
    double mean_y = 0.0;
    for (double v : y)
        mean_y += v;
    mean_y /= static_cast<double>(y.size());
    double gp_err = 0.0, const_err = 0.0;
    Rng rng2(5);
    for (int i = 0; i < 30; ++i) {
        double a = rng2.uniformReal(-1.5, 1.5);
        double b = rng2.uniformReal(-1.5, 1.5);
        double truth = a * a + b;
        gp_err += std::abs(gp.predictMean({a, b}) - truth);
        const_err += std::abs(mean_y - truth);
    }
    EXPECT_LT(gp_err, 0.5 * const_err);
}

TEST(Gp, TrainSizeReported)
{
    GaussianProcess gp;
    EXPECT_EQ(gp.trainSize(), 0u);
    gp.fit({{0.0}, {1.0}, {2.0}}, {1.0, 2.0, 3.0});
    EXPECT_EQ(gp.trainSize(), 3u);
}

/**
 * The per-candidate GP posterior written out plainly: kernel row,
 * forward substitution through Cholesky::solveLower, scalar sums. The
 * blocked path must reproduce it bit for bit.
 */
class ReferenceGp
{
  public:
    ReferenceGp(GpParams p, const std::vector<std::vector<double>> &x,
                const std::vector<double> &y)
        : p_(p), x_(x)
    {
        size_t n = x.size();
        Matrix k(n, n, 0.0);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j <= i; ++j) {
                k(i, j) = kernel(x[i], x[j]);
                k(j, i) = k(i, j);
            }
        k.addDiagonal(p.noise_var + 1e-10);
        chol_ = std::make_unique<Cholesky>(k);
        for (double v : y)
            y_mean_ += v;
        y_mean_ /= static_cast<double>(n);
        std::vector<double> centred(n);
        for (size_t i = 0; i < n; ++i)
            centred[i] = y[i] - y_mean_;
        alpha_ = chol_->solve(centred);
    }

    double
    mean(const std::vector<double> &q) const
    {
        double acc = y_mean_;
        for (size_t i = 0; i < x_.size(); ++i)
            acc += alpha_[i] * kernel(q, x_[i]);
        return acc;
    }

    double
    var(const std::vector<double> &q) const
    {
        std::vector<double> kstar(x_.size());
        for (size_t i = 0; i < x_.size(); ++i)
            kstar[i] = kernel(q, x_[i]);
        double v = kernel(q, q);
        for (double vi : chol_->solveLower(kstar))
            v -= vi * vi;
        return v > 0.0 ? v : 0.0;
    }

    double
    lcb(const std::vector<double> &q, double kappa) const
    {
        return mean(q) - kappa * std::sqrt(var(q));
    }

  private:
    double
    kernel(const std::vector<double> &a,
           const std::vector<double> &b) const
    {
        double d2 = 0.0;
        for (size_t i = 0; i < a.size(); ++i) {
            double d = a[i] - b[i];
            d2 += d * d;
        }
        double ls2 = p_.length_scale * p_.length_scale;
        return p_.signal_var * std::exp(-0.5 * d2 / ls2);
    }

    GpParams p_;
    std::vector<std::vector<double>> x_;
    double y_mean_ = 0.0;
    std::vector<double> alpha_;
    std::unique_ptr<Cholesky> chol_;
};

/** The hyperparameters bayesOptSearch fits with. */
const GpParams kBoParams{3.0, 4.0, 1e-2};

/**
 * BB-BO-shaped rows: encodeFeatures of random valid mappings on random
 * hardware over resnet50 layers, with log-EDP-like targets.
 */
std::vector<std::vector<double>>
boRows(size_t count, uint64_t seed)
{
    Network net = resnet50();
    Rng rng(seed);
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < count; ++i) {
        const Layer &l = net.layers[i % net.layers.size()];
        HardwareConfig hw = randomHardware(rng);
        rows.push_back(encodeFeatures(l,
                randomValidMapping(l, hw, rng, 16), hw));
    }
    return rows;
}

std::vector<double>
boTargets(const std::vector<std::vector<double>> &x)
{
    std::vector<double> y;
    for (const std::vector<double> &row : x) {
        double acc = 0.0;
        for (size_t f = 0; f < row.size(); ++f)
            acc += std::sin(row[f] * double(f + 1));
        y.push_back(acc);
    }
    return y;
}

std::vector<double>
flatten(const std::vector<std::vector<double>> &rows, size_t count)
{
    std::vector<double> flat;
    for (size_t c = 0; c < count; ++c)
        flat.insert(flat.end(), rows[c].begin(), rows[c].end());
    return flat;
}

/** The posterior kernel instantiations (gp/posterior_kernel.hh). */
enum class Lanes
{
    Portable,
    Avx2,
};

// Names the CTest entries by kernel instead of by the enum's raw bytes.
void
PrintTo(Lanes lanes, std::ostream *os)
{
    *os << (lanes == Lanes::Portable ? "portable" : "avx2");
}

/**
 * The blocked-posterior tests, run through each kernel by name; the
 * AVX2 runs skip on a CPU without AVX2.
 */
class GpBatch : public ::testing::TestWithParam<Lanes>
{
  protected:
    void
    SetUp() override
    {
        kernel_ = GetParam() == Lanes::Portable
                ? gp_detail::portableKernel()
                : gp_detail::avx2Kernel();
        if (kernel_ == nullptr)
            GTEST_SKIP() << "this CPU cannot run the AVX2 kernel";
    }

    /** GaussianProcess::lcb(rows, kappa, out) through this kernel. */
    void
    lcb(const GaussianProcess &gp, std::span<const double> rows,
        double kappa, std::span<double> out) const
    {
        gp_detail::Posterior::lcb(gp, kernel_, rows, kappa, out);
    }

    gp_detail::Kernel kernel_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Kernels, GpBatch,
        ::testing::Values(Lanes::Portable, Lanes::Avx2));

TEST_P(GpBatch, BitwiseEqualToOneRowAndReferencePath)
{
    // Training sizes around the row blocks (2 and 4 rows) and the k*
    // tile, widths through two whole blocks and every partial one.
    const size_t tile = gp_detail::kTile;
    const std::vector<std::vector<double>> queries = boRows(800, 99);
    std::vector<size_t> widths;
    for (size_t width = 0; width <= 2 * GaussianProcess::kBlock + 1;
            ++width)
        widths.push_back(width);
    widths.push_back(queries.size());
    for (size_t n : {size_t(1), size_t(3), size_t(4), size_t(5),
                 size_t(7), tile - 1, tile, tile + 1, size_t(300)}) {
        std::vector<std::vector<double>> x = boRows(n, 7 + n);
        std::vector<double> y = boTargets(x);
        GaussianProcess gp(kBoParams);
        gp.fit(x, y);
        ReferenceGp ref(kBoParams, x, y);

        std::vector<double> expected(queries.size());
        for (size_t c = 0; c < queries.size(); ++c) {
            expected[c] = ref.lcb(queries[c], 1.0);
            ASSERT_EQ(gp.lcb(queries[c], 1.0), expected[c])
                    << "n=" << n << " query " << c;
            ASSERT_EQ(gp.predictMean(queries[c]), ref.mean(queries[c]));
            ASSERT_EQ(gp.predictVar(queries[c]), ref.var(queries[c]));
        }
        for (size_t width : widths) {
            std::vector<double> flat = flatten(queries, width);
            std::vector<double> out(width, -1.0);
            lcb(gp, flat, 1.0, out);
            for (size_t c = 0; c < width; ++c)
                EXPECT_EQ(out[c], expected[c])
                        << "n=" << n << " width=" << width
                        << " column " << c;
        }
    }
}

TEST_P(GpBatch, RefitToFewerPointsLeavesNoStaleRows)
{
    std::vector<std::vector<double>> big = boRows(300, 3);
    std::vector<std::vector<double>> small(big.end() - 7, big.end());
    GaussianProcess refit(kBoParams);
    refit.fit(big, boTargets(big));
    refit.fit(small, boTargets(small));
    EXPECT_EQ(refit.trainSize(), 7u);

    GaussianProcess fresh(kBoParams);
    fresh.fit(small, boTargets(small));
    ReferenceGp ref(kBoParams, small, boTargets(small));
    const std::vector<std::vector<double>> queries = boRows(20, 4);
    std::vector<double> flat = flatten(queries, queries.size());
    std::vector<double> a(queries.size()), b(queries.size());
    lcb(refit, flat, 2.0, a);
    lcb(fresh, flat, 2.0, b);
    for (size_t c = 0; c < queries.size(); ++c) {
        EXPECT_EQ(a[c], b[c]) << c;
        EXPECT_EQ(a[c], ref.lcb(queries[c], 2.0)) << c;
    }
}

TEST_P(GpBatch, NonFiniteFeaturesMatchTheReference)
{
    std::vector<std::vector<double>> x = boRows(7, 8);
    GaussianProcess gp(kBoParams);
    gp.fit(x, boTargets(x));
    ReferenceGp ref(kBoParams, x, boTargets(x));
    std::vector<std::vector<double>> queries = boRows(3, 9);
    queries[0][5] = std::numeric_limits<double>::infinity();
    queries[2][40] = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> out(queries.size());
    lcb(gp, flatten(queries, queries.size()), 1.0, out);
    EXPECT_EQ(out[0], ref.lcb(queries[0], 1.0));
    EXPECT_EQ(gp.predictVar(queries[0]), ref.var(queries[0]));
    EXPECT_EQ(out[1], ref.lcb(queries[1], 1.0));
    EXPECT_TRUE(std::isnan(out[2]));
    EXPECT_TRUE(std::isnan(ref.lcb(queries[2], 1.0)));
}

TEST(GpBatchDeathTest, FeatureSizeMismatchPanics)
{
    GaussianProcess gp({1.0, 1.0, 1e-4});
    gp.fit({{0.0, 1.0}, {1.0, 0.0}}, {1.0, 2.0});
    EXPECT_DEATH((void)gp.lcb(std::vector<double>{0.5}, 1.0),
            "feature size mismatch");
    std::vector<double> three = {0.0, 1.0, 2.0};
    std::vector<double> out(2);
    EXPECT_DEATH(gp.lcb(three, 1.0, out), "feature size mismatch");
    EXPECT_DEATH(gp.fit({{0.0, 1.0}, {1.0}}, {1.0, 2.0}),
            "feature size mismatch");
    GaussianProcess unfitted;
    EXPECT_DEATH((void)unfitted.predictMean({0.0}), "predict before fit");
}

} // namespace
} // namespace dosa
