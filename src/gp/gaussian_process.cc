/**
 * @file
 * GP regression: RBF kernel, Cholesky-based fit and the blocked
 * posterior mean/variance path.
 */
#include "gp/gaussian_process.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.hh"

namespace dosa {

namespace {

/** Squared-exponential kernel of a squared distance d2. */
double
rbf(const GpParams &p, double d2)
{
    double ls2 = p.length_scale * p.length_scale;
    return p.signal_var * std::exp(-0.5 * d2 / ls2);
}

/** d2[i] += (q - x[i])^2 over one feature of every training point. */
void
addSquaredDiffs(double q, const double *__restrict x,
                double *__restrict d2, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        double d = q - x[i];
        d2[i] += d * d;
    }
}

/**
 * Two query columns in one SSE2-wide register. Each lane operation is
 * the scalar IEEE operation, so a column's arithmetic is unchanged;
 * the explicit type keeps the columns (not the training points) in
 * the lanes, which the autovectorizer does not find on its own.
 */
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

Pair
splat(double x)
{
    return Pair{x, x};
}

/**
 * f(0), ..., f(P - 1), expanded at compile time: with every index a
 * constant, per-lane arrays stay in registers at -O2 as well as -O3.
 */
template <size_t P, class F>
void
forLanes(F &&f)
{
    [&]<size_t... I>(std::index_sequence<I...>) {
        (f(I), ...);
    }(std::make_index_sequence<P>{});
}

/** What a posterior block reads of a fitted GP. */
struct Fitted
{
    GpParams params;
    size_t n;
    size_t dim;
    const double *xt;    ///< feature-major training rows
    const double *alpha; ///< K^-1 (y - mean)
    const double *l;     ///< row-major Cholesky factor of K
    double y_mean;
};

/**
 * Posterior mean and clipped variance of `count` <= W row-major query
 * rows; lanes past `count` score an all-zero k* and are dropped.
 * `ks` holds n * W / 2 pairs, `d2` n doubles.
 */
template <size_t W>
void
posteriorBlock(const Fitted &gp, const double *rows, size_t count,
               double *mean, double *var, Pair *ks, double *d2)
{
    static_assert(W % 2 == 0, "columns travel in pairs");
    constexpr size_t P = W / 2;
    const size_t n = gp.n;

    // k*, training-major so the solve below walks one row per point.
    Pair prior[P] = {};
    std::fill(ks, ks + n * P, Pair{});
    for (size_t c = 0; c < count; ++c) {
        const double *q = rows + c * gp.dim;
        std::fill(d2, d2 + n, 0.0);
        bool finite = true;
        for (size_t f = 0; f < gp.dim; ++f) {
            addSquaredDiffs(q[f], gp.xt + f * n, d2, n);
            finite = finite && std::isfinite(q[f]);
        }
        for (size_t i = 0; i < n; ++i)
            ks[i * P + c / 2][c % 2] = rbf(gp.params, d2[i]);
        // k(x, x): the self-distance sum of (x_f - x_f)^2 is 0, or
        // NaN once a feature is non-finite, as in the pairwise kernel.
        prior[c / 2][c % 2] = rbf(gp.params,
                finite ? 0.0 : std::numeric_limits<double>::quiet_NaN());
    }

    // One sweep down the factor: mean += alpha_i k_i, then the
    // forward substitution v_i = (k_i - sum_{j<i} L_ij v_j) / L_ii of
    // Cholesky::solveLower for all W columns at once, then
    // var -= v_i^2. Each column keeps the scalar subtraction order;
    // the P independent register chains are what hides the latency.
    Pair m[P], v[P];
    for (size_t p = 0; p < P; ++p) {
        m[p] = splat(gp.y_mean);
        v[p] = prior[p];
    }
    for (size_t i = 0; i < n; ++i) {
        const double *li = gp.l + i * n;
        const Pair alpha = splat(gp.alpha[i]);
        Pair *ki = ks + i * P;
        Pair acc[P];
        forLanes<P>([&](size_t p) {
            acc[p] = ki[p];
            m[p] += alpha * acc[p];
        });
        for (size_t j = 0; j < i; ++j) {
            const Pair lij = splat(li[j]);
            const Pair *vj = ks + j * P;
            forLanes<P>([&](size_t p) { acc[p] -= lij * vj[p]; });
        }
        const Pair lii = splat(li[i]);
        forLanes<P>([&](size_t p) {
            ki[p] = acc[p] / lii;
            v[p] -= ki[p] * ki[p];
        });
    }
    for (size_t c = 0; c < count; ++c) {
        mean[c] = m[c / 2][c % 2];
        double vc = v[c / 2][c % 2];
        var[c] = vc > 0.0 ? vc : 0.0;
    }
}

} // namespace

GaussianProcess::GaussianProcess(GpParams params) : params_(params) {}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &x,
                     const std::vector<double> &y)
{
    if (x.size() != y.size() || x.empty())
        panic("GaussianProcess::fit: bad training set");
    const size_t n = x.size();
    const size_t dim = x[0].size();
    for (const std::vector<double> &row : x)
        if (row.size() != dim)
            panic("GaussianProcess: feature size mismatch");

    Matrix k(n, n, 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j) {
            double d2 = 0.0;
            for (size_t f = 0; f < dim; ++f) {
                double d = x[i][f] - x[j][f];
                d2 += d * d;
            }
            double v = rbf(params_, d2);
            k(i, j) = v;
            k(j, i) = v;
        }
    k.addDiagonal(params_.noise_var + 1e-10);
    chol_ = std::make_unique<Cholesky>(k);

    y_mean_ = 0.0;
    for (double v : y)
        y_mean_ += v;
    y_mean_ /= static_cast<double>(n);
    std::vector<double> centred(n);
    for (size_t i = 0; i < n; ++i)
        centred[i] = y[i] - y_mean_;
    alpha_ = chol_->solve(centred);

    // Feature-major copy: a query's distances to every training point
    // become one element-wise sweep per feature.
    n_ = n;
    dim_ = dim;
    xt_.assign(n * dim, 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t f = 0; f < dim; ++f)
            xt_[f * n + i] = x[i][f];
}

void
GaussianProcess::posterior(std::span<const double> rows,
                           std::span<double> mean,
                           std::span<double> var) const
{
    if (!chol_)
        panic("GaussianProcess: predict before fit");
    const size_t count = mean.size();
    if (rows.size() != count * dim_ || var.size() != count)
        panic("GaussianProcess: feature size mismatch");
    const Fitted gp{params_, n_, dim_, xt_.data(), alpha_.data(),
            chol_->factor().data().data(), y_mean_};
    std::vector<Pair> ks(n_ * (count >= kBlock ? kBlock / 2 : 1));
    std::vector<double> d2(n_);
    size_t c = 0;
    for (; c + kBlock <= count; c += kBlock)
        posteriorBlock<kBlock>(gp, rows.data() + c * dim_, kBlock,
                &mean[c], &var[c], ks.data(), d2.data());
    for (; c < count; c += 2)
        posteriorBlock<2>(gp, rows.data() + c * dim_,
                std::min<size_t>(2, count - c), &mean[c], &var[c],
                ks.data(), d2.data());
}

double
GaussianProcess::predictMean(const std::vector<double> &x) const
{
    double mean, var;
    posterior(x, {&mean, 1}, {&var, 1});
    return mean;
}

double
GaussianProcess::predictVar(const std::vector<double> &x) const
{
    double mean, var;
    posterior(x, {&mean, 1}, {&var, 1});
    return var;
}

double
GaussianProcess::lcb(const std::vector<double> &x, double kappa) const
{
    double out;
    lcb(x, kappa, {&out, 1});
    return out;
}

void
GaussianProcess::lcb(std::span<const double> rows, double kappa,
                     std::span<double> out) const
{
    std::vector<double> var(out.size());
    posterior(rows, out, var);
    for (size_t c = 0; c < out.size(); ++c)
        out[c] = out[c] - kappa * std::sqrt(var[c]);
}

} // namespace dosa
