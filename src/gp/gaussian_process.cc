/**
 * @file
 * GP regression: RBF kernel, Cholesky-based fit and the blocked
 * posterior mean/variance kernels.
 */
#include "gp/gaussian_process.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "gp/posterior_kernel.hh"
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

} // namespace

namespace gp_detail {

/** What a posterior kernel reads of a fitted GP. */
struct Fitted
{
    GpParams params;
    size_t n;
    size_t dim;
    size_t ld;           ///< row stride of xt, a whole number of tiles
    const double *xt;    ///< feature-major training rows, zero-padded
    const double *alpha; ///< K^-1 (y - mean)
    const double *l;     ///< row-major Cholesky factor of K
    double y_mean;
};

namespace {

/**
 * Query columns side by side in one register. Each lane operation is
 * the scalar IEEE operation, so a column's arithmetic is unchanged;
 * the explicit type keeps the columns (not the training points) in
 * the lanes, which the autovectorizer does not find on its own.
 */
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
#if defined(__x86_64__) || defined(__i386__)
typedef double Quad __attribute__((vector_size(4 * sizeof(double))));
#endif

/**
 * Fully unroll the loop that follows, at every optimization level: the
 * lane and row loops below index their accumulator arrays with
 * constants only, so those arrays stay in registers. Each such loop
 * has a constant trip count, so both compilers can honour the request.
 */
#if defined(__clang__)
#define DOSA_UNROLL _Pragma("unroll")
#else
#define DOSA_UNROLL _Pragma("GCC unroll 16")
#endif

/**
 * The posterior kernel over lane type V, advancing R training rows of
 * the substitution together. Lanes past `count` score an all-zero k*
 * and are dropped. The whole body is this one always-inlined function:
 * a lambda or out-of-line helper over V would be compiled for the
 * baseline ISA, not for the AVX2 wrapper that inlines it.
 */
template <class V, size_t R>
[[gnu::always_inline]] inline void
posteriorBlock(const Fitted &gp, const double *rows, size_t count,
               double *mean, double *var, double *ks)
{
    constexpr size_t W = GaussianProcess::kBlock;
    constexpr size_t L = sizeof(V) / sizeof(double);
    constexpr size_t P = W / L;
    static_assert(W % L == 0, "a block is whole lane vectors");
    const size_t n = gp.n;

    // (1) k*, training-major (ks[i * W + c]). A tile's features are
    // fetched from memory once per block, then from L1 by every
    // column; each squared distance still sums features f = 0..dim-1
    // from 0.0, and the padded tail of the last tile is dropped.
    if (count < W)
        std::fill(ks, ks + n * W, 0.0);
    double prior[W] = {};
    for (size_t c = 0; c < count; ++c) {
        const double *q = rows + c * gp.dim;
        bool finite = true;
        for (size_t f = 0; f < gp.dim; ++f)
            finite = finite && std::isfinite(q[f]);
        // k(x, x): the self-distance sum of (x_f - x_f)^2 is 0, or
        // NaN once a feature is non-finite, as in the pairwise kernel.
        prior[c] = rbf(gp.params,
                finite ? 0.0 : std::numeric_limits<double>::quiet_NaN());
    }
    for (size_t t0 = 0; t0 < n; t0 += kTile) {
        const size_t tn = std::min(kTile, n - t0);
        for (size_t c = 0; c < count; ++c) {
            const double *q = rows + c * gp.dim;
            double d2[kTile] = {};
            for (size_t f = 0; f < gp.dim; ++f) {
                const double qf = q[f];
                const double *x = gp.xt + f * gp.ld + t0;
                for (size_t i = 0; i < kTile; ++i) {
                    double d = qf - x[i];
                    d2[i] += d * d;
                }
            }
            for (size_t i = 0; i < tn; ++i)
                ks[(t0 + i) * W + c] = rbf(gp.params, d2[i]);
        }
    }

    // (2) One sweep down the factor, R rows at a time: mean +=
    // alpha_i k_i, then the forward substitution v_i = (k_i -
    // sum_{j<i} L_ij v_j) / L_ii of Cholesky::solveLower for every
    // column, then var -= v_i^2. The R rows share each v_j load over
    // j below the block, then finish their R x R triangle in row
    // order; every column keeps the scalar subtraction order and the
    // training order of both sums.
    V *kv = reinterpret_cast<V *>(ks);
    V m[P], v[P];
    DOSA_UNROLL
    for (size_t k = 0; k < W; ++k) {
        m[k / L][k % L] = gp.y_mean;
        v[k / L][k % L] = prior[k];
    }
    for (size_t i0 = 0; i0 < n; i0 += R) {
        // Rows past n repeat row i0: they ride along the shared sweep
        // and are dropped before the triangle.
        const size_t rows_here = std::min(R, n - i0);
        size_t row[R];
        const double *li[R];
        DOSA_UNROLL
        for (size_t r = 0; r < R; ++r) {
            row[r] = r < rows_here ? i0 + r : i0;
            li[r] = gp.l + row[r] * n;
        }
        V acc[R * P]; // acc[r * P + p]: row i0 + r, lane vector p
        DOSA_UNROLL
        for (size_t k = 0; k < R * P; ++k) {
            acc[k] = kv[row[k / P] * P + k % P];
            if (k / P < rows_here)
                m[k % P] += gp.alpha[i0 + k / P] * acc[k];
        }
        for (size_t j = 0; j < i0; ++j) {
            const V *vj = kv + j * P;
            DOSA_UNROLL
            for (size_t k = 0; k < R * P; ++k)
                acc[k] -= li[k / P][j] * vj[k % P];
        }
        DOSA_UNROLL
        for (size_t r = 0; r < R; ++r) {
            if (r >= rows_here)
                continue;
            DOSA_UNROLL
            for (size_t k = 0; k < R * P; ++k)
                if (k / P < r)
                    acc[r * P + k % P] -= li[r][i0 + k / P] * acc[k];
            DOSA_UNROLL
            for (size_t p = 0; p < P; ++p) {
                V &vi = acc[r * P + p];
                vi = vi / li[r][i0 + r];
                kv[(i0 + r) * P + p] = vi;
                v[p] -= vi * vi;
            }
        }
    }
    double ms[W], vs[W];
    DOSA_UNROLL
    for (size_t k = 0; k < W; ++k) {
        ms[k] = m[k / L][k % L];
        vs[k] = v[k / L][k % L];
    }
    for (size_t c = 0; c < count; ++c) {
        mean[c] = ms[c];
        var[c] = vs[c] > 0.0 ? vs[c] : 0.0;
    }
}

void
posteriorPortable(const Fitted &gp, const double *rows, size_t count,
                  double *mean, double *var, double *ks)
{
    posteriorBlock<Pair, 2>(gp, rows, count, mean, var, ks);
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * "avx2" and never "avx2,fma": a fused multiply-subtract would round
 * L_ij v_j once instead of twice and move every value.
 */
__attribute__((target("avx2"))) void
posteriorAvx2(const Fitted &gp, const double *rows, size_t count,
              double *mean, double *var, double *ks)
{
    posteriorBlock<Quad, 4>(gp, rows, count, mean, var, ks);
}
#endif

#undef DOSA_UNROLL

} // namespace

Kernel
portableKernel()
{
    return posteriorPortable;
}

Kernel
avx2Kernel()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return posteriorAvx2;
#endif
    return nullptr;
}

Kernel
dispatchedKernel()
{
    static const Kernel avx2 = avx2Kernel();
    return avx2 != nullptr ? avx2 : portableKernel();
}

void
Posterior::run(const GaussianProcess &gp, Kernel kernel,
               std::span<const double> rows, std::span<double> mean,
               std::span<double> var)
{
    if (!gp.chol_)
        panic("GaussianProcess: predict before fit");
    const size_t count = mean.size();
    if (rows.size() != count * gp.dim_ || var.size() != count)
        panic("GaussianProcess: feature size mismatch");
    const Fitted fitted{gp.params_, gp.n_, gp.dim_, gp.ld_,
            gp.xt_.data(), gp.alpha_.data(),
            gp.chol_->factor().data().data(), gp.y_mean_};
    // k* scratch: one training point's block of columns is a 64-byte
    // cache line, aligned so that every lane vector in it is.
    const size_t block = GaussianProcess::kBlock;
    static_assert(block * sizeof(double) == 64);
    std::vector<double> scratch(gp.n_ * block + block);
    void *base = scratch.data();
    size_t space = scratch.size() * sizeof(double);
    double *ks = static_cast<double *>(
            std::align(64, gp.n_ * block * sizeof(double), base, space));
    for (size_t c = 0; c < count; c += block)
        kernel(fitted, rows.data() + c * gp.dim_,
                std::min(block, count - c), &mean[c], &var[c], ks);
}

void
Posterior::lcb(const GaussianProcess &gp, Kernel kernel,
               std::span<const double> rows, double kappa,
               std::span<double> out)
{
    std::vector<double> var(out.size());
    run(gp, kernel, rows, out, var);
    for (size_t c = 0; c < out.size(); ++c)
        out[c] = out[c] - kappa * std::sqrt(var[c]);
}

} // namespace gp_detail

using gp_detail::Posterior;
using gp_detail::dispatchedKernel;

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

    // Feature-major copy: a query's distances to a tile of training
    // points become one element-wise sweep per feature. Rows are padded
    // to whole tiles so every tile sweeps the same fixed width.
    n_ = n;
    dim_ = dim;
    ld_ = (n + gp_detail::kTile - 1) / gp_detail::kTile * gp_detail::kTile;
    xt_.assign(ld_ * dim, 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t f = 0; f < dim; ++f)
            xt_[f * ld_ + i] = x[i][f];
}

double
GaussianProcess::predictMean(const std::vector<double> &x) const
{
    double mean, var;
    Posterior::run(*this, dispatchedKernel(), x, {&mean, 1}, {&var, 1});
    return mean;
}

double
GaussianProcess::predictVar(const std::vector<double> &x) const
{
    double mean, var;
    Posterior::run(*this, dispatchedKernel(), x, {&mean, 1}, {&var, 1});
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
    Posterior::lcb(*this, dispatchedKernel(), rows, kappa, out);
}

} // namespace dosa
