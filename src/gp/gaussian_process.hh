/**
 * @file
 * Gaussian-process regression with an RBF kernel.
 *
 * This is the surrogate behind the BB-BO baseline (Section 6.1, after
 * Spotlight): the optimizer fits a GP to observed (hardware, mapping)
 * -> log-EDP samples and ranks unseen candidates by posterior mean
 * (optionally lower-confidence bound).
 */

#ifndef DOSA_GP_GAUSSIAN_PROCESS_HH
#define DOSA_GP_GAUSSIAN_PROCESS_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"

namespace dosa {

namespace gp_detail {
struct Posterior;
} // namespace gp_detail

/** Hyperparameters of the squared-exponential kernel. */
struct GpParams
{
    double length_scale = 1.0; ///< shared isotropic length scale
    double signal_var = 1.0;   ///< kernel amplitude sigma_f^2
    double noise_var = 1e-4;   ///< observation noise sigma_n^2
};

/**
 * GP regressor over fixed-dimension feature vectors.
 *
 * Every posterior query runs through one blocked path (Rasmussen &
 * Williams, GPML Alg. 2.1): up to `kBlock` test points share one tiled
 * pass over the training set and one multi-right-hand-side forward
 * substitution against the Cholesky factor. Each test point's sums
 * keep the scalar order, so a value never depends on which batch,
 * block position or CPU kernel (gp/posterior_kernel.hh) scored it;
 * the one-row calls run the same path.
 */
class GaussianProcess
{
  public:
    /** Test points scored together by one posterior block. */
    static constexpr size_t kBlock = 8;

    explicit GaussianProcess(GpParams params = {});

    /**
     * Fit to (x, y) pairs. Targets are internally centred on their
     * mean; feature dimensions must agree across rows.
     */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y);

    /** Posterior mean at a point. Requires fit() first. */
    double predictMean(const std::vector<double> &x) const;

    /** Posterior variance at a point (>= 0, clipped). */
    double predictVar(const std::vector<double> &x) const;

    /**
     * Lower confidence bound mean - kappa * std; the BO baseline
     * minimizes EDP, so lower is more promising.
     */
    double lcb(const std::vector<double> &x, double kappa) const;

    /**
     * LCB of every row of `rows` (row-major, rows as wide as the
     * training rows) into `out`, one value per row; bitwise equal to the
     * one-row `lcb`. Scratch beyond `out` is O(trainSize() * kBlock),
     * so callers fan large pools out as slices over a thread pool.
     */
    void lcb(std::span<const double> rows, double kappa,
             std::span<double> out) const;

    /** Number of training points. */
    size_t trainSize() const { return n_; }

  private:
    friend struct gp_detail::Posterior;

    GpParams params_;
    size_t n_ = 0;
    size_t dim_ = 0;
    size_t ld_ = 0; ///< n_ rounded up to whole k* tiles
    std::vector<double> xt_; ///< training features, xt_[f * ld_ + i]
    double y_mean_ = 0.0;
    std::vector<double> alpha_; ///< K^-1 (y - mean)
    std::unique_ptr<Cholesky> chol_;
};

} // namespace dosa

#endif // DOSA_GP_GAUSSIAN_PROCESS_HH
