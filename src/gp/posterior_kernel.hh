/**
 * @file
 * Internal: the posterior kernels behind GaussianProcess.
 *
 * One kernel template scores a block of up to GaussianProcess::kBlock
 * query rows. It is built twice: with portable 2-wide lanes, and with
 * 4-wide lanes inside an AVX2 target wrapper. The library picks one
 * at first use from the CPU alone (dispatchedKernel). Every kernel
 * returns bitwise the same values, so this header exists for the tests
 * and the microbench, which run each kernel by name.
 */

#ifndef DOSA_GP_POSTERIOR_KERNEL_HH
#define DOSA_GP_POSTERIOR_KERNEL_HH

#include <cstddef>
#include <span>

#include "gp/gaussian_process.hh"

namespace dosa::gp_detail {

/** Training points whose features one k* tile keeps in L1. */
inline constexpr size_t kTile = 32;

/** What a posterior kernel reads of a fitted GP (defined in the .cc). */
struct Fitted;

/**
 * Posterior mean and clipped variance of `count` <= kBlock row-major
 * query rows; `ks` is n * kBlock doubles of 64-byte-aligned scratch.
 */
using Kernel = void (*)(const Fitted &gp, const double *rows,
                        size_t count, double *mean, double *var,
                        double *ks);

/** 2-wide lanes, any CPU. */
Kernel portableKernel();

/** 4-wide AVX2 lanes; nullptr when the CPU cannot run them. */
Kernel avx2Kernel();

/** The kernel GaussianProcess runs: AVX2 when available. */
Kernel dispatchedKernel();

/** GaussianProcess's posterior entry points, with the kernel named. */
struct Posterior
{
    /** Mean and clipped variance of `mean.size()` row-major rows. */
    static void run(const GaussianProcess &gp, Kernel kernel,
                    std::span<const double> rows, std::span<double> mean,
                    std::span<double> var);

    /** GaussianProcess::lcb(rows, kappa, out) through `kernel`. */
    static void lcb(const GaussianProcess &gp, Kernel kernel,
                    std::span<const double> rows, double kappa,
                    std::span<double> out);
};

} // namespace dosa::gp_detail

#endif // DOSA_GP_POSTERIOR_KERNEL_HH
