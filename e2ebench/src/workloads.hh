/**
 * @file
 * The benchmark's workloads. Each `run*` performs one measured
 * invocation (untraced: end-to-end metrics; traced: per-layer
 * metrics) and returns the exit code.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include "common.hh"

namespace e2e {

int runCodesign(const Args &args);

int runRtlSurrogate(const Args &args);

int runService(const Args &args);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
