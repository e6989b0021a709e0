/**
 * @file
 * Golden-trace regression fixtures: one tiny canonical fixed-seed run
 * per searcher (DOSA, random co-search, fixed-hardware mapper,
 * BB-BO, plus BB-BO past its training-set cap), serialized bit-exactly
 * (hex floats) under `tests/golden/`
 * and diffed against live runs. The point is to freeze searcher
 * *results*, so interpreter rewrites (batched replay, future SIMD
 * work) cannot silently drift traces or selected designs — any
 * intentional behavior change has to regenerate the fixtures and show
 * up in review.
 *
 * Regenerate with:  DOSA_REGEN_GOLDEN=1 ./test_golden_traces
 *
 * The fixtures are bit-exact with respect to the libm they were
 * generated against (exp/log/pow are ~0.5 ulp, not formally
 * correctly-rounded); a toolchain/libc jump that moves those last
 * bits is a legitimate reason to regenerate — silent drift from a
 * code change is not.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/dosa_optimizer.hh"
#include "search/bayes_opt.hh"
#include "search/random_search.hh"
#include "workload/layer.hh"

namespace dosa {
namespace {

/** Fixture directory, baked in from the source tree at compile time. */
std::string
goldenDir()
{
    return std::string(DOSA_SOURCE_DIR) + "/tests/golden/";
}

bool
regenRequested()
{
    const char *env = std::getenv("DOSA_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0;
}

/**
 * Serialize a search result bit-exactly: %a round-trips doubles
 * through strtod without loss, and stays diffable text.
 */
void
writeGolden(const std::string &path, const SearchResult &r)
{
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fprintf(f, "# golden searcher trace; regenerate with "
                    "DOSA_REGEN_GOLDEN=1 ./test_golden_traces\n");
    std::fprintf(f, "trace %zu\n", r.trace.size());
    for (double v : r.trace)
        std::fprintf(f, "%a\n", v);
    std::fprintf(f, "best_edp %a\n", r.best_edp);
    std::fprintf(f, "best_hw %lld %lld %lld\n",
            static_cast<long long>(r.best_hw.pe_dim),
            static_cast<long long>(r.best_hw.accum_kib),
            static_cast<long long>(r.best_hw.spad_kib));
    std::fclose(f);
}

struct Golden
{
    std::vector<double> trace;
    double best_edp = 0.0;
    long long pe_dim = 0, accum_kib = 0, spad_kib = 0;
};

void
readGolden(const std::string &path, Golden &g)
{
    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr)
            << "missing fixture " << path
            << " — run DOSA_REGEN_GOLDEN=1 ./test_golden_traces";
    char line[256];
    size_t n = 0;
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr); // comment
    ASSERT_EQ(std::fscanf(f, "trace %zu\n", &n), 1);
    g.trace.resize(n);
    for (size_t i = 0; i < n; ++i) {
        ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
        g.trace[i] = std::strtod(line, nullptr);
    }
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    g.best_edp = std::strtod(line + std::strlen("best_edp "), nullptr);
    ASSERT_EQ(std::fscanf(f, "best_hw %lld %lld %lld", &g.pe_dim,
                      &g.accum_kib, &g.spad_kib),
            3);
    std::fclose(f);
}

/**
 * Regenerate-or-diff driver shared by the searcher fixtures.
 * Comparison is exact (==): these are determinism fixtures, not
 * accuracy checks.
 */
void
checkAgainstGolden(const std::string &name, const SearchResult &r)
{
    const std::string path = goldenDir() + name + ".trace";
    if (regenRequested()) {
        writeGolden(path, r);
        GTEST_SKIP() << "regenerated " << path;
    }
    Golden g;
    readGolden(path, g);
    if (::testing::Test::HasFatalFailure())
        return;
    ASSERT_EQ(r.trace.size(), g.trace.size()) << name;
    size_t mismatches = 0;
    for (size_t i = 0; i < g.trace.size(); ++i)
        if (r.trace[i] != g.trace[i] &&
            !(std::isnan(r.trace[i]) && std::isnan(g.trace[i])))
            ++mismatches;
    EXPECT_EQ(mismatches, 0u) << name << ": trace drifted";
    EXPECT_EQ(r.best_edp, g.best_edp) << name;
    EXPECT_EQ(r.best_hw.pe_dim, g.pe_dim) << name;
    EXPECT_EQ(r.best_hw.accum_kib, g.accum_kib) << name;
    EXPECT_EQ(r.best_hw.spad_kib, g.spad_kib) << name;
}

/** The canonical two-layer workload of the exec determinism tests. */
std::vector<Layer>
goldenLayers()
{
    return {
        Layer::gemm("a", 128, 64, 256),
        Layer::conv("b", 3, 16, 32, 64),
    };
}

TEST(GoldenTrace, DosaSearch)
{
    DosaConfig cfg;
    cfg.start_points = 3;
    cfg.steps_per_start = 30;
    cfg.round_every = 15;
    cfg.seed = 5;
    checkAgainstGolden("dosa", dosaSearch(goldenLayers(), cfg).search);
}

TEST(GoldenTrace, RandomSearch)
{
    RandomSearchConfig cfg;
    cfg.hw_designs = 4;
    cfg.mappings_per_hw = 30;
    cfg.seed = 3;
    checkAgainstGolden("random", randomSearch(goldenLayers(), cfg));
}

TEST(GoldenTrace, RandomMapper)
{
    checkAgainstGolden("mapper",
            randomMapperSearch(goldenLayers(), HardwareConfig{}, 40,
                    17));
}

TEST(GoldenTrace, BayesOpt)
{
    BayesOptConfig cfg;
    cfg.warmup_samples = 6;
    cfg.total_samples = 14;
    cfg.hw_candidates = 3;
    cfg.map_candidates = 4;
    cfg.seed = 21;
    checkAgainstGolden("bayesopt", bayesOptSearch(goldenLayers(), cfg));
}

/**
 * BB-BO past its training-set cap: two layers add two points per
 * sample, so a 40-point cap makes TrainSet drop its oldest half twice
 * and refits see 12..40 points. Each guided sample scores 3 x 2 x 12
 * = 72 candidates, several GP posterior blocks. Pinned serial and at
 * jobs=3.
 */
TEST(GoldenTrace, BayesOptTrainCap)
{
    BayesOptConfig cfg;
    cfg.warmup_samples = 6;
    cfg.total_samples = 40;
    cfg.hw_candidates = 3;
    cfg.map_candidates = 12;
    cfg.refit_every = 3;
    cfg.max_train_points = 40;
    cfg.seed = 23;
    SearchResult serial = bayesOptSearch(goldenLayers(), cfg);
    cfg.jobs = 3;
    SearchResult parallel = bayesOptSearch(goldenLayers(), cfg);
    EXPECT_EQ(parallel.trace, serial.trace);
    checkAgainstGolden("bayesopt_cap", serial);
    checkAgainstGolden("bayesopt_cap", parallel);
}

} // namespace
} // namespace dosa
