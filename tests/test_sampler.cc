/**
 * @file
 * Exactness tests for the random mapping sampler: the fit probe
 * against referenceEval's `fits`, and the allocation-free
 * randomMapping / randomFactorSplit / randomValidMapping against the
 * original vector-based formulation kept here as the reference. Both
 * must agree draw for draw, so the searchers' traces stay bitwise.
 */

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "model/reference.hh"
#include "search/search_common.hh"
#include "util/divisors.hh"
#include "util/rng.hh"
#include "workload/workload_registry.hh"

namespace dosa {
namespace {

/** Sorted divisors of n by trial division (independent of the memo). */
std::vector<int64_t>
refDivisors(int64_t n)
{
    std::vector<int64_t> lo, hi;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d != 0)
            continue;
        lo.push_back(d);
        if (d * d != n)
            hi.insert(hi.begin(), n / d);
    }
    lo.insert(lo.end(), hi.begin(), hi.end());
    return lo;
}

/** The original randomFactorSplit: one divisor list per part. */
std::vector<int64_t>
refFactorSplit(int64_t n, int parts, Rng &rng)
{
    std::vector<int64_t> out(static_cast<size_t>(parts), 1);
    int64_t remaining = n;
    for (int i = 0; i < parts - 1; ++i) {
        std::vector<int64_t> divs = refDivisors(remaining);
        int64_t pick = divs[static_cast<size_t>(rng.uniformInt(0,
                static_cast<int64_t>(divs.size()) - 1))];
        out[static_cast<size_t>(i)] = pick;
        remaining /= pick;
    }
    out[static_cast<size_t>(parts - 1)] = remaining;
    return out;
}

/** The original randomMapping: filtered `ok` vectors for the PEs. */
Mapping
refRandomMapping(const Layer &layer, Rng &rng, int64_t pe_cap)
{
    Mapping m;
    auto spatial = [&](int64_t size) {
        std::vector<int64_t> ok;
        for (int64_t d : refDivisors(size))
            if (d <= pe_cap)
                ok.push_back(d);
        return ok[size_t(rng.uniformInt(0,
                static_cast<int64_t>(ok.size()) - 1))];
    };
    m.factors.spatial_c = spatial(layer.c);
    m.factors.spatial_k = spatial(layer.k);
    for (Dim d : kAllDims) {
        int64_t residual = layer.size(d);
        if (d == Dim::C)
            residual /= m.factors.spatial_c;
        if (d == Dim::K)
            residual /= m.factors.spatial_k;
        auto split = refFactorSplit(residual, kNumLevels, rng);
        for (int lvl = 0; lvl < kNumLevels; ++lvl)
            m.factors.t(lvl, d) = split[size_t(lvl)];
    }
    for (int lvl = kAccumulator; lvl < kNumLevels; ++lvl)
        m.order[size_t(lvl)] =
                static_cast<LoopOrder>(rng.uniformInt(0, kNumOrders - 1));
    return m;
}

/** The original randomValidMapping: a full eval per rejection try. */
Mapping
refRandomValidMapping(const Layer &layer, const HardwareConfig &hw,
                      Rng &rng, int max_tries)
{
    for (int i = 0; i < max_tries; ++i) {
        Mapping m = refRandomMapping(layer, rng, hw.pe_dim);
        if (referenceEval(layer, m, hw).fits)
            return m;
    }
    return minimalMapping(layer);
}

/** Every layer of every registered workload. */
std::vector<Layer>
registryLayers()
{
    std::vector<Layer> layers;
    for (const std::string &name : Workloads::names()) {
        const Network *net = Workloads::find(name);
        layers.insert(layers.end(), net->layers.begin(),
                net->layers.end());
    }
    return layers;
}

/** Advance both streams once more: they must still be in lockstep. */
void
expectSameNextDraw(Rng &a, Rng &b)
{
    EXPECT_EQ(a.uniformInt(0, int64_t(1) << 40),
            b.uniformInt(0, int64_t(1) << 40));
}

TEST(FitProbe, EqualsReferenceEvalFitsOnEveryWorkload)
{
    Rng rng(2024);
    size_t fits = 0, total = 0;
    for (const Layer &l : registryLayers()) {
        for (int i = 0; i < 6; ++i) {
            HardwareConfig hw = randomHardware(rng);
            // Map against a random PE cap so both outcomes of the PE
            // comparison show up, not only ones within hw.pe_dim.
            Mapping m = randomMapping(l, rng, rng.uniformInt(1, 256));
            bool expect = referenceEval(l, m, hw).fits;
            EXPECT_EQ(referenceFits(l, m, hw), expect)
                    << l.str() << " " << m.str();
            fits += expect;
            ++total;
        }
    }
    // The sample covers both verdicts.
    EXPECT_GT(fits, 0u);
    EXPECT_LT(fits, total);
}

TEST(FitProbe, CapacityBoundariesAtAndOneWordOver)
{
    // 1 PE, 1 KiB accumulator (256 words), 1 KiB scratchpad (1024).
    const HardwareConfig hw{1, 1, 1};
    auto check = [&](const Layer &l, const Mapping &m, bool expect) {
        ASSERT_TRUE(m.complete(l)) << m.str();
        EXPECT_EQ(referenceEval(l, m, hw).fits, expect) << l.str();
        EXPECT_EQ(referenceFits(l, m, hw), expect) << l.str();
    };
    // Accumulator: a P tile of p words at the registers.
    for (int64_t p : {int64_t(256), int64_t(257)}) {
        Layer l;
        l.p = p;
        Mapping m;
        m.factors.t(kRegisters, Dim::P) = p;
        check(l, m, p == 256);
    }
    // Scratchpad: k weight words plus 512 input words, all tiled at
    // the accumulator level so the accumulator tile stays 1 word.
    for (int64_t k : {int64_t(512), int64_t(513)}) {
        Layer l;
        l.p = 512;
        l.k = k;
        Mapping m;
        m.factors.t(kAccumulator, Dim::P) = 512;
        m.factors.t(kAccumulator, Dim::K) = k;
        check(l, m, k == 512);
    }
    // PE array: a spatial factor of pe_dim fits, pe_dim + 1 does not.
    for (int64_t c : {int64_t(1), int64_t(2)}) {
        Layer l;
        l.c = c;
        Mapping m;
        m.factors.spatial_c = c;
        check(l, m, c == 1);
    }
}

TEST(FitProbeDeathTest, IncompleteMappingPanicsLikeReferenceEval)
{
    Layer l;
    l.k = 4;
    EXPECT_DEATH(referenceFits(l, Mapping(), HardwareConfig()),
            "referenceFits: mapping is not a valid complete mapping");
}

TEST(Sampler, FactorSplitMatchesVectorReference)
{
    Rng a(5), b(5);
    std::array<int64_t, 6> buf{};
    for (int64_t n : {1, 2, 6, 56, 64, 97, 720, 1024, 3072, 5124}) {
        for (int parts = 1; parts <= 6; ++parts) {
            std::vector<int64_t> expect = refFactorSplit(n, parts, a);
            std::span<int64_t> out(buf.data(), size_t(parts));
            randomFactorSplit(n, out, b);
            EXPECT_EQ(std::vector<int64_t>(out.begin(), out.end()),
                    expect) << "n=" << n << " parts=" << parts;
            EXPECT_EQ(randomFactorSplit(n, parts, b),
                    refFactorSplit(n, parts, a));
        }
    }
    expectSameNextDraw(a, b);
}

TEST(Sampler, RandomMappingMatchesVectorReferenceOnEveryWorkload)
{
    for (int64_t pe_cap : {int64_t(1), int64_t(3), int64_t(16),
                           kMaxPeDim}) {
        Rng a(77), b(77);
        for (const Layer &l : registryLayers()) {
            for (int i = 0; i < 3; ++i) {
                Mapping expect = refRandomMapping(l, a, pe_cap);
                EXPECT_EQ(randomMapping(l, b, pe_cap), expect)
                        << l.str() << " pe_cap=" << pe_cap;
            }
        }
        expectSameNextDraw(a, b);
    }
}

TEST(Sampler, RandomValidMappingMatchesFullEvalReference)
{
    Rng a(31), b(31);
    for (const Layer &l : registryLayers()) {
        HardwareConfig hw = randomHardware(a);
        EXPECT_EQ(randomHardware(b), hw);
        // A small try budget also exercises the minimal fallback.
        for (int tries : {2, 64}) {
            Mapping expect = refRandomValidMapping(l, hw, a, tries);
            EXPECT_EQ(randomValidMapping(l, hw, b, tries), expect)
                    << l.str();
        }
    }
    expectSameNextDraw(a, b);
}

TEST(SamplerDeathTest, NonPositivePeCapPanics)
{
    Rng rng(1);
    Layer l;
    EXPECT_DEATH(randomMapping(l, rng, 0),
            "randomMapping: pe_cap must be >= 1 \\(got 0\\)");
}

} // namespace
} // namespace dosa
