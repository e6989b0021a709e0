/**
 * @file
 * Mapping representation: factor products, validation and pretty-printing.
 */
#include "mapping/mapping.hh"

#include <algorithm>
#include <sstream>

#include "util/divisors.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace dosa {

const char *
orderName(LoopOrder o)
{
    switch (o) {
      case LoopOrder::WS: return "WS";
      case LoopOrder::IS: return "IS";
      case LoopOrder::OS: return "OS";
    }
    return "?";
}

OrderVec
uniformOrder(LoopOrder o)
{
    OrderVec v;
    v.fill(o);
    v[kRegisters] = LoopOrder::WS;
    return v;
}

int64_t
Mapping::dimProduct(Dim d) const
{
    int64_t prod = 1;
    for (int lvl = 0; lvl < kNumLevels; ++lvl) {
        prod *= factors.t(lvl, d);
        prod *= factors.spatialAt(lvl, d);
    }
    return prod;
}

bool
Mapping::complete(const Layer &layer) const
{
    for (Dim d : kAllDims)
        if (dimProduct(d) != layer.size(d))
            return false;
    return true;
}

bool
Mapping::positive() const
{
    for (int lvl = 0; lvl < kNumLevels; ++lvl)
        for (Dim d : kAllDims)
            if (factors.t(lvl, d) < 1)
                return false;
    return factors.spatial_c >= 1 && factors.spatial_k >= 1;
}

Factors<double>
Mapping::continuousFactors() const
{
    Factors<double> f;
    for (int lvl = 0; lvl < kNumLevels; ++lvl)
        for (Dim d : kAllDims)
            f.t(lvl, d) = static_cast<double>(factors.t(lvl, d));
    f.spatial_c = static_cast<double>(factors.spatial_c);
    f.spatial_k = static_cast<double>(factors.spatial_k);
    return f;
}

std::string
Mapping::str() const
{
    std::ostringstream os;
    for (int lvl = kNumLevels - 1; lvl >= 0; --lvl) {
        os << levelName(lvl) << "[" << orderName(order[size_t(lvl)])
           << "]:";
        if (lvl == kScratchpad && factors.spatial_k > 1)
            os << " sK=" << factors.spatial_k;
        if (lvl == kAccumulator && factors.spatial_c > 1)
            os << " sC=" << factors.spatial_c;
        for (Dim d : kAllDims) {
            int64_t f = factors.t(lvl, d);
            if (f > 1)
                os << " " << dimName(d) << "=" << f;
        }
        if (lvl > 0)
            os << " | ";
    }
    return os.str();
}

namespace {

/** Uniform draw from the divisors of n that are <= cap (cap >= 1). */
int64_t
randomDivisorAtMost(int64_t n, int64_t cap, Rng &rng)
{
    // The divisor list is sorted, so the allowed ones are a prefix.
    const auto &divs = divisorsOf(n);
    auto count = std::upper_bound(divs.begin(), divs.end(), cap) -
                 divs.begin();
    return divs[size_t(rng.uniformInt(0, count - 1))];
}

} // namespace

Mapping
randomMapping(const Layer &layer, Rng &rng, int64_t pe_cap)
{
    if (pe_cap < 1)
        panic("randomMapping: pe_cap must be >= 1 (got " +
              std::to_string(pe_cap) + ")");
    Mapping m;
    // Spatial factors: random divisors bounded by the PE cap.
    m.factors.spatial_c = randomDivisorAtMost(layer.c, pe_cap, rng);
    m.factors.spatial_k = randomDivisorAtMost(layer.k, pe_cap, rng);
    // Temporal factors: split the residual of each dimension across the
    // four levels.
    for (Dim d : kAllDims) {
        int64_t residual = layer.size(d);
        if (d == Dim::C)
            residual /= m.factors.spatial_c;
        if (d == Dim::K)
            residual /= m.factors.spatial_k;
        std::array<int64_t, kNumLevels> split{};
        randomFactorSplit(residual, split, rng);
        for (int lvl = 0; lvl < kNumLevels; ++lvl)
            m.factors.t(lvl, d) = split[size_t(lvl)];
    }
    // Random ordering per level above the registers.
    for (int lvl = kAccumulator; lvl < kNumLevels; ++lvl)
        m.order[size_t(lvl)] =
                static_cast<LoopOrder>(rng.uniformInt(0, kNumOrders - 1));
    return m;
}

} // namespace dosa
