/**
 * @file
 * Seeded random-number utilities for reproducible experiments.
 */
#include "util/rng.hh"

#include <cmath>
#include <cstring>
#include <random>

namespace dosa {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; the std::mt19937_64
// template arguments).
constexpr size_t kN = Mt19937_64::kStateSize;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr uint64_t kUpperMask = ~uint64_t(0) << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kInitF = 6364136223846793005ull;

/**
 * Four state words side by side. Every lane operation is the scalar
 * integer operation, so a lane computes exactly what the scalar
 * recurrence does; the compiler lowers the type to the target's
 * vector registers (two SSE2 registers at baseline x86-64).
 */
typedef uint64_t Lanes __attribute__((vector_size(4 * sizeof(uint64_t))));
constexpr size_t kLanes = 4;
static_assert(kN % kLanes == 0 && kM % kLanes == 0);

/** One twist step on a scalar: the new word at `cur`. */
inline uint64_t
twistWord(uint64_t cur, uint64_t next, uint64_t far)
{
    uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

/**
 * Four twist steps: x[k..k+3] from x[k..k+4] and far[0..3]. Loads
 * and stores are unaligned (memcpy): the buffers keep the natural
 * alignment of uint64_t. No Lanes value crosses a function boundary,
 * so the vector ABI never comes into play.
 */
inline void
twistLanes(uint64_t *x, const uint64_t *far)
{
    Lanes cur, next, f;
    std::memcpy(&cur, x, sizeof(Lanes));
    std::memcpy(&next, x + 1, sizeof(Lanes));
    std::memcpy(&f, far, sizeof(Lanes));
    Lanes y = (cur & kUpperMask) | (next & kLowerMask);
    Lanes odd = y & 1;
    Lanes r = f ^ (y >> 1) ^ ((Lanes{} - odd) & kMatrixA);
    std::memcpy(x, &r, sizeof(Lanes));
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        uint64_t x = state_[i - 1];
        state_[i] = (x ^ (x >> 62)) * kInitF + i;
    }
    // As std::mt19937_64: the first draw twists.
    pos_ = kN;
}

void
Mt19937_64::refill()
{
    uint64_t *x = state_;
    // x[k] for k < n - m reads x[k + m], still the old word. A step
    // loads all its inputs before its store, so x[k + 1] is the old
    // word too, as in the scalar recurrence.
    for (size_t k = 0; k < kN - kM; k += kLanes)
        twistLanes(x + k, x + k + kM);
    // From n - m on, x[k] reads the new x[k + m - n], written at
    // least m > kLanes steps earlier. The last vector step would read
    // past the end (x[n]), so the final words are scalar.
    size_t k = kN - kM;
    for (; k + kLanes < kN; k += kLanes)
        twistLanes(x + k, x + k + kM - kN);
    for (; k + 1 < kN; ++k)
        x[k] = twistWord(x[k], x[k + 1], x[k + kM - kN]);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
    pos_ = 0;
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::uniformReal(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

double
Rng::logUniform(double lo, double hi)
{
    double u = uniformReal(std::log(lo), std::log(hi));
    return std::exp(u);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

Rng
Rng::fork()
{
    // Draw two words so forked streams decorrelate from the parent.
    uint64_t a = engine_();
    uint64_t b = engine_();
    return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ull);
}

namespace {

/** splitmix64 finalizer: bijective, breaks up seed/stream structure. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Rng
Rng::stream(uint64_t seed, uint64_t stream_id)
{
    // Two mixing rounds so nearby (seed, stream) pairs land far apart
    // in the mt19937_64 seed space.
    return Rng(splitmix64(splitmix64(seed) ^ splitmix64(~stream_id)));
}

} // namespace dosa
