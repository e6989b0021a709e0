/**
 * @file
 * Deterministic random-number utilities used across the DSE stack.
 *
 * Every stochastic component in the repository (random search, start-point
 * generation, dataset synthesis, MLP initialization) draws from an Rng
 * seeded explicitly, so all experiments are reproducible bit-for-bit.
 *
 * Stream contract: Mt19937_64 emits exactly the words of
 * std::mt19937_64 for the same seed (the same seeding, twist and
 * tempering), and has the same result_type, min() and max(), so the
 * libstdc++ distributions behind Rng's draws take the same code path
 * and return the same values. Golden traces and the repository
 * benchmark's generated inputs are pinned to that stream. There is
 * one implementation and no knob: the twist is written with GCC/Clang
 * vector extensions, which compile to the target's baseline vector
 * unit (SSE2 on x86-64).
 */

#ifndef DOSA_UTIL_RNG_HH
#define DOSA_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dosa {

/**
 * MT19937-64 with a vectorised refill: each refill twists all 312
 * state words four at a time, and a draw tempers the next word.
 * Output-identical to std::mt19937_64 (see the file comment). All
 * state lives in the object (~2.5 KB): copies continue the stream
 * independently and share nothing.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    /** Words per refill (the MT19937-64 state size). */
    static constexpr size_t kStateSize = 312;

    /** Seed exactly as std::mt19937_64(seed) does. */
    explicit Mt19937_64(uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next word of the stream. */
    result_type
    operator()()
    {
        if (pos_ == kStateSize) [[unlikely]]
            refill();
        // Tempering (the u/d, s/b, t/c and l constants).
        uint64_t z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

  private:
    /** Twist all of the state; rewinds pos_. */
    void refill();

    uint64_t state_[kStateSize];
    size_t pos_;
};

/**
 * A seeded pseudo-random generator with convenience draws.
 *
 * Wraps the Mt19937_64 engine with the handful of std:: distributions
 * the DSE code needs. Copyable; copies continue the stream
 * independently.
 */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Standard normal draw scaled by stddev. */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /** Log-uniform real in [lo, hi); requires 0 < lo <= hi. */
    double logUniform(double lo, double hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Pick a uniformly random element of a non-empty vector. */
    template <class T>
    const T &
    choice(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(uniformInt(0,
                static_cast<int64_t>(v.size()) - 1))];
    }

    /** Fisher-Yates shuffle. */
    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0,
                    static_cast<int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng fork();

    /**
     * Derive the `stream`-th independent generator of a seed family
     * without consuming any parent state (a pure function of the
     * pair). Parallel runtimes split one user seed into per-task
     * streams this way, so task i draws the same sequence regardless
     * of which thread runs it or in what order — the determinism
     * contract of ThreadPool (src/exec).
     */
    static Rng stream(uint64_t seed, uint64_t stream_id);

    /** Access the raw engine (for std:: distributions). */
    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

} // namespace dosa

#endif // DOSA_UTIL_RNG_HH
