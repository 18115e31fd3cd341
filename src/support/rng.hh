/**
 * @file
 * Deterministic, seedable random number generation.
 *
 * The whole framework must be reproducible from a single seed, so we avoid
 * std::mt19937 (whose distributions are not portable across standard
 * libraries) and implement xoshiro256** with explicitly specified
 * distribution transforms.
 */

#ifndef RIGOR_SUPPORT_RNG_HH
#define RIGOR_SUPPORT_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rigor {

/**
 * SplitMix64 generator, used to seed xoshiro and for cheap stateless
 * hashing of seed material.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    /** Next 64 random bits. */
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state;
};

/**
 * xoshiro256** PRNG with explicit distribution helpers.
 *
 * All distribution transforms are implemented in this class so that a
 * given seed produces bit-identical streams on every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64 random bits. */
    uint64_t nextU64();

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    uint64_t nextBounded(uint64_t bound);

    /**
     * Rejection threshold of nextBounded(bound), bound > 0: raw draws
     * below it are drawn again. It costs a division, so a loop drawing
     * from one bound computes it once.
     */
    static uint64_t boundedThreshold(uint64_t bound);

    /**
     * nextBounded(bound) with `threshold` = boundedThreshold(bound)
     * precomputed; the same draws, one division fewer.
     */
    uint64_t nextBounded(uint64_t bound, uint64_t threshold);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal deviate (Box-Muller, cached pair). */
    double nextGaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Exponential deviate with the given rate lambda. */
    double nextExponential(double lambda);

    /** Log-normal deviate: exp(N(mu, sigma)). */
    double nextLogNormal(double mu, double sigma);

    /** Bernoulli trial with success probability p. */
    bool nextBernoulli(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBounded(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t s[4];
    double gaussCache;
    bool gaussHave;

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

} // namespace rigor

#endif // RIGOR_SUPPORT_RNG_HH
