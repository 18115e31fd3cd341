#include "support/rng.hh"

#include <cmath>

#include "support/logging.hh"

namespace rigor {

Rng::Rng(uint64_t seed)
    : gaussCache(0.0), gaussHave(false)
{
    SplitMix64 sm(seed);
    for (auto &word : s)
        word = sm.next();
}

uint64_t
Rng::nextU64()
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

uint64_t
Rng::boundedThreshold(uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded: bound must be positive");
    return (0ULL - bound) % bound;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    return nextBounded(bound, boundedThreshold(bound));
}

uint64_t
Rng::nextBounded(uint64_t bound, uint64_t threshold)
{
    // Rejection sampling to remove modulo bias.
    for (;;) {
        uint64_t r = nextU64();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange: lo > hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    // 53 random bits scaled into [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    if (gaussHave) {
        gaussHave = false;
        return gaussCache;
    }
    double u1, u2;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    u2 = nextDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gaussCache = r * std::sin(theta);
    gaussHave = true;
    return r * std::cos(theta);
}

double
Rng::nextGaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

double
Rng::nextExponential(double lambda)
{
    if (lambda <= 0.0)
        panic("Rng::nextExponential: lambda must be positive");
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

double
Rng::nextLogNormal(double mu, double sigma)
{
    return std::exp(nextGaussian(mu, sigma));
}

bool
Rng::nextBernoulli(double p)
{
    return nextDouble() < p;
}

Rng
Rng::split()
{
    return Rng(nextU64() ^ 0xa02bdbf7bb3c0a7ULL);
}

} // namespace rigor
