/**
 * @file
 * xoshiro256** implementation (public-domain algorithm by Blackman and
 * Vigna) plus portable distribution helpers.
 */

#include "support/rng.hh"

#include <cmath>

#include "support/logging.hh"

namespace bsisa
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    BSISA_ASSERT(bound != 0);
    // Debiased via rejection on the top of the range.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    BSISA_ASSERT(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0)  // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextReal()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextReal() < p;
}

unsigned
Rng::sizeDraw(double mean, unsigned cap)
{
    BSISA_ASSERT(cap >= 1);
    if (mean <= 1.0)
        return 1;
    // Geometric with success probability 1/mean, shifted to start at 1.
    const double p = 1.0 / mean;
    const double u = nextReal();
    double draw = 1.0 + std::floor(std::log1p(-u) / std::log1p(-p));
    if (draw < 1.0)
        draw = 1.0;
    if (draw > cap)
        draw = cap;
    return static_cast<unsigned>(draw);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace bsisa
