/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generation and functional data initialization must be
 * bit-for-bit reproducible across platforms and standard-library
 * versions, so we own the generator (xoshiro256**, seeded through
 * splitmix64) and the distributions instead of relying on
 * implementation-defined std::uniform_int_distribution behaviour.
 */

#ifndef BSISA_SUPPORT_RNG_HH
#define BSISA_SUPPORT_RNG_HH

#include <cstdint>

namespace bsisa
{

/** splitmix64 step; used for seeding and cheap hashing. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * xoshiro256** generator with owned, portable distributions.
 */
class Rng
{
  public:
    /** Construct from a single 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [0, 1). */
    double nextReal();

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * Geometric-ish positive size draw with the given mean, clamped to
     * [1, cap].  Used for basic-block size distributions.
     */
    unsigned sizeDraw(double mean, unsigned cap);

    /** Split off an independent stream (deterministic function of
     *  state). */
    Rng split();

  private:
    std::uint64_t s[4];
};

} // namespace bsisa

#endif // BSISA_SUPPORT_RNG_HH
