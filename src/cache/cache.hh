/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Used for both the L1 instruction cache (whose size the paper sweeps
 * across 16/32/64 KB, 4-way, backed by a perfect 6-cycle L2) and the
 * 16 KB L1 data cache.  The model tracks hits/misses only; timing is
 * applied by the pipeline model.
 */

#ifndef BSISA_CACHE_CACHE_HH
#define BSISA_CACHE_CACHE_HH

#include <cstdint>

#include "cache/lru_set_array.hh"

namespace bsisa
{

/** Cache geometry. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 64;
    bool perfect = false;  //!< always hits (infinite cache)

    std::uint32_t numSets() const;

    /** The set-array geometry rule over this cache's lines; a
     *  perfect cache builds no lines and always passes. */
    SetGeometryFault
    geometryFault() const
    {
        return perfect ? SetGeometryFault::None
                       : setGeometryFault(sizeBytes / lineBytes, assoc);
    }

    bool operator==(const CacheConfig &) const = default;
};

/** Access statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }

    bool operator==(const CacheStats &) const = default;
};

class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line; allocates on miss.
     * @retval true hit.
     */
    bool
    access(std::uint64_t addr)
    {
        return accessLine(addr >> lineShift);
    }

    /**
     * Access a byte range (e.g. an atomic block spanning lines).
     * @return number of missing lines (0 = all hit).
     */
    unsigned accessRange(std::uint64_t addr, std::uint32_t bytes);

    const CacheStats &stats() const { return statistics; }
    const CacheConfig &config() const { return cfg; }

  private:
    /** Probe by line number (addr >> lineShift); allocates on miss.
     *  Internal granularity shared by access() and accessRange(),
     *  which walks whole lines without re-deriving byte addresses. */
    bool accessLine(std::uint64_t lineAddr);

    CacheConfig cfg;
    /** log2(lineBytes); valid in perfect mode too. */
    std::uint32_t lineShift;
    std::uint32_t setMask;
    LruSetArray<std::uint64_t> lines;  //!< line-address tags
    CacheStats statistics;
};

} // namespace bsisa

#endif // BSISA_CACHE_CACHE_HH
