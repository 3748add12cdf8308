/**
 * @file
 * Cache model implementation.
 */

#include "cache/cache.hh"

#include "support/logging.hh"

namespace bsisa
{

std::uint32_t
CacheConfig::numSets() const
{
    return sizeBytes / (assoc * lineBytes);
}

Cache::Cache(const CacheConfig &config)
    : cfg(config), lineShift(floorLog2(config.lineBytes)),
      lines(config.perfect ? 0 : config.sizeBytes >> lineShift,
            config.assoc)
{
    BSISA_ASSERT(isPowerOfTwo(cfg.lineBytes));
    BSISA_ASSERT(cfg.geometryFault() == SetGeometryFault::None,
                 "cache lines must fill a power-of-two number of sets");
    setMask = cfg.perfect ? 0 : cfg.numSets() - 1;
}

bool
Cache::accessLine(std::uint64_t lineAddr)
{
    ++statistics.accesses;
    if (cfg.perfect)
        return true;

    // The full line address is the tag.
    const auto way = lines.access(
        lineAddr & setMask,
        [lineAddr](std::uint64_t tag) { return tag == lineAddr; });
    if (!way.hit) {
        ++statistics.misses;
        way.entry = lineAddr;
    }
    return way.hit;
}

unsigned
Cache::accessRange(std::uint64_t addr, std::uint32_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    const std::uint64_t first = addr >> lineShift;
    const std::uint64_t last = (addr + bytes - 1) >> lineShift;
    unsigned missing = 0;
    for (std::uint64_t line = first; line <= last; ++line)
        missing += !accessLine(line);
    return missing;
}

} // namespace bsisa
