/**
 * @file
 * Unit tests for the set-associative cache model and the LRU set
 * array every cache, BTB and the trace cache keep their entries in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru_set_array.hh"
#include "support/rng.hh"

using namespace bsisa;

namespace
{

/**
 * Brute-force reference for LruSetArray: each way is a key and the
 * time of its last use (0 = invalid), and every decision is a plain
 * search of the set.  An access uses the first way holding the key,
 * else the highest-numbered invalid way, else the way with the oldest
 * use.
 */
class ReferenceSets
{
  public:
    ReferenceSets(std::size_t sets, unsigned ways)
        : rows(sets, std::vector<Slot>(ways))
    {
    }

    /** Way of @p set holding @p key, or -1; a hit is a use when
     *  @p touch. */
    int
    probe(std::size_t set, std::uint64_t key, bool touch)
    {
        std::vector<Slot> &row = rows[set];
        const auto it =
            std::find_if(row.begin(), row.end(), [&](const Slot &s) {
                return s.used != 0 && s.key == key;
            });
        if (it == row.end())
            return -1;
        if (touch)
            it->used = ++now;
        return int(it - row.begin());
    }

    /** The way an access for @p key uses, and whether it hit. */
    std::pair<unsigned, bool>
    access(std::size_t set, std::uint64_t key)
    {
        std::vector<Slot> &row = rows[set];
        int way = probe(set, key, false);
        const bool hit = way >= 0;
        for (int w = int(row.size()) - 1; way < 0 && w >= 0; --w)
            if (row[w].used == 0)
                way = w;
        if (way < 0) {
            way = int(std::min_element(row.begin(), row.end(),
                                       [](const Slot &a, const Slot &b) {
                                           return a.used < b.used;
                                       }) -
                      row.begin());
        }
        row[way] = {key, ++now};
        return {unsigned(way), hit};
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint64_t used = 0;
    };
    std::vector<std::vector<Slot>> rows;
    std::uint64_t now = 0;
};

} // namespace

TEST(LruSetArray_, MatchesReferenceOverRandomStreams)
{
    // Non-power-of-two set counts are the trace cache's modulo case.
    for (unsigned ways : {1u, 2u, 4u, 8u}) {
        for (std::size_t sets : {1u, 3u, 4u, 5u, 16u}) {
            SCOPED_TRACE(std::to_string(sets) + " sets x " +
                         std::to_string(ways) + " ways");
            LruSetArray<std::uint64_t> table(sets * ways, ways);
            ReferenceSets model(sets, ways);
            Rng rng(sets * 10 + ways);
            // Twice as many keys as slots: hits and evictions both.
            const std::uint64_t keys = 2 * sets * ways;
            std::uint64_t hits = 0, misses = 0;
            for (int step = 0; step < 20000; ++step) {
                const std::uint64_t key = rng.nextBelow(keys);
                const std::size_t set = key % sets;
                const auto match = [key](std::uint64_t k) {
                    return k == key;
                };
                switch (rng.nextBelow(3)) {
                  case 0: {  // the trace cache's lookup: a hit is a use
                    const bool hit = table.find(set, match) != nullptr;
                    ASSERT_EQ(hit, model.probe(set, key, true) >= 0) << step;
                    if (hit) {
                        ASSERT_TRUE(table.access(set, match).hit) << step;
                    }
                    break;
                  }
                  case 1: {  // a BTB prediction: a probe, not a use
                    const std::uint64_t *got = table.find(set, match);
                    const int want = model.probe(set, key, false);
                    ASSERT_EQ(got != nullptr, want >= 0) << step;
                    break;
                  }
                  default: {
                    const auto got = table.access(set, match);
                    const auto want = model.access(set, key);
                    ASSERT_EQ(got.hit, want.second) << step;
                    ASSERT_EQ(got.way, want.first) << step;
                    if (!got.hit)
                        got.entry = key;
                    ++(got.hit ? hits : misses);
                  }
                }
            }
            EXPECT_GT(hits, 0u);
            EXPECT_GT(misses, sets * ways);  // evictions happened
        }
    }
}

TEST(Cache, ConfigGeometry)
{
    CacheConfig cfg{64 * 1024, 4, 64, false};
    EXPECT_EQ(cfg.numSets(), 256u);
    CacheConfig small{16 * 1024, 4, 64, false};
    EXPECT_EQ(small.numSets(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache({1024, 2, 64, false});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1038));  // same line
    EXPECT_FALSE(cache.access(0x1040));  // next line
    EXPECT_EQ(cache.stats().accesses, 4u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 8 sets of 64 B lines: three lines mapping to one set.
    Cache cache({1024, 2, 64, false});
    const std::uint64_t a = 0x0000, b = 0x0400, c = 0x0800;  // set 0
    EXPECT_FALSE(cache.access(a));
    EXPECT_FALSE(cache.access(b));
    EXPECT_TRUE(cache.access(a));   // refresh a; b is now LRU
    EXPECT_FALSE(cache.access(c));  // evicts b
    EXPECT_TRUE(cache.access(a));
    EXPECT_FALSE(cache.access(b));  // b was evicted
}

TEST(Cache, PerfectAlwaysHits)
{
    Cache cache({1024, 2, 64, true});
    for (std::uint64_t addr = 0; addr < 1 << 20; addr += 4096)
        EXPECT_TRUE(cache.access(addr));
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Cache, RangeAccessCountsLines)
{
    Cache cache({4096, 4, 64, false});
    // 64 bytes starting at line boundary: one line.
    EXPECT_EQ(cache.accessRange(0x2000, 64), 1u);
    // Same range again: hits.
    EXPECT_EQ(cache.accessRange(0x2000, 64), 0u);
    // 64 bytes straddling two lines.
    EXPECT_EQ(cache.accessRange(0x3020, 64), 2u);
    // Zero-length range still touches its line.
    EXPECT_EQ(cache.accessRange(0x5000, 0), 1u);
}

TEST(Cache, CapacityBehaviour)
{
    // A 1 KB cache cannot hold a 4 KB working set cycled repeatedly.
    Cache small({1024, 4, 64, false});
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t addr = 0; addr < 4096; addr += 64)
            small.access(addr);
    EXPECT_GT(small.stats().missRate(), 0.5);

    // The same working set fits a 16 KB cache after the first pass.
    Cache big({16 * 1024, 4, 64, false});
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t addr = 0; addr < 4096; addr += 64)
            big.access(addr);
    EXPECT_LT(big.stats().missRate(), 0.3);
}
