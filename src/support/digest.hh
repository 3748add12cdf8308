/**
 * @file
 * Content hashing for cache keys and file checksums.
 *
 * FNV-1a (64-bit): tiny, dependency-free, and byte-order independent
 * on the input side, which is all the trace store needs — the digest
 * names cache entries and guards sections against corruption; it is
 * not a cryptographic integrity boundary.  The incremental Fnv1a64
 * hasher feeds arbitrary byte runs; the free functions cover the
 * one-shot cases.
 */

#ifndef BSISA_SUPPORT_DIGEST_HH
#define BSISA_SUPPORT_DIGEST_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bsisa
{

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a64
{
  public:
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    /** Absorb a run of raw bytes. */
    Fnv1a64 &
    bytes(const void *data, std::size_t size)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        std::uint64_t v = state;
        for (std::size_t i = 0; i < size; ++i)
            v = (v ^ p[i]) * prime;
        state = v;
        return *this;
    }

    /** Absorb an integer as its 8 little-endian bytes (fixed width,
     *  so digests are stable across platforms). */
    Fnv1a64 &
    u64(std::uint64_t v)
    {
        unsigned char buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(buf, sizeof(buf));
    }

    /** The digest of everything absorbed so far. */
    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = offsetBasis;
};

/** One-shot digest of a byte run. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size)
{
    return Fnv1a64().bytes(data, size).value();
}

/** One-shot digest of a string. */
inline std::uint64_t
fnv1a64(std::string_view s)
{
    return fnv1a64(s.data(), s.size());
}

/**
 * Incremental digest of a byte run, mixed 8 bytes at a time.  Not the
 * same function as Fnv1a64: the FNV-1a step is applied once per
 * little-endian 64-bit word (tail zero-padded, total length absorbed
 * last so "\0" and "\0\0" differ), cutting the byte-serial multiply
 * chain by 8x.  Used for the trace store's bulk section checksums,
 * where verification runs on the warm-open path and its latency is
 * the product being sold.  Runs may be split anywhere: the digest
 * depends only on the concatenated bytes.
 */
class Fnv1a64Words
{
  public:
    /** Absorb a run of raw bytes. */
    Fnv1a64Words &
    bytes(const void *data, std::size_t size)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        std::uint64_t h = state;
        std::size_t i = 0;
        // Complete a word an earlier run left partial.
        for (; pendingBytes && i < size; ++i) {
            pending |= std::uint64_t(p[i]) << (8 * pendingBytes);
            if (++pendingBytes == 8) {
                h = (h ^ pending) * Fnv1a64::prime;
                pending = 0;
                pendingBytes = 0;
            }
        }
        for (; i + 8 <= size; i += 8) {
            std::uint64_t w = 0;
            for (int b = 0; b < 8; ++b)
                w |= std::uint64_t(p[i + b]) << (8 * b);
            h = (h ^ w) * Fnv1a64::prime;
        }
        for (; i < size; ++i)
            pending |= std::uint64_t(p[i]) << (8 * pendingBytes++);
        state = h;
        total += size;
        return *this;
    }

    /** The digest of everything absorbed so far. */
    std::uint64_t
    value() const
    {
        std::uint64_t h = state;
        if (pendingBytes)
            h = (h ^ pending) * Fnv1a64::prime;
        return (h ^ total) * Fnv1a64::prime;
    }

  private:
    std::uint64_t state = Fnv1a64::offsetBasis;
    std::uint64_t pending = 0;  //!< bytes of an unfinished word
    unsigned pendingBytes = 0;
    std::uint64_t total = 0;
};

/** One-shot Fnv1a64Words digest of a byte run. */
inline std::uint64_t
fnv1a64Words(const void *data, std::size_t size)
{
    return Fnv1a64Words().bytes(data, size).value();
}

} // namespace bsisa

#endif // BSISA_SUPPORT_DIGEST_HH
