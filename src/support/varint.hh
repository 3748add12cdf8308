/**
 * @file
 * LEB128 variable-length integers and zigzag signed mapping.
 *
 * The trace store's event section is a delta stream: most fields are
 * small signed jumps from the previous event, so zigzag + LEB128
 * shrinks a 16-byte TraceEvent to a handful of bytes.  Encoding
 * appends to a byte vector; decoding advances a raw cursor and is
 * bounds-checked against the section end so a truncated or corrupted
 * stream fails cleanly instead of reading past the mapping.
 */

#ifndef BSISA_SUPPORT_VARINT_HH
#define BSISA_SUPPORT_VARINT_HH

#include <cstdint>
#include <vector>

namespace bsisa
{

/** Append @p v LEB128-encoded (7 bits per byte, high bit = more). */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode one LEB128 value from [@p p, @p end), advancing @p p.
 * @retval false the stream ended mid-value or overflowed 64 bits
 *         (@p p and @p v are then unspecified).
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    // Fast path: the trace store's delta stream is almost entirely
    // single-byte values, and the decode loop is warm-open latency.
    if (p < end && *p < 0x80) {
        v = *p++;
        return true;
    }
    std::uint64_t result = 0;
    unsigned shift = 0;
    while (p < end) {
        const std::uint8_t byte = *p++;
        if (shift >= 63 && (byte >> (64 - shift)) != 0)
            return false;  // would overflow 64 bits
        result |= std::uint64_t(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            v = result;
            return true;
        }
        shift += 7;
        if (shift >= 64)
            return false;
    }
    return false;  // truncated
}

/** Map a signed value to unsigned so small magnitudes stay small. */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

} // namespace bsisa

#endif // BSISA_SUPPORT_VARINT_HH
