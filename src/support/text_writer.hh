/**
 * @file
 * Append-only text writer with two sinks.
 *
 * The textual IR is both printed (bsisac, round-trip tests) and hashed
 * (moduleDigest names every trace-store entry and result-store unit
 * key).  Both go through this one formatter, so the two can never
 * disagree: strings are copied and integers formatted with
 * std::to_chars into one buffer.  A string writer keeps every byte; a
 * digest writer feeds the buffer to an Fnv1a64 in chunkBytes runs, so
 * hashing a module never materialises its whole text.
 */

#ifndef BSISA_SUPPORT_TEXT_WRITER_HH
#define BSISA_SUPPORT_TEXT_WRITER_HH

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "support/digest.hh"

namespace bsisa
{

class TextWriter
{
  public:
    /** Bytes a digest writer buffers before hashing them. */
    static constexpr std::size_t chunkBytes = 64 * 1024;

    /** String sink: keeps every byte; take the text with str(). */
    TextWriter() = default;

    /** Digest sink: absorbs every byte into @p hasher. */
    explicit TextWriter(Fnv1a64 &hasher) : hasher(&hasher)
    {
        buf.resize(chunkBytes);
    }

    TextWriter(const TextWriter &) = delete;
    TextWriter &operator=(const TextWriter &) = delete;

    TextWriter &
    operator<<(std::string_view s)
    {
        std::memcpy(reserve(s.size()), s.data(), s.size());
        used += s.size();
        return *this;
    }

    TextWriter &
    operator<<(char c)
    {
        *reserve(1) = c;
        ++used;
        return *this;
    }

    /** Decimal, like an ostream in the "C" locale (char excluded: it
     *  is written as a character above). */
    template <std::integral T>
        requires(!std::same_as<T, char> && !std::same_as<T, bool>)
    TextWriter &
    operator<<(T v)
    {
        char *p = reserve(maxDigits);
        used = std::size_t(std::to_chars(p, p + maxDigits, v).ptr -
                           buf.data());
        return *this;
    }

    /** The text written so far (string sink). */
    std::string
    str() &&
    {
        buf.resize(used);
        return std::move(buf);
    }

    /** FNV-1a of everything written (digest sink). */
    std::uint64_t
    digest()
    {
        drain();
        return hasher->value();
    }

  private:
    /** Longest decimal integer: a sign and 20 digits. */
    static constexpr std::size_t maxDigits = 21;

    /** Room for @p n more bytes; returns where they go. */
    char *
    reserve(std::size_t n)
    {
        if (buf.size() - used < n)
            makeRoom(n);
        return buf.data() + used;
    }

    void
    makeRoom(std::size_t n)
    {
        if (hasher)
            drain();
        if (buf.size() - used < n)
            buf.resize(std::max(2 * buf.size(), used + n));
    }

    void
    drain()
    {
        hasher->bytes(buf.data(), used);
        used = 0;
    }

    std::string buf;  //!< [0, used) is the pending text
    std::size_t used = 0;
    Fnv1a64 *hasher = nullptr;
};

} // namespace bsisa

#endif // BSISA_SUPPORT_TEXT_WRITER_HH
