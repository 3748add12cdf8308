/**
 * @file
 * The one strict reader of numbers and options from outside the
 * process: tool arguments, BSISA_* variables, spec values, textual IR,
 * and the store's lease, marker and shard names; and the one whole-file
 * read that brings such text in.
 */

#ifndef BSISA_SUPPORT_PARSE_HH
#define BSISA_SUPPORT_PARSE_HH

#include <charconv>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsisa
{

/**
 * Parse all of @p tok as a number in @p base that fits T: no sign an
 * unsigned field cannot hold, no leading '+' or space, no trailing
 * characters, no wrap or saturation.  @p out is written only on
 * success.
 */
template <typename T>
bool
parseNumber(std::string_view tok, T &out, int base = 10)
{
    T v{};
    const char *end = tok.data() + tok.size();
    const auto [p, ec] = std::from_chars(tok.data(), end, v, base);
    if (tok.empty() || ec != std::errc() || p != end)
        return false;
    out = v;
    return true;
}

/** One option a command takes, and whether it takes a value. */
struct OptionSpec
{
    std::string_view name;
    bool takesValue = false;
};

/** A command line parsed against an option table. */
struct CommandLine
{
    std::vector<std::string> positional;
    /** Each given option and its value; a switch's value is "true". */
    std::vector<std::pair<std::string_view, std::string_view>> options;

    /** @p name's value, or null when it was not given. */
    const std::string_view *find(std::string_view name) const;

    bool has(std::string_view name) const { return find(name); }

    std::string_view
    get(std::string_view name, std::string_view fallback = {}) const
    {
        const std::string_view *value = find(name);
        return value ? *value : fallback;
    }

    /** Read @p name's value, when given, into @p out as a decimal in
     *  [@p lo, @p hi]; false, with @p error naming the option, when it
     *  is not one. */
    template <typename T>
    bool
    number(std::string_view name, T &out, std::string &error,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) const
    {
        const std::string_view *text = find(name);
        if (!text)
            return true;
        if (T v{}; parseNumber(*text, v) && v >= lo && v <= hi) {
            out = v;
            return true;
        }
        error = std::string(name) + ": expected an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) +
                "], got '" + std::string(*text) + "'";
        return false;
    }
};

/**
 * Parse @p args against @p table.  An argument starting with '-' is an
 * option, and the argument after a value option is its value, taken
 * verbatim.  False, with @p error naming the argument, on an option
 * not in @p table, a repeated option, a value option with no value, or
 * more than @p maxPositional positional arguments.
 */
bool parseCommandLine(std::span<char *const> args,
                      std::span<const OptionSpec> table,
                      std::size_t maxPositional, CommandLine &out,
                      std::string &error);

/** Read all of @p path into @p out; false when it cannot be opened. */
bool readWholeFile(const std::string &path, std::string &out);

} // namespace bsisa

#endif // BSISA_SUPPORT_PARSE_HH
