/**
 * @file
 * Environment-variable override implementation.
 */

#include "support/env.hh"

#include <cstdlib>

#include "support/logging.hh"
#include "support/parse.hh"

namespace bsisa
{

std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return def;
    std::uint64_t v = 0;
    if (!parseNumber(std::string_view(raw), v))
        fatal("environment variable ", name, "='", raw,
              "' is not an unsigned decimal integer");
    return v;
}

std::string
envString(const char *name, const std::string &def)
{
    const char *raw = std::getenv(name);
    return (raw && *raw) ? std::string(raw) : def;
}

bool
envSet(const char *name)
{
    const char *raw = std::getenv(name);
    return raw && *raw;
}

} // namespace bsisa
