/**
 * @file
 * Environment-variable overrides for experiment scaling.
 */

#ifndef BSISA_SUPPORT_ENV_HH
#define BSISA_SUPPORT_ENV_HH

#include <cstdint>
#include <string>

namespace bsisa
{

/** Read an unsigned decimal env var, returning @p def when unset;
 *  fatal when set to anything else (a sign, a base prefix, spaces). */
std::uint64_t envU64(const char *name, std::uint64_t def);

/** Read a string env var, returning @p def when unset. */
std::string envString(const char *name, const std::string &def);

/** True when the env var is set to a non-empty value. */
bool envSet(const char *name);

} // namespace bsisa

#endif // BSISA_SUPPORT_ENV_HH
