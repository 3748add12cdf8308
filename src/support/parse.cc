/**
 * @file
 * Option-table command-line parser.
 */

#include "support/parse.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace bsisa
{

const std::string_view *
CommandLine::find(std::string_view name) const
{
    for (const auto &[key, value] : options)
        if (key == name)
            return &value;
    return nullptr;
}

bool
parseCommandLine(std::span<char *const> args,
                 std::span<const OptionSpec> table,
                 std::size_t maxPositional, CommandLine &out,
                 std::string &error)
{
    out = CommandLine{};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string_view arg = args[i];
        const std::string quoted = "'" + std::string(arg) + "'";
        const auto fail = [&](const std::string &what) {
            error = what;
            return false;
        };
        const auto spec = std::find_if(
            table.begin(), table.end(),
            [&](const OptionSpec &s) { return s.name == arg; });
        if (arg.size() < 2 || arg[0] != '-') {
            if (out.positional.size() == maxPositional)
                return fail("unexpected argument " + quoted);
            out.positional.emplace_back(arg);
        } else if (spec == table.end()) {
            return fail("unknown option " + quoted);
        } else if (out.has(arg)) {
            return fail("option " + quoted + " given twice");
        } else if (spec->takesValue && i + 1 == args.size()) {
            return fail("option " + quoted + " needs a value");
        } else {
            out.options.emplace_back(
                spec->name, spec->takesValue ? args[++i] : "true");
        }
    }
    return true;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace bsisa
