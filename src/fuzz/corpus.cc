/**
 * @file
 * Corpus entry I/O (see corpus.hh for the file format).
 */

#include "fuzz/corpus.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "ir/module.hh"
#include "support/parse.hh"

namespace bsisa
{
namespace fuzz
{

Expectation
computeExpectation(const Module &module, Interp::Limits limits)
{
    Interp interp(module, limits);
    interp.run();
    return {interp.halted(),       interp.exitValue(),
            interp.dataChecksum(), interp.memChecksum(),
            interp.dynOps(),       interp.dynBlocks()};
}

std::string
formatExpectation(const Expectation &e)
{
    std::ostringstream os;
    os << "halted " << (e.halted ? 1 : 0) << "\n"
       << "exit " << e.exit << "\n"
       << "data_checksum " << e.dataChecksum << "\n"
       << "mem_checksum " << e.memChecksum << "\n"
       << "dyn_ops " << e.dynOps << "\n"
       << "dyn_blocks " << e.dynBlocks << "\n";
    return os.str();
}

bool
parseExpectation(const std::string &text, Expectation &out)
{
    std::uint64_t halted = 0;
    const std::pair<std::string_view, std::uint64_t *> fields[] = {
        {"halted", &halted},
        {"exit", &out.exit},
        {"data_checksum", &out.dataChecksum},
        {"mem_checksum", &out.memChecksum},
        {"dyn_ops", &out.dynOps},
        {"dyn_blocks", &out.dynBlocks},
    };
    // The lines formatExpectation writes, in its order, and no more.
    std::istringstream is(text);
    std::string key, value;
    for (const auto &[name, field] : fields)
        if (!(is >> key >> value) || key != name ||
            !parseNumber(value, *field))
            return false;
    out.halted = halted != 0;
    return !(is >> key);
}

bool
writeCorpusEntry(const std::string &dir, const std::string &name,
                 const std::string &source, const Expectation &e)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::ofstream src(fs::path(dir) / (name + ".blockc"),
                      std::ios::trunc);
    src << source;
    std::ofstream exp(fs::path(dir) / (name + ".expect"),
                      std::ios::trunc);
    exp << formatExpectation(e);
    return bool(src) && bool(exp);
}

bool
readCorpusEntry(const std::string &dir, const std::string &name,
                std::string &source, Expectation &out)
{
    const std::string base = dir + "/" + name;
    std::string expect;
    return readWholeFile(base + ".blockc", source) &&
           readWholeFile(base + ".expect", expect) &&
           parseExpectation(expect, out);
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".blockc")
            names.push_back(entry.path().stem().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace fuzz
} // namespace bsisa
