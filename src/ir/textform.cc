/**
 * @file
 * Textual IR serializer and assembler.
 */

#include "ir/textform.hh"

#include <cctype>
#include <map>
#include <sstream>
#include <string_view>

#include "support/logging.hh"
#include "support/parse.hh"

namespace bsisa
{

void
writeModule(TextWriter &os, const Module &module)
{
    os << "module main=f" << module.mainFunc << '\n';
    os << "data " << module.data.size() << '\n';
    for (std::size_t i = 0; i < module.data.size(); ++i)
        if (module.data[i] != 0)
            os << i << ' ' << module.data[i] << '\n';
    os << "end\n";
    for (const Function &fn : module.functions) {
        os << "func " << fn.name << " id=" << fn.id
           << " library=" << (fn.isLibrary ? 1 : 0)
           << " vregs=" << fn.numVirtualRegs
           << " frame=" << fn.frameSize << '\n';
        for (const Block &blk : fn.blocks) {
            os << "block\n";
            for (const Operation &op : blk.ops) {
                os << "  ";
                writeOperation(os, op);
                os << '\n';
            }
            os << "endblock\n";
        }
        for (const auto &table : fn.jumpTables) {
            os << "table";
            for (BlockId target : table)
                os << " B" << target;
            os << '\n';
        }
        os << "endfunc\n";
    }
}

std::string
moduleToText(const Module &module)
{
    TextWriter os;
    writeModule(os, module);
    return std::move(os).str();
}

namespace
{

/** Largest vregs= a function header may give: the interpreter sizes
 *  every frame by it (8 bytes a register). */
constexpr RegNum maxTextVirtualRegs = 1u << 20;

/** Tokenizer for operation lines: splits on spaces, commas, and
 *  brackets, keeping bracket/paren tokens out entirely. */
std::vector<std::string>
opTokens(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
            c == '[' || c == ']' || c == '(' || c == ')') {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

/** Parse @p prefix followed by a number. */
template <typename T>
bool
parsePrefixed(std::string_view tok, std::string_view prefix, T &out)
{
    return tok.substr(0, prefix.size()) == prefix &&
           parseNumber(tok.substr(prefix.size()), out);
}

bool
parseReg(std::string_view tok, RegNum &out)
{
    return parsePrefixed(tok, "r", out);
}

bool
parseBlockRef(std::string_view tok, std::uint32_t &out)
{
    return parsePrefixed(tok, "B", out);
}

const std::map<std::string, Opcode> &
mnemonicMap()
{
    static const std::map<std::string, Opcode> map = [] {
        std::map<std::string, Opcode> m;
        for (int i = 0; i <= static_cast<int>(Opcode::Halt); ++i) {
            const Opcode op = static_cast<Opcode>(i);
            m[opcodeName(op)] = op;
        }
        return m;
    }();
    return map;
}

} // namespace

bool
parseOperationText(const std::string &line, Operation &out,
                   std::string &error)
{
    const auto tokens = opTokens(line);
    if (tokens.empty()) {
        error = "empty operation";
        return false;
    }
    const auto it = mnemonicMap().find(tokens[0]);
    if (it == mnemonicMap().end()) {
        error = "unknown mnemonic '" + tokens[0] + "'";
        return false;
    }
    const Opcode op = it->second;
    out = Operation{};
    out.op = op;

    auto fail = [&](const char *what) {
        error = std::string("bad ") + what + " in '" + line + "'";
        return false;
    };

    switch (op) {
      case Opcode::Nop:
      case Opcode::Ret:
      case Opcode::Halt:
        return true;
      case Opcode::MovI:
        if (tokens.size() != 3 || !parseReg(tokens[1], out.dst) ||
            !parseNumber(tokens[2], out.imm)) {
            return fail("movi operands");
        }
        return true;
      case Opcode::Mov:
      case Opcode::FCvt:
        if (tokens.size() != 3 || !parseReg(tokens[1], out.dst) ||
            !parseReg(tokens[2], out.src1)) {
            return fail("unary operands");
        }
        return true;
      case Opcode::AddI:
      case Opcode::AndI:
      case Opcode::CmpEqI:
      case Opcode::CmpLtI:
      case Opcode::ShlI:
      case Opcode::ShrI:
        if (tokens.size() != 4 || !parseReg(tokens[1], out.dst) ||
            !parseReg(tokens[2], out.src1) ||
            !parseNumber(tokens[3], out.imm)) {
            return fail("immediate operands");
        }
        return true;
      case Opcode::Ld:
        // ld rD, [rB + imm]
        if (tokens.size() != 5 || !parseReg(tokens[1], out.dst) ||
            !parseReg(tokens[2], out.src1) || tokens[3] != "+" ||
            !parseNumber(tokens[4], out.imm)) {
            return fail("load operands");
        }
        return true;
      case Opcode::St:
        // st [rB + imm], rV
        if (tokens.size() != 5 || !parseReg(tokens[1], out.src1) ||
            tokens[2] != "+" || !parseNumber(tokens[3], out.imm) ||
            !parseReg(tokens[4], out.src2)) {
            return fail("store operands");
        }
        return true;
      case Opcode::Jmp:
        if (tokens.size() != 2 || !parseBlockRef(tokens[1], out.target0))
            return fail("jump target");
        return true;
      case Opcode::Trap: {
        // trap rC, Bt, Bf (succBits k)
        if (tokens.size() != 6 || !parseReg(tokens[1], out.src1) ||
            !parseBlockRef(tokens[2], out.target0) ||
            !parseBlockRef(tokens[3], out.target1) ||
            tokens[4] != "succBits") {
            return fail("trap operands");
        }
        if (!parseNumber(tokens[5], out.succBits) || out.succBits > 3)
            return fail("trap succBits");
        return true;
      }
      case Opcode::Fault: {
        std::uint32_t target;
        const bool inverted = tokens.size() == 4 && tokens[3] == "inv";
        if ((tokens.size() != 3 && !inverted) ||
            !parseReg(tokens[1], out.src1) ||
            !parsePrefixed(tokens[2], "AB", target)) {
            return fail("fault operands");
        }
        out.target0 = target;
        out.imm = inverted ? 1 : 0;
        return true;
      }
      case Opcode::Call: {
        // call fN, cont BN
        std::uint32_t callee;
        if (tokens.size() != 4 || !parsePrefixed(tokens[1], "f", callee)
            || tokens[2] != "cont" ||
            !parseBlockRef(tokens[3], out.target0)) {
            return fail("call operands");
        }
        out.callee = callee;
        return true;
      }
      case Opcode::IJmp: {
        // ijmp rS, table T
        std::uint32_t table;
        if (tokens.size() != 4 || !parseReg(tokens[1], out.src1) ||
            tokens[2] != "table" || !parseNumber(tokens[3], table)) {
            return fail("ijmp operands");
        }
        out.imm = table;
        return true;
      }
      default:
        // Plain three-register form.
        if (tokens.size() != 4 || !parseReg(tokens[1], out.dst) ||
            !parseReg(tokens[2], out.src1) ||
            !parseReg(tokens[3], out.src2)) {
            return fail("register operands");
        }
        return true;
    }
}

ParseModuleResult
parseModuleText(const std::string &text)
{
    ParseModuleResult result;
    std::istringstream is(text);
    std::string line;
    unsigned line_no = 0;

    auto fail = [&](const std::string &msg) {
        result.error = "line " + std::to_string(line_no) + ": " + msg;
        return result;
    };
    auto next_line = [&](std::string &out) {
        while (std::getline(is, out)) {
            ++line_no;
            // Trim surrounding whitespace and skip blanks/comments.
            const std::size_t start = out.find_first_not_of(" \t\r");
            if (start == std::string::npos)
                continue;
            out = out.substr(start, out.find_last_not_of(" \t\r") + 1 -
                                        start);
            if (out[0] == '#')
                continue;
            return true;
        }
        return false;
    };

    if (!next_line(line) ||
        !parsePrefixed(line, "module main=f", result.module.mainFunc))
        return fail("expected 'module main=fN'");

    std::size_t words;
    if (!next_line(line) || !parsePrefixed(line, "data ", words))
        return fail("expected 'data N'");
    // The data segment must end below the stack.
    if (words > (Module::stackBase - Module::dataBase) / 8)
        return fail("data segment of " + std::to_string(words) +
                    " words reaches the stack");
    result.module.allocData(words);
    for (;;) {
        if (!next_line(line))
            return fail("unterminated data section");
        if (line == "end")
            break;
        const std::size_t space = line.find(' ');
        std::size_t index;
        std::uint64_t value;
        if (space == std::string::npos ||
            !parseNumber(std::string_view(line).substr(0, space), index) ||
            index >= words ||
            !parseNumber(std::string_view(line).substr(space + 1), value))
            return fail("bad data entry '" + line + "'");
        result.module.data[index] = value;
    }

    while (next_line(line)) {
        if (line.rfind("func ", 0) != 0)
            return fail("expected 'func', got '" + line + "'");
        std::istringstream ls(line.substr(5));
        std::string name, id_kv, lib_kv, vregs_kv, frame_kv, extra;
        if (!(ls >> name >> id_kv >> lib_kv >> vregs_kv >> frame_kv) ||
            ls >> extra)
            return fail("bad func header");
        Function &fn = result.module.addFunction(name);
        FuncId id;
        unsigned library;
        if (!parsePrefixed(id_kv, "id=", id) || id != fn.id)
            return fail("function id mismatch (must be sequential)");
        if (!parsePrefixed(lib_kv, "library=", library) || library > 1)
            return fail("bad '" + lib_kv + "' (expected 0 or 1)");
        fn.isLibrary = library == 1;
        // The interpreter sizes every frame by vregs.
        if (!parsePrefixed(vregs_kv, "vregs=", fn.numVirtualRegs) ||
            fn.numVirtualRegs < numArchRegs ||
            fn.numVirtualRegs > maxTextVirtualRegs)
            return fail("bad '" + vregs_kv + "' (expected " +
                        std::to_string(numArchRegs) + ".." +
                        std::to_string(maxTextVirtualRegs) + ")");
        if (!parsePrefixed(frame_kv, "frame=", fn.frameSize))
            return fail("bad '" + frame_kv + "'");

        for (;;) {
            if (!next_line(line))
                return fail("unterminated function");
            if (line == "endfunc")
                break;
            if (line == "block") {
                const BlockId b = fn.newBlock();
                for (;;) {
                    if (!next_line(line))
                        return fail("unterminated block");
                    if (line == "endblock")
                        break;
                    Operation op;
                    std::string err;
                    if (!parseOperationText(line, op, err))
                        return fail(err);
                    fn.blocks[b].ops.push_back(op);
                }
            } else if (line.rfind("table", 0) == 0) {
                std::istringstream ts(line.substr(5));
                std::vector<BlockId> table;
                std::string tok;
                while (ts >> tok) {
                    std::uint32_t target;
                    if (!parseBlockRef(tok, target))
                        return fail("bad table entry '" + tok + "'");
                    table.push_back(target);
                }
                fn.jumpTables.push_back(std::move(table));
            } else {
                return fail("unexpected line '" + line + "'");
            }
        }
    }

    result.ok = true;
    return result;
}

} // namespace bsisa
