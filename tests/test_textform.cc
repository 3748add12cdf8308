/**
 * @file
 * Tests for the textual IR serializer/assembler: operation syntax,
 * structural round trips, behavioural equivalence, error reporting,
 * strict numbers, and byte equality with a reference printer.
 */

#include <gtest/gtest.h>

#include <climits>
#include <sstream>

#include "frontend/compile.hh"
#include "fuzz/gen.hh"
#include "ir/textform.hh"
#include "ir/verifier.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
#include "support/rng.hh"
#include "workloads/specmix.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

Operation
roundTripOp(const Operation &op)
{
    Operation parsed;
    std::string error;
    EXPECT_TRUE(parseOperationText(op.toString(), parsed, error))
        << op.toString() << ": " << error;
    return parsed;
}

void
expectSameOp(const Operation &a, const Operation &b)
{
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.src2, b.src2);
    EXPECT_EQ(a.imm, b.imm);
    EXPECT_EQ(a.target0, b.target0);
    EXPECT_EQ(a.target1, b.target1);
    EXPECT_EQ(a.callee, b.callee);
    EXPECT_EQ(a.succBits, b.succBits);
}

} // namespace

TEST(OpText, RoundTripsEveryForm)
{
    std::vector<Operation> ops = {
        makeNop(),
        makeMovI(5, -123456789),
        makeMov(3, 4),
        makeBin(Opcode::Add, 1, 2, 3),
        makeBin(Opcode::FDiv, 7, 8, 9),
        makeBinI(Opcode::AddI, 1, 2, -7),
        makeBinI(Opcode::ShrI, 1, 2, 63),
        makeLd(4, 5, 1048576),
        makeSt(5, 8, 6),
        makeJmp(12),
        makeTrap(3, 10, 11),
        makeCall(2, 7),
        makeIJmp(9, 1),
        makeRet(),
        makeHalt(),
    };
    // A trap with nonzero succBits.
    Operation trap = makeTrap(1, 2, 3);
    trap.succBits = 3;
    ops.push_back(trap);
    // Both fault polarities.
    ops.push_back(makeFault(4, 99));
    Operation inv_fault = makeFault(4, 99);
    inv_fault.imm = 1;
    ops.push_back(inv_fault);
    // FCvt.
    Operation cvt;
    cvt.op = Opcode::FCvt;
    cvt.dst = 2;
    cvt.src1 = 3;
    ops.push_back(cvt);

    for (const Operation &op : ops) {
        SCOPED_TRACE(op.toString());
        expectSameOp(roundTripOp(op), op);
    }
}

TEST(OpText, RejectsGarbage)
{
    Operation op;
    std::string error;
    EXPECT_FALSE(parseOperationText("frobnicate r1, r2", op, error));
    EXPECT_NE(error.find("unknown mnemonic"), std::string::npos);
    EXPECT_FALSE(parseOperationText("add r1, r2", op, error));
    EXPECT_FALSE(parseOperationText("movi r1", op, error));
    EXPECT_FALSE(parseOperationText("ld r1, [x + 0]", op, error));
    EXPECT_FALSE(parseOperationText("", op, error));
}

TEST(ModuleText, RoundTripsCompiledProgram)
{
    const char *src = R"(
        var g[8];
        var seed = 3;
        fn work(a, b) {
            if (a < b) { return a * b; }
            return a - b;
        }
        fn main() {
            var acc = seed;
            for (var i = 0; i < 20; i = i + 1) {
                acc = acc + work(i, acc & 7);
                g[i & 7] = acc;
                switch (i & 1) { case 0: { acc = acc + 1; }
                                 case 1: { acc = acc ^ 3; } }
            }
            return acc;
        }
    )";
    const Module original = compileBlockCOrDie(src);
    const std::string text = moduleToText(original);
    const ParseModuleResult parsed = parseModuleText(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(verifyModule(parsed.module).empty());

    // Structural identity.
    ASSERT_EQ(parsed.module.functions.size(), original.functions.size());
    EXPECT_EQ(parsed.module.mainFunc, original.mainFunc);
    EXPECT_EQ(parsed.module.data, original.data);
    EXPECT_EQ(parsed.module.numOps(), original.numOps());
    // Text fixpoint: serializing again yields identical text.
    EXPECT_EQ(moduleToText(parsed.module), text);

    // Behavioural identity.
    Interp a(original), b(parsed.module);
    a.run();
    b.run();
    EXPECT_EQ(a.exitValue(), b.exitValue());
    EXPECT_EQ(a.dynOps(), b.dynOps());
    EXPECT_EQ(a.dataChecksum(), b.dataChecksum());
}

TEST(ModuleText, RoundTripsGeneratedWorkload)
{
    WorkloadParams params;
    params.name = "txt";
    params.seed = 23;
    params.numFuncs = 6;
    params.numLibFuncs = 2;
    params.itemsPerFunc = 6;
    const Module original = generateWorkload(params);
    const ParseModuleResult parsed =
        parseModuleText(moduleToText(original));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.module.numOps(), original.numOps());
    EXPECT_EQ(parsed.module.functions[1].isLibrary,
              original.functions[1].isLibrary);

    Interp::Limits limits;
    limits.maxOps = 50000;
    Interp a(original, limits), b(parsed.module, limits);
    a.run();
    b.run();
    EXPECT_EQ(a.dynOps(), b.dynOps());
    EXPECT_EQ(a.dataChecksum(), b.dataChecksum());
}

TEST(ModuleText, ReportsErrorsWithLineNumbers)
{
    EXPECT_FALSE(parseModuleText("").ok);
    EXPECT_NE(parseModuleText("nonsense").error.find("line 1"),
              std::string::npos);

    const ParseModuleResult bad_op = parseModuleText(
        "module main=f0\ndata 0\nend\n"
        "func main id=0 library=0 vregs=32 frame=0\n"
        "block\n  bogus r1\nendblock\nendfunc\n");
    EXPECT_FALSE(bad_op.ok);
    EXPECT_NE(bad_op.error.find("line 6"), std::string::npos);

    const ParseModuleResult bad_data = parseModuleText(
        "module main=f0\ndata 2\n5 1\nend\n");
    EXPECT_FALSE(bad_data.ok);
    EXPECT_NE(bad_data.error.find("data entry"), std::string::npos);
}

TEST(ModuleText, CommentsAndBlankLinesIgnored)
{
    const ParseModuleResult parsed = parseModuleText(
        "# a comment\n\nmodule main=f0\ndata 1\n0 42\nend\n\n"
        "# another\n"
        "func main id=0 library=0 vregs=32 frame=0\n"
        "block\n  movi r4, 7\n  halt\nendblock\nendfunc\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.module.data[0], 42u);
    Interp interp(parsed.module);
    interp.run();
    EXPECT_EQ(interp.exitValue(), 7u);
}

// ---------------------------------------------------------------
// Reference printer: the ostream serializer the text form was first
// written with, kept here only to pin the bytes of the one writer in
// src/ (and, through it, every moduleDigest).
// ---------------------------------------------------------------

namespace
{

std::string
referenceOpText(const Operation &o)
{
    std::ostringstream os;
    os << opcodeName(o.op);
    switch (o.op) {
      case Opcode::Nop:
        break;
      case Opcode::MovI:
        os << " r" << o.dst << ", " << o.imm;
        break;
      case Opcode::Mov:
      case Opcode::FCvt:
        os << " r" << o.dst << ", r" << o.src1;
        break;
      case Opcode::AddI:
      case Opcode::AndI:
      case Opcode::CmpEqI:
      case Opcode::CmpLtI:
      case Opcode::ShlI:
      case Opcode::ShrI:
        os << " r" << o.dst << ", r" << o.src1 << ", " << o.imm;
        break;
      case Opcode::Ld:
        os << " r" << o.dst << ", [r" << o.src1 << " + " << o.imm << "]";
        break;
      case Opcode::St:
        os << " [r" << o.src1 << " + " << o.imm << "], r" << o.src2;
        break;
      case Opcode::Jmp:
        os << " B" << o.target0;
        break;
      case Opcode::Trap:
        os << " r" << o.src1 << ", B" << o.target0 << ", B" << o.target1
           << " (succBits " << unsigned(o.succBits) << ")";
        break;
      case Opcode::Fault:
        os << " r" << o.src1 << ", AB" << o.target0;
        if (o.imm != 0)
            os << ", inv";
        break;
      case Opcode::Call:
        os << " f" << o.callee << ", cont B" << o.target0;
        break;
      case Opcode::IJmp:
        os << " r" << o.src1 << ", table " << o.imm;
        break;
      case Opcode::Ret:
      case Opcode::Halt:
        break;
      default:
        os << " r" << o.dst << ", r" << o.src1 << ", r" << o.src2;
        break;
    }
    return os.str();
}

std::string
referenceModuleText(const Module &module)
{
    std::ostringstream os;
    os << "module main=f" << module.mainFunc << "\n";
    os << "data " << module.data.size() << "\n";
    for (std::size_t i = 0; i < module.data.size(); ++i)
        if (module.data[i] != 0)
            os << i << " " << module.data[i] << "\n";
    os << "end\n";
    for (const Function &fn : module.functions) {
        os << "func " << fn.name << " id=" << fn.id
           << " library=" << (fn.isLibrary ? 1 : 0)
           << " vregs=" << fn.numVirtualRegs
           << " frame=" << fn.frameSize << "\n";
        for (const Block &blk : fn.blocks) {
            os << "block\n";
            for (const Operation &op : blk.ops)
                os << "  " << referenceOpText(op) << "\n";
            os << "endblock\n";
        }
        for (const auto &table : fn.jumpTables) {
            os << "table";
            for (BlockId target : table)
                os << " B" << target;
            os << "\n";
        }
        os << "endfunc\n";
    }
    return os.str();
}

/** The writer's text equals the reference's, and moduleDigest hashes
 *  exactly that text. */
void
expectReferenceText(const Module &m, const std::string &what)
{
    SCOPED_TRACE(what);
    const std::string text = moduleToText(m);
    EXPECT_EQ(text, referenceModuleText(m));
    EXPECT_EQ(moduleDigest(m), fnv1a64(text));
}

/** A module holding the values a printer most easily gets wrong. */
Module
edgeValueModule()
{
    Module m;
    m.allocData(6);
    m.data[0] = 1ull << 63;
    m.data[2] = ~0ull;
    m.data[5] = 0x8000000000000001ull;
    Function &f = m.addFunction("edge_fn");
    m.mainFunc = f.id;
    f.isLibrary = true;
    f.numVirtualRegs = 0xfffffffeu;
    f.frameSize = 0xffffffffu;
    const BlockId b0 = f.newBlock();
    const BlockId b1 = f.newBlock();
    const BlockId b2 = f.newBlock();
    auto &ops = f.blocks[b0].ops;
    ops.push_back(makeMovI(40, INT64_MIN));
    ops.push_back(makeMovI(41, INT64_MAX));
    ops.push_back(makeMovI(42, -1));
    ops.push_back(makeBinI(Opcode::AddI, 43, 40, INT64_MIN));
    ops.push_back(makeBinI(Opcode::ShrI, 44, 43, -64));
    ops.push_back(makeLd(45, regSp, -8));
    ops.push_back(makeLd(46, 0xfffffffeu, INT64_MIN));
    ops.push_back(makeSt(regSp, -4096, 46));
    ops.push_back(makeSt(47, INT64_MAX, 0));
    Operation fault = makeFault(45, 0xfffffffeu);
    ops.push_back(fault);
    fault.imm = 1;  // inverted: fires when the condition is false
    ops.push_back(fault);
    fault.imm = -1;
    ops.push_back(fault);
    ops.push_back(makeIJmp(42, 1));
    Operation trap = makeTrap(42, b2, b1);
    trap.succBits = 255;
    f.blocks[b1].ops.push_back(trap);
    f.blocks[b2].ops.push_back(makeCall(0xfffffffeu, b0));
    f.jumpTables.push_back({b1});
    f.jumpTables.push_back({b2, b1, b2, 0xffffffffu});
    f.jumpTables.push_back({});
    m.addFunction("empty");
    return m;
}

} // namespace

TEST(TextReference, OperationsMatchTheReferencePrinter)
{
    const Module m = edgeValueModule();
    for (const Block &blk : m.functions[0].blocks)
        for (const Operation &op : blk.ops)
            EXPECT_EQ(op.toString(), referenceOpText(op));
    for (int i = 0; i <= static_cast<int>(Opcode::Halt); ++i) {
        Operation op = makeBin(static_cast<Opcode>(i), 7, 8, 9);
        op.imm = -3;
        op.target0 = 4;
        op.target1 = 5;
        op.callee = 6;
        EXPECT_EQ(op.toString(), referenceOpText(op)) << i;
    }
}

TEST(TextReference, EdgeValuesMatchTheReferencePrinter)
{
    expectReferenceText(edgeValueModule(), "edge values");
    expectReferenceText(Module{}, "empty module");
}

TEST(TextReference, SuiteMatchesTheReferencePrinter)
{
    // Each suite module's text is hundreds of KiB to MiB, so the
    // digest path drains many full chunks and a partial last one.
    for (const SpecBenchmark &bench : specint95Suite())
        expectReferenceText(generateWorkload(bench.params),
                            bench.params.name);
}

TEST(TextReference, FuzzProgramsMatchTheReferencePrinter)
{
    const auto &profiles = fuzz::genProfileNames();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const std::string &profile = profiles[seed % profiles.size()];
        const std::string source =
            fuzz::generateProgram(seed, fuzz::genProfile(profile)).render();
        const std::string what = profile + " seed " + std::to_string(seed);
        expectReferenceText(compileBlockCOrDie(source), what);
        CompileOptions raw;
        raw.optimize = false;
        raw.allocate = false;
        expectReferenceText(compileBlockCOrDie(source, raw),
                            what + " (virtual registers)");
    }
}

// ---------------------------------------------------------------
// Strict numbers: every number must fit its field exactly.
// ---------------------------------------------------------------

namespace
{

/** A valid module whose lines can be swapped out one at a time. */
std::string
smallModuleText(const std::string &header = "module main=f0",
                const std::string &data = "data 2\n1 5",
                const std::string &func =
                    "func main id=0 library=0 vregs=33 frame=8",
                const std::string &op = "mov r32, r4")
{
    return header + "\n" + data + "\nend\n" + func + "\nblock\n  " + op +
           "\n  movi r4, 7\n  halt\nendblock\nendfunc\n";
}

/** parseModuleText(@p text) fails, naming @p line and @p what. */
void
expectRejected(const std::string &text, unsigned line,
               const std::string &what)
{
    SCOPED_TRACE(text);
    const ParseModuleResult r = parseModuleText(text);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line " + std::to_string(line) + ": "),
              std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find(what), std::string::npos) << r.error;
}

} // namespace

TEST(ModuleText, StrictNumbersAcceptTheValidBaseline)
{
    const ParseModuleResult r = parseModuleText(smallModuleText());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(verifyModule(r.module).empty());
    EXPECT_EQ(r.module.data[1], 5u);
    EXPECT_EQ(r.module.functions[0].numVirtualRegs, 33u);
    EXPECT_EQ(r.module.functions[0].frameSize, 8u);

    // Field extremes that do fit are read exactly.
    const ParseModuleResult wide = parseModuleText(smallModuleText(
        "module main=f0", "data 2\n0 18446744073709551615",
        "func main id=0 library=1 vregs=33 frame=4294967295",
        "movi r32, -9223372036854775808"));
    ASSERT_TRUE(wide.ok) << wide.error;
    EXPECT_EQ(wide.module.data[0], ~0ull);
    EXPECT_TRUE(wide.module.functions[0].isLibrary);
    EXPECT_EQ(wide.module.functions[0].frameSize, 0xffffffffu);
    EXPECT_EQ(wide.module.functions[0].blocks[0].ops[0].imm, INT64_MIN);
}

TEST(ModuleText, RejectsNumbersThatDoNotFitTheirField)
{
    // Registers: read modulo 2^32 by strtoul before.
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8",
                                   "mov r4294967308, r4"),
                   7, "bad unary operands");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8",
                                   "mov r32, r-4"),
                   7, "bad unary operands");
    // Immediates: strtoll saturated silently.
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8",
                                   "movi r32, 99999999999999999999"),
                   7, "bad movi operands");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8",
                                   "ld r32, [r1 + 8x]"),
                   7, "bad load operands");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8",
                                   "ijmp r4, table -1"),
                   7, "bad ijmp operands");
    // Header numbers.
    expectRejected(smallModuleText("module main=f"), 1, "module main=fN");
    expectRejected(smallModuleText("module main=f4294967296"), 1,
                   "module main=fN");
    expectRejected(smallModuleText("module main=f0 x"), 1,
                   "module main=fN");
    // Data: a size the address space cannot hold threw length_error
    // before; a negative word was read modulo 2^64.
    expectRejected(smallModuleText("module main=f0",
                                   "data 99999999999999999999"),
                   2, "expected 'data N'");
    expectRejected(smallModuleText("module main=f0", "data 33423361"), 2,
                   "reaches the stack");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 -1"), 3,
                   "bad data entry");
    expectRejected(smallModuleText("module main=f0", "data 2\n2 1"), 3,
                   "bad data entry");
    expectRejected(smallModuleText("module main=f0", "data 0\n0 1"), 3,
                   "bad data entry");
    // Function header fields.
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id= library=0 vregs=33 "
                                   "frame=8"),
                   5, "function id mismatch");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=2 vregs=33 "
                                   "frame=8"),
                   5, "library=2");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=-1 "
                                   "frame=8"),
                   5, "vregs=-1");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=31 "
                                   "frame=8"),
                   5, "vregs=31");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 "
                                   "vregs=1048577 frame=8"),
                   5, "vregs=1048577");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=-8"),
                   5, "frame=-8");
    expectRejected(smallModuleText("module main=f0", "data 2\n1 5",
                                   "func main id=0 library=0 vregs=33 "
                                   "frame=8 x"),
                   5, "bad func header");
}
