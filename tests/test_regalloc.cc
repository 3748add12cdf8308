/**
 * @file
 * Unit and property tests for liveness analysis and the linear-scan
 * register allocator.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "frontend/compile.hh"
#include "fuzz/gen.hh"
#include "ir/cfg.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "regalloc/linearscan.hh"
#include "regalloc/liveness.hh"
#include "sim/interp.hh"
#include "support/rng.hh"
#include "workloads/specmix.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

Module
unallocatedCompile(const std::string &source)
{
    CompileOptions options;
    options.optimize = false;  // keep register pressure intact
    options.allocate = false;
    options.maxBlockOps = 0;
    return compileBlockCOrDie(source, options);
}

} // namespace

TEST(RegSet, BasicOperations)
{
    RegSet s(128);
    EXPECT_FALSE(s.contains(5));
    s.insert(5);
    s.insert(127);
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(127));
    EXPECT_EQ(s.count(), 2u);
    s.erase(5);
    EXPECT_FALSE(s.contains(5));

    const std::uint64_t row[2] = {0, 1};  // {r64}
    s.assign(row);
    EXPECT_TRUE(s.contains(64));
    EXPECT_FALSE(s.contains(127));
    EXPECT_EQ(s.count(), 1u);
}

TEST(Liveness, StraightLine)
{
    // B0: v = 1; w = v + v; trap w -> B1/B1 ... simplest check via a
    // compiled program: a value defined in the entry and used at the
    // end must be live across the middle block.
    Module m = unallocatedCompile(R"(
        fn main() {
            var keep = 123;
            var i = 0;
            while (i < 3) { i = i + 1; }
            return keep + i;
        }
    )");
    const Function &f = m.functions[m.mainFunc];
    const Liveness live = computeLiveness(f);
    // 'keep' must be live-in to every loop block; find its register by
    // looking at the MovI 123.
    // Unoptimized IR materializes 123 into a temp then copies it into
    // the variable's register; follow the copy.
    RegNum temp_reg = invalidId, keep_reg = invalidId;
    for (const auto &blk : f.blocks)
        for (const auto &op : blk.ops) {
            if (op.op == Opcode::MovI && op.imm == 123)
                temp_reg = op.dst;
            else if (op.op == Opcode::Mov && op.src1 == temp_reg &&
                     temp_reg != invalidId && keep_reg == invalidId)
                keep_reg = op.dst;
        }
    ASSERT_NE(keep_reg, invalidId);
    unsigned live_blocks = 0;
    for (BlockId b = 0; b < f.blocks.size(); ++b)
        live_blocks += live.liveIn(b, keep_reg);
    EXPECT_GE(live_blocks, 2u);
}

TEST(Liveness, DeadAfterLastUse)
{
    Module m = unallocatedCompile(R"(
        fn main() {
            var early = 5;
            var late = early + 1;
            var i = 0;
            while (i < 3) { i = i + late; }
            return i;
        }
    )");
    const Function &f = m.functions[m.mainFunc];
    const Liveness live = computeLiveness(f);
    RegNum early_reg = invalidId;
    for (const auto &blk : f.blocks)
        for (const auto &op : blk.ops)
            if (op.op == Opcode::MovI && op.imm == 5)
                early_reg = op.dst;
    ASSERT_NE(early_reg, invalidId);
    // 'early' must not be live out of the loop blocks.
    const auto rpo_last = f.blocks.size() - 1;
    EXPECT_FALSE(live.liveOut(BlockId(rpo_last), early_reg));
}

namespace
{

/** Brute-force reference liveness: per-block std::set fixpoint,
 *  straight from the dataflow equations. */
struct ReferenceLiveness
{
    std::vector<std::set<RegNum>> in, out;
};

std::vector<RegNum>
referenceUses(const Operation &op)
{
    switch (op.op) {
      case Opcode::Call: {
        std::vector<RegNum> all;
        for (RegNum r = 1; r < numArchRegs; ++r)
            all.push_back(r);
        return all;
      }
      case Opcode::Ret:
      case Opcode::Halt:
        return {regRet};
      default:
        break;
    }
    const unsigned n = numSources(op.op);
    if (n == 0)
        return {};
    if (n == 1)
        return {op.src1};
    return {op.src1, op.src2};
}

ReferenceLiveness
referenceLiveness(const Function &f)
{
    const std::size_t n = f.blocks.size();
    std::vector<std::set<RegNum>> gen(n), kill(n);
    for (std::size_t b = 0; b < n; ++b) {
        for (const Operation &op : f.blocks[b].ops) {
            for (RegNum u : referenceUses(op))
                if (u != regZero && !kill[b].count(u))
                    gen[b].insert(u);
            if (op.op == Opcode::Call)
                kill[b].insert(regRet);
            else if (hasDest(op.op))
                kill[b].insert(op.dst);
        }
    }
    ReferenceLiveness ref;
    ref.in.resize(n);
    ref.out.resize(n);
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            std::set<RegNum> out;
            for (BlockId s : blockSuccessors(f, BlockId(b)))
                out.insert(ref.in[s].begin(), ref.in[s].end());
            std::set<RegNum> in = gen[b];
            for (RegNum r : out)
                if (!kill[b].count(r))
                    in.insert(r);
            if (in != ref.in[b] || out != ref.out[b]) {
                ref.in[b] = std::move(in);
                ref.out[b] = std::move(out);
                changed = true;
            }
        }
    }
    return ref;
}

/** computeLiveness(f) equals the reference on every block and
 *  register. */
void
expectReferenceLiveness(const Function &f, const std::string &what)
{
    const Liveness live = computeLiveness(f);
    const ReferenceLiveness ref = referenceLiveness(f);
    for (BlockId b = 0; b < f.blocks.size(); ++b) {
        for (RegNum r = 0; r < f.numVirtualRegs; ++r) {
            ASSERT_EQ(live.liveIn(b, r), ref.in[b].count(r) != 0)
                << what << " " << f.name << " B" << b << " r" << r;
            ASSERT_EQ(live.liveOut(b, r), ref.out[b].count(r) != 0)
                << what << " " << f.name << " B" << b << " r" << r;
        }
    }
}

} // namespace

TEST(Liveness, MatchesReferenceOnTheSuite)
{
    for (const SpecBenchmark &bench : specint95Suite()) {
        const Module m = generateWorkload(bench.params);
        for (const Function &f : m.functions)
            expectReferenceLiveness(f, bench.params.name);
    }
}

TEST(Liveness, MatchesReferenceOnFuzzPrograms)
{
    const auto &profiles = fuzz::genProfileNames();
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const std::string &profile = profiles[seed % profiles.size()];
        const std::string source =
            fuzz::generateProgram(seed, fuzz::genProfile(profile)).render();
        const std::string what = profile + " seed " + std::to_string(seed);
        // Virtual registers before and after the optimizer, and the
        // allocated form.
        CompileOptions raw;
        raw.optimize = false;
        raw.allocate = false;
        raw.maxBlockOps = 0;
        CompileOptions optimized = raw;
        optimized.optimize = true;
        for (const Module &m :
             {compileBlockCOrDie(source, raw),
              compileBlockCOrDie(source, optimized),
              compileBlockCOrDie(source)}) {
            for (const Function &f : m.functions)
                expectReferenceLiveness(f, what);
        }
    }
}

TEST(LinearScan, NoVirtualRegistersRemain)
{
    Module m = unallocatedCompile(R"(
        fn busy(a, b) {
            var c = a + b; var d = a - b; var e = a * b;
            var f = a & b; var g = a | b; var h = a ^ b;
            return c + d + e + f + g + h;
        }
        fn main() { return busy(9, 4); }
    )");
    allocateModule(m);
    for (const auto &f : m.functions) {
        EXPECT_EQ(f.numVirtualRegs, numArchRegs);
        for (const auto &blk : f.blocks) {
            for (const auto &op : blk.ops) {
                if (hasDest(op.op)) {
                    EXPECT_LT(op.dst, numArchRegs);
                }
                if (numSources(op.op) >= 1) {
                    EXPECT_LT(op.src1, numArchRegs);
                }
                if (numSources(op.op) >= 2) {
                    EXPECT_LT(op.src2, numArchRegs);
                }
            }
        }
    }
    EXPECT_TRUE(verifyModule(m).empty());
    Interp interp(m);
    interp.run();
    EXPECT_EQ(interp.exitValue(),
              (9u + 4) + (9 - 4) + 36 + (9 & 4) + (9 | 4) + (9 ^ 4));
}

TEST(LinearScan, SpillsUnderPressureAndStaysCorrect)
{
    // 30 simultaneously-live values >> 20 allocatable registers.
    std::ostringstream os;
    os << "fn main() {\n";
    for (int i = 0; i < 30; ++i)
        os << "  var v" << i << " = " << (i * 7 + 1) << ";\n";
    os << "  var sum = 0;\n";
    // Use them in reverse so every interval spans the whole region.
    for (int i = 29; i >= 0; --i)
        os << "  sum = sum + v" << i << ";\n";
    os << "  return sum;\n}\n";

    Module m = unallocatedCompile(os.str());
    // Disable optimization effects by compiling raw; allocate now.
    const RegAllocStats stats = allocateModule(m);
    EXPECT_GT(stats.spilled, 0u);
    EXPECT_GT(stats.spillOpsAdded, 0u);
    EXPECT_GT(m.functions[m.mainFunc].frameSize, 0u);
    EXPECT_TRUE(verifyModule(m).empty());

    std::uint64_t expected = 0;
    for (int i = 0; i < 30; ++i)
        expected += i * 7 + 1;
    Interp interp(m);
    interp.run();
    EXPECT_EQ(interp.exitValue(), expected);
}

TEST(LinearScan, FrameSizeCoversSlots)
{
    Module m = unallocatedCompile(R"(
        fn main() { return 1; }
    )");
    allocateModule(m);
    EXPECT_EQ(m.functions[m.mainFunc].frameSize % 8, 0u);
}

// ---------------------------------------------------------------------
// Property test: allocation preserves semantics under pressure.
// ---------------------------------------------------------------------

namespace
{

std::string
pressureProgram(Rng &rng)
{
    std::ostringstream os;
    const int vars = 8 + int(rng.nextBelow(30));
    os << "var g[8];\n";
    os << "fn mix(seed) {\n";
    for (int i = 0; i < vars; ++i) {
        os << "  var v" << i << " = seed * " << (i + 1) << " + "
           << rng.nextBelow(50) << ";\n";
    }
    os << "  var acc = 0;\n";
    for (int i = vars - 1; i >= 0; --i) {
        os << "  acc = acc " << (rng.chance(0.7) ? "+" : "^") << " v"
           << i << ";\n";
    }
    if (rng.chance(0.6))
        os << "  if (acc & 1) { acc = acc + v0; } else"
              " { acc = acc + v1; }\n";
    os << "  g[seed & 7] = acc;\n  return acc;\n}\n";
    os << "fn main() {\n  var t = 0;\n";
    os << "  for (var i = 0; i < 5; i = i + 1)"
          " { t = t + mix(i + 1); }\n";
    os << "  return t;\n}\n";
    return os.str();
}

} // namespace

class RegAllocPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RegAllocPropertyTest, AllocationPreservesSemantics)
{
    Rng rng(7000 + GetParam());
    const std::string src = pressureProgram(rng);
    Module pre = unallocatedCompile(src);
    Interp ip(pre);
    ip.run();
    const std::uint64_t want_exit = ip.exitValue();
    const std::uint64_t want_sum = ip.dataChecksum();

    Module post = unallocatedCompile(src);
    allocateModule(post);
    ASSERT_TRUE(verifyModule(post).empty()) << src;
    Interp ia(post);
    ia.run();
    EXPECT_EQ(ia.exitValue(), want_exit) << src;
    EXPECT_EQ(ia.dataChecksum(), want_sum) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegAllocPropertyTest,
                         ::testing::Range(0, 25));
