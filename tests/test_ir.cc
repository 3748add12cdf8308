/**
 * @file
 * Unit tests for the IR: module construction, CFG utilities,
 * dominators, natural loops, and the verifier.
 */

#include <gtest/gtest.h>

#include "ir/cfg.hh"
#include "ir/dom.hh"
#include "ir/module.hh"
#include "ir/verifier.hh"


using namespace bsisa;

namespace
{

/** Diamond: B0 -> (B1|B2) -> B3 -> halt. */
Module
diamondModule()
{
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    f.newBlock();  // B0
    f.newBlock();  // B1
    f.newBlock();  // B2
    f.newBlock();  // B3
    const RegNum c = f.newReg();
    f.blocks[0].ops = {makeMovI(c, 1), makeTrap(c, 1, 2)};
    f.blocks[1].ops = {makeJmp(3)};
    f.blocks[2].ops = {makeJmp(3)};
    f.blocks[3].ops = {makeHalt()};
    return m;
}

/** Loop: B0 -> B1(header) -> B2(body) -> B1; B1 -> B3 exit. */
Module
loopModule()
{
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    for (int i = 0; i < 4; ++i)
        f.newBlock();
    const RegNum c = f.newReg();
    f.blocks[0].ops = {makeMovI(c, 10), makeJmp(1)};
    f.blocks[1].ops = {makeTrap(c, 2, 3)};
    f.blocks[2].ops = {makeBinI(Opcode::AddI, c, c, -1), makeJmp(1)};
    f.blocks[3].ops = {makeHalt()};
    return m;
}

} // namespace

TEST(Module, AddAndFindFunctions)
{
    Module m;
    // NOTE: addFunction invalidates earlier Function references.
    m.addFunction("alpha");
    m.addFunction("beta");
    EXPECT_EQ(m.functions[0].id, 0u);
    EXPECT_EQ(m.functions[1].id, 1u);
    EXPECT_EQ(m.findFunction("alpha")->id, 0u);
    EXPECT_EQ(m.findFunction("nope"), nullptr);
}

TEST(Module, DataAllocation)
{
    Module m;
    const std::uint64_t a = m.allocData(4);
    const std::uint64_t b = m.allocData(2);
    EXPECT_EQ(a, Module::dataBase);
    EXPECT_EQ(b, Module::dataBase + 32);
    EXPECT_EQ(m.data.size(), 6u);
}

TEST(Module, NewRegAndNumOps)
{
    Module m = diamondModule();
    Function &f = m.functions[0];
    EXPECT_EQ(f.newReg(), firstVirtualReg + 1);
    EXPECT_EQ(f.numOps(), 5u);
    EXPECT_EQ(m.numOps(), 5u);
}

TEST(Cfg, DiamondSuccessors)
{
    const Module m = diamondModule();
    const Function &f = m.functions[0];
    EXPECT_EQ(blockSuccessors(f, 0), (std::vector<BlockId>{1, 2}));
    EXPECT_EQ(blockSuccessors(f, 1), (std::vector<BlockId>{3}));
    EXPECT_EQ(blockSuccessors(f, 3), (std::vector<BlockId>{}));
}

TEST(Cfg, Predecessors)
{
    const Module m = diamondModule();
    const auto preds = blockPredecessors(m.functions[0]);
    EXPECT_TRUE(preds[0].empty());
    EXPECT_EQ(preds[3], (std::vector<BlockId>{1, 2}));
}

TEST(Cfg, ReversePostOrderStartsAtEntry)
{
    const Module m = diamondModule();
    const auto rpo = reversePostOrder(m.functions[0]);
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), 0u);
    EXPECT_EQ(rpo.back(), 3u);
}

TEST(Cfg, UnreachableBlocksOmitted)
{
    Module m = diamondModule();
    Function &f = m.functions[0];
    const BlockId dead = f.newBlock();
    f.blocks[dead].ops = {makeHalt()};
    const auto reach = reachableBlocks(f);
    EXPECT_FALSE(reach[dead]);
    EXPECT_TRUE(reach[0]);
    EXPECT_EQ(reversePostOrder(f).size(), 4u);
}

TEST(Cfg, CallSuccessorIsContinuation)
{
    Module m;
    m.mainFunc = m.addFunction("main").id;
    m.addFunction("callee");
    Function &g = m.functions[1];
    g.newBlock();
    g.blocks[0].ops = {makeRet()};
    Function &f = m.functions[0];
    f.newBlock();
    f.newBlock();
    f.blocks[0].ops = {makeCall(g.id, 1)};
    f.blocks[1].ops = {makeHalt()};
    EXPECT_EQ(blockSuccessors(m.functions[0], 0),
              (std::vector<BlockId>{1}));
}

TEST(Cfg, IJmpSuccessorsDeduplicated)
{
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    for (int i = 0; i < 3; ++i)
        f.newBlock();
    const RegNum s = f.newReg();
    f.jumpTables.push_back({1, 2, 1});
    f.blocks[0].ops = {makeMovI(s, 0), makeIJmp(s, 0)};
    f.blocks[1].ops = {makeHalt()};
    f.blocks[2].ops = {makeHalt()};
    EXPECT_EQ(blockSuccessors(f, 0), (std::vector<BlockId>{1, 2}));
}

TEST(Dom, Diamond)
{
    const Module m = diamondModule();
    const DomInfo dom(m.functions[0]);
    EXPECT_TRUE(dom.dominates(0, 0));
    EXPECT_TRUE(dom.dominates(0, 1));
    EXPECT_TRUE(dom.dominates(0, 3));
    EXPECT_FALSE(dom.dominates(1, 3));
    EXPECT_FALSE(dom.dominates(2, 3));
    EXPECT_EQ(dom.idom(3), 0u);
    EXPECT_EQ(dom.idom(1), 0u);
}

TEST(Dom, LoopBackEdgeAndHeader)
{
    const Module m = loopModule();
    const DomInfo dom(m.functions[0]);
    EXPECT_TRUE(dom.isBackEdge(2, 1));
    EXPECT_FALSE(dom.isBackEdge(1, 2));
    EXPECT_FALSE(dom.isBackEdge(0, 1));
    EXPECT_TRUE(dom.isLoopHeader(1));
    EXPECT_FALSE(dom.isLoopHeader(2));
    EXPECT_FALSE(dom.isLoopHeader(0));
}

TEST(Dom, UnreachableBlocks)
{
    Module m = diamondModule();
    Function &f = m.functions[0];
    const BlockId dead = f.newBlock();
    f.blocks[dead].ops = {makeHalt()};
    const DomInfo dom(f);
    EXPECT_FALSE(dom.reachable(dead));
    EXPECT_FALSE(dom.dominates(0, dead));
    EXPECT_TRUE(dom.reachable(3));
}

TEST(Verifier, AcceptsValidModule)
{
    const Module m = diamondModule();
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Verifier, RejectsUnsealedBlock)
{
    Module m = diamondModule();
    m.functions[0].blocks[3].ops = {makeMovI(firstVirtualReg, 1)};
    const auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsMidBlockTerminator)
{
    Module m = diamondModule();
    m.functions[0].blocks[1].ops = {makeJmp(3), makeJmp(3)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, RejectsOutOfRangeTarget)
{
    Module m = diamondModule();
    m.functions[0].blocks[1].ops = {makeJmp(99)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, RejectsOutOfRangeRegister)
{
    Module m = diamondModule();
    Function &f = m.functions[0];
    f.blocks[1].ops = {makeMov(f.numVirtualRegs + 5, 1), makeJmp(3)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, RejectsWriteToZeroRegister)
{
    Module m = diamondModule();
    m.functions[0].blocks[1].ops = {makeMovI(regZero, 1), makeJmp(3)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, AcceptsHaltFreeLoopingMain)
{
    // An infinite-loop main legitimately has no halt (unreachable
    // code elimination removes it); the verifier must accept it.
    Module m = diamondModule();
    m.functions[0].blocks[3].ops = {makeJmp(3)};
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Verifier, RejectsFaultInConventionalIR)
{
    Module m = diamondModule();
    m.functions[0].blocks[1].ops = {makeFault(firstVirtualReg, 0),
                                    makeJmp(3)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, RejectsBadCall)
{
    Module m = diamondModule();
    m.functions[0].blocks[1].ops = {makeCall(42, 3)};
    EXPECT_FALSE(verifyModule(m).empty());
}

TEST(Verifier, RejectsBadJumpTable)
{
    Module m = diamondModule();
    Function &f = m.functions[0];
    f.blocks[1].ops = {makeIJmp(firstVirtualReg, 0)};
    EXPECT_FALSE(verifyModule(m).empty());  // table 0 does not exist
}
