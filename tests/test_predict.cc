/**
 * @file
 * Unit tests for the two-level adaptive predictor and the block
 * successor predictor (BTB fill, 3-bit predictions, variable history
 * shift).
 */

#include <gtest/gtest.h>

#include "predict/blockpred.hh"
#include "predict/twolevel.hh"

using namespace bsisa;

namespace
{

PredictorConfig
smallConfig()
{
    PredictorConfig cfg;
    cfg.historyBits = 8;
    cfg.phtBits = 10;
    cfg.btbEntries = 64;
    cfg.btbAssoc = 4;
    return cfg;
}

} // namespace

TEST(TwoLevel, LearnsBias)
{
    TwoLevelPredictor p(smallConfig());
    const std::uint64_t pc = 0x4000;
    for (int i = 0; i < 50; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predictTaken(pc));
    for (int i = 0; i < 50; ++i)
        p.update(pc, false);
    EXPECT_FALSE(p.predictTaken(pc));
}

TEST(TwoLevel, LearnsAlternatingPattern)
{
    // With global history, a strict T/N alternation becomes perfectly
    // predictable after warmup.
    TwoLevelPredictor p(smallConfig());
    const std::uint64_t pc = 0x4000;
    bool dir = false;
    for (int i = 0; i < 200; ++i) {
        p.update(pc, dir);
        dir = !dir;
    }
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        correct += p.predictTaken(pc) == dir;
        p.update(pc, dir);
        dir = !dir;
    }
    EXPECT_GT(correct, 95u);
}

TEST(TwoLevel, LearnsPeriodicPattern)
{
    // Pattern T T N repeating: needs >= 3 history bits.
    TwoLevelPredictor p(smallConfig());
    const std::uint64_t pc = 0x8000;
    const bool pattern[3] = {true, true, false};
    for (int i = 0; i < 300; ++i)
        p.update(pc, pattern[i % 3]);
    unsigned correct = 0;
    for (int i = 0; i < 99; ++i) {
        const bool actual = pattern[i % 3];
        correct += p.predictTaken(pc) == actual;
        p.update(pc, actual);
    }
    EXPECT_GT(correct, 92u);
}

TEST(TwoLevel, BtbStoresTargets)
{
    TwoLevelPredictor p(smallConfig());
    EXPECT_EQ(p.predictTarget(0x100), ~0ull);
    p.updateTarget(0x100, 0xaaaa);
    EXPECT_EQ(p.predictTarget(0x100), 0xaaaau);
    p.updateTarget(0x100, 0xbbbb);
    EXPECT_EQ(p.predictTarget(0x100), 0xbbbbu);
}

TEST(TwoLevel, BtbEvictsLru)
{
    PredictorConfig cfg = smallConfig();
    cfg.btbEntries = 8;
    cfg.btbAssoc = 2;  // 4 sets
    TwoLevelPredictor p(cfg);
    // Three PCs in the same set (pc>>2 % 4 equal).
    const std::uint64_t a = 0x00, b = 0x10, c = 0x20;
    p.updateTarget(a, 1);
    p.updateTarget(b, 2);
    p.predictTarget(a);
    p.updateTarget(c, 3);  // evicts the LRU entry
    const int present = (p.predictTarget(a) != ~0ull) +
                        (p.predictTarget(b) != ~0ull) +
                        (p.predictTarget(c) != ~0ull);
    EXPECT_EQ(present, 2);
    EXPECT_NE(p.predictTarget(c), ~0ull);
}

TEST(TwoLevel, ReturnAddressStack)
{
    TwoLevelPredictor p(smallConfig());
    p.returnStack().push(11);
    p.returnStack().push(22);
    EXPECT_EQ(p.returnStack().pop(), 22u);
    EXPECT_EQ(p.returnStack().pop(), 11u);
    EXPECT_EQ(p.returnStack().pop(), ~0ull);
}

TEST(BlockPred, LearnsThreeBitSelection)
{
    BlockPredictor p(smallConfig());
    const std::uint64_t pc = 0x4000;
    BlockPredictor::Prediction actual;
    actual.trapTaken = true;
    actual.variantBits = 2;
    for (int i = 0; i < 50; ++i)
        p.update(pc, actual, 3, 6);
    const auto pred = p.probe(pc).pred;
    EXPECT_TRUE(pred.trapTaken);
    EXPECT_EQ(pred.variantBits, 2u);
}

TEST(BlockPred, BtbSlotsFillIncrementally)
{
    BlockPredictor p(smallConfig());
    const std::uint64_t pc = 0x4000;
    EXPECT_EQ(p.probe(pc).btb.succ, nullptr);
    EXPECT_EQ(p.probe(pc).btb.successor(0), ~0ull);
    EXPECT_EQ(p.probe(pc).btb.lastSucc, ~0ull);
    p.install(pc, 0, 100);
    EXPECT_NE(p.probe(pc).btb.succ, nullptr);
    EXPECT_EQ(p.probe(pc).btb.successor(0), 100u);
    EXPECT_EQ(p.probe(pc).btb.successor(3), ~0ull);  // not yet seen
    p.install(pc, 3, 103);
    EXPECT_EQ(p.probe(pc).btb.successor(3), 103u);
    EXPECT_EQ(p.probe(pc).btb.lastSucc, 103u);
}

TEST(BlockPred, VariableHistoryShiftChangesIndexing)
{
    // Two predictors fed the same outcomes but with different shift
    // amounts must diverge in PHT state; we detect that via a pattern
    // only learnable when the shift keeps history compact.
    PredictorConfig cfg = smallConfig();
    cfg.historyBits = 4;
    BlockPredictor narrow(cfg);
    const std::uint64_t pc = 0x1000;

    // Period-2 variant pattern: variants 0, 1, 0, 1 ...
    // With a 1-bit shift the 4-bit history distinguishes phases.
    for (int i = 0; i < 400; ++i) {
        BlockPredictor::Prediction actual;
        actual.trapTaken = false;
        actual.variantBits = i & 1;
        narrow.update(pc, actual, 1, i & 1);
    }
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        const unsigned expect_bits = i & 1;
        correct += narrow.probe(pc).pred.variantBits == expect_bits;
        BlockPredictor::Prediction actual;
        actual.trapTaken = false;
        actual.variantBits = expect_bits;
        narrow.update(pc, actual, 1, expect_bits);
    }
    EXPECT_GT(correct, 90u);
}

TEST(BlockPred, ZeroShiftPreservesHistory)
{
    // succBits == 0 must leave the history register untouched: train a
    // history-dependent pattern at pc A, interleave zero-shift updates
    // at pc B, and verify A's pattern stays learnable.
    PredictorConfig cfg = smallConfig();
    BlockPredictor p(cfg);
    // Low PHT-index bits must differ or the two PCs alias.
    const std::uint64_t a = 0x104, b = 0x208;
    for (int i = 0; i < 400; ++i) {
        BlockPredictor::Prediction actual;
        actual.trapTaken = (i & 1) != 0;
        actual.variantBits = 0;
        p.update(a, actual, 1, i & 1);
        // Zero-bit shifts (single-successor blocks) in between.
        BlockPredictor::Prediction noop;
        noop.trapTaken = false;
        noop.variantBits = 0;
        p.update(b, noop, 0, 0);
    }
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        const bool expect_taken = (i & 1) != 0;
        correct += p.probe(a).pred.trapTaken == expect_taken;
        BlockPredictor::Prediction actual;
        actual.trapTaken = expect_taken;
        actual.variantBits = 0;
        p.update(a, actual, 1, i & 1);
        BlockPredictor::Prediction noop;
        p.update(b, noop, 0, 0);
    }
    EXPECT_GT(correct, 90u);
}

TEST(Schemes, NamesAndConstruction)
{
    EXPECT_STREQ(predictorSchemeName(PredictorScheme::GAg), "GAg");
    EXPECT_STREQ(predictorSchemeName(PredictorScheme::PAs), "PAs");
    for (PredictorScheme scheme :
         {PredictorScheme::GAg, PredictorScheme::GAs,
          PredictorScheme::PAg, PredictorScheme::PAs}) {
        PredictorConfig cfg = smallConfig();
        cfg.scheme = scheme;
        TwoLevelPredictor p(cfg);
        p.update(0x40, true);
        (void)p.predictTaken(0x40);
        BlockPredictor b(cfg);
        b.update(0x40, BlockPredictor::Prediction{}, 1, 0);
        (void)b.probe(0x40);
    }
}

TEST(Schemes, PerAddressHistoryIsolatesBranches)
{
    // Branch A alternates; branch B is always taken.  With GLOBAL
    // history B's updates pollute A's phase information when they
    // interleave 1:1 at the same rate... but with PER-ADDRESS history
    // A's pattern is tracked in its own register, so A must reach
    // near-perfect accuracy.
    PredictorConfig cfg = smallConfig();
    cfg.scheme = PredictorScheme::PAs;
    TwoLevelPredictor p(cfg);
    const std::uint64_t a = 0x104, b = 0x208;
    for (int i = 0; i < 400; ++i) {
        p.update(a, (i & 1) != 0);
        p.update(b, true);
        p.update(b, true);
        p.update(b, (i % 7) == 0);  // noise in B's history only
    }
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        const bool actual = (i & 1) != 0;
        correct += p.predictTaken(a) == actual;
        p.update(a, actual);
        p.update(b, true);
        p.update(b, true);
        p.update(b, (i % 7) == 0);
    }
    EXPECT_GT(correct, 90u);
}

TEST(Schemes, GAgSharesOnePhtRow)
{
    // GAg ignores the branch address entirely: two branches with the
    // same history land in the same PHT entry.
    PredictorConfig cfg = smallConfig();
    cfg.scheme = PredictorScheme::GAg;
    TwoLevelPredictor p(cfg);
    // Saturate taken with zero history at pc A.
    for (int i = 0; i < 8; ++i) {
        p.update(0x104, true);
        // Reset history to zero by shifting in zeros via not-taken.
        for (int k = 0; k < 12; ++k)
            p.update(0x104, false);
    }
    for (int k = 0; k < 12; ++k)
        p.update(0x104, false);
    // A completely different pc with the same (zero) history sees the
    // same counter state.
    EXPECT_EQ(p.predictTaken(0x104), p.predictTaken(0x999104));
}

TEST(BlockPred, ReturnStack)
{
    BlockPredictor p(smallConfig());
    p.returnStack().push(7);
    EXPECT_EQ(p.returnStack().pop(), 7u);
    EXPECT_EQ(p.returnStack().pop(), ~0ull);
}

TEST(ReturnStack_, DropsPushesPastItsCapBothPredictors)
{
    // 4097 pushes of tokens 1..4097 keep the first 4096: the first pop
    // returns 4096 and the 4097th finds the stack empty.
    const auto check = [](ReturnStack &ras) {
        for (std::uint64_t token = 1; token <= 4097; ++token)
            ras.push(token);
        EXPECT_EQ(ras.pop(), 4096u);
        for (int i = 2; i <= 4096; ++i)
            ras.pop();
        EXPECT_EQ(ras.pop(), ~0ull);
    };
    static_assert(ReturnStack::capacity == 4096);
    TwoLevelPredictor conv(smallConfig());
    check(conv.returnStack());
    BlockPredictor block(smallConfig());
    check(block.returnStack());
}

TEST(BlockPred, BtbEvictsLru)
{
    // The block BTB sits on the same LRU set array as the conventional
    // one: the least recently installed of three same-set blocks goes.
    PredictorConfig cfg = smallConfig();
    cfg.btbEntries = 8;
    cfg.btbAssoc = 2;  // 4 sets
    BlockPredictor p(cfg);
    const std::uint64_t a = 0x00, b = 0x10, c = 0x20;
    p.install(a, 0, 1);
    p.install(b, 0, 2);
    p.install(a, 1, 3);  // a becomes most recently used
    p.install(c, 0, 4);  // evicts b
    EXPECT_EQ(p.probe(a).btb.successor(1), 3u);
    EXPECT_EQ(p.probe(b).btb.succ, nullptr);
    EXPECT_EQ(p.probe(c).btb.lastSucc, 4u);
    // A probe is not a use: a stays the least recently used.
    (void)p.probe(a);
    p.install(b, 0, 5);  // evicts a
    EXPECT_EQ(p.probe(a).btb.succ, nullptr);
    EXPECT_NE(p.probe(c).btb.succ, nullptr);
}
