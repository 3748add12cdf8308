/**
 * @file
 * Unit tests for the support layer: RNG determinism and distributions,
 * saturating counters, bit utilities, tables, the stats registry, and
 * the strict number and option parser.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/bitutil.hh"
#include "support/digest.hh"
#include "support/env.hh"
#include "support/parse.hh"
#include "support/rng.hh"
#include "support/sat_counter.hh"
#include "support/table.hh"

using namespace bsisa;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(7);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++hits[rng.nextBelow(8)];
    for (int h : hits)
        EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, SizeDrawMeanAndCap)
{
    Rng rng(17);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const unsigned v = rng.sizeDraw(5.0, 16);
        ASSERT_GE(v, 1u);
        ASSERT_LE(v, 16u);
        sum += v;
    }
    // Mean is pulled below 5 by the cap; accept a loose band.
    EXPECT_GT(sum / n, 3.5);
    EXPECT_LT(sum / n, 5.5);
}

TEST(Rng, SplitIndependent)
{
    Rng a(5);
    Rng b = a.split();
    // Streams should not be identical.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(SatCounter, TwoBitStateMachine)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.predictTaken());
    c.train(true);   // 1
    EXPECT_FALSE(c.predictTaken());
    c.train(true);   // 2
    EXPECT_TRUE(c.predictTaken());
    c.train(true);   // 3
    c.train(true);   // saturates at 3
    EXPECT_EQ(c.value(), 3u);
    c.train(false);  // 2
    EXPECT_TRUE(c.predictTaken());
    c.train(false);  // 1
    EXPECT_FALSE(c.predictTaken());
    c.train(false);
    c.train(false);  // saturates at 0
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, OneBit)
{
    SatCounter c(1, 0);
    EXPECT_FALSE(c.predictTaken());
    c.train(true);
    EXPECT_TRUE(c.predictTaken());
    c.train(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(8), 3u);
    EXPECT_EQ(ceilLog2(9), 4u);
}

TEST(BitUtil, PowerOfTwoAndMask)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(3), 7u);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(Table, AlignsAndFormats)
{
    Table t({"name", "value"});
    t.addRow({"alpha", Table::fmt(std::uint64_t(42))});
    t.addRow({"b", Table::fmt(3.14159, 2)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, ThousandsSeparator)
{
    EXPECT_EQ(Table::fmtSep(0), "0");
    EXPECT_EQ(Table::fmtSep(999), "999");
    EXPECT_EQ(Table::fmtSep(1000), "1,000");
    EXPECT_EQ(Table::fmtSep(103015025), "103,015,025");
}

TEST(BarChart, RendersAllSeries)
{
    BarChart chart("demo", {"conv", "bsa"});
    chart.addGroup("gcc", {10.0, 8.0});
    chart.addGroup("go", {5.0, 6.0});
    std::ostringstream os;
    chart.print(os, 20);
    const std::string s = os.str();
    EXPECT_NE(s.find("gcc"), std::string::npos);
    EXPECT_NE(s.find("go"), std::string::npos);
    EXPECT_NE(s.find("conv"), std::string::npos);
    EXPECT_NE(s.find("bsa"), std::string::npos);
}

TEST(Env, DefaultsAndParses)
{
    ::unsetenv("BSISA_TEST_ENV");
    EXPECT_EQ(envU64("BSISA_TEST_ENV", 7), 7u);
    ::setenv("BSISA_TEST_ENV", "123", 1);
    EXPECT_EQ(envU64("BSISA_TEST_ENV", 7), 123u);
    // Decimal only: a leading zero is not octal.
    ::setenv("BSISA_TEST_ENV", "0100", 1);
    EXPECT_EQ(envU64("BSISA_TEST_ENV", 7), 100u);
    ::unsetenv("BSISA_TEST_ENV");
}

TEST(Env, RejectsAnythingButADecimal)
{
    for (const char *bad : {"0x10", "-1", "+5", " 5", "5 ", "4x",
                            "18446744073709551616"}) {
        ::setenv("BSISA_TEST_ENV", bad, 1);
        EXPECT_EXIT(envU64("BSISA_TEST_ENV", 7),
                    ::testing::ExitedWithCode(1), "BSISA_TEST_ENV")
            << bad;
    }
    ::unsetenv("BSISA_TEST_ENV");
}

TEST(ParseNumber, TakesTheWholeTokenOrNothing)
{
    std::uint32_t v = 9;
    EXPECT_TRUE(parseNumber("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
    for (const char *bad : {"", "4294967296", "-1", "+1", " 1", "1 ", "1x",
                            "0x1"}) {
        EXPECT_FALSE(parseNumber(bad, v)) << bad;
        EXPECT_EQ(v, 4294967295u);
    }
    std::int64_t s = 0;
    EXPECT_TRUE(parseNumber("-12", s));
    EXPECT_EQ(s, -12);
    std::uint64_t h = 0;
    EXPECT_TRUE(parseNumber("00000000deadBEEF", h, 16));
    EXPECT_EQ(h, 0xdeadbeefu);
    EXPECT_FALSE(parseNumber("0xdeadbeef", h, 16));
}

namespace
{

constexpr OptionSpec testOptions[] = {{"--count", true}, {"--flag"}};

/** Parse @p args against testOptions with at most one positional. */
bool
parseTestArgs(std::vector<const char *> args, CommandLine &out,
              std::string &error)
{
    std::vector<char *> argv;
    for (const char *arg : args)
        argv.push_back(const_cast<char *>(arg));
    return parseCommandLine(argv, testOptions, 1, out, error);
}

} // namespace

TEST(CommandLine, ParsesDeclaredOptions)
{
    CommandLine cl;
    std::string error;
    ASSERT_TRUE(parseTestArgs({"in.bc", "--count", "-1", "--flag"}, cl,
                              error));
    ASSERT_EQ(cl.positional.size(), 1u);
    EXPECT_EQ(cl.positional[0], "in.bc");
    EXPECT_EQ(cl.get("--count"), "-1");  // a value is taken verbatim
    EXPECT_EQ(cl.get("--flag"), "true");
    EXPECT_EQ(cl.get("--other", "fallback"), "fallback");

    unsigned count = 5;
    EXPECT_FALSE(cl.number("--count", count, error));
    EXPECT_EQ(error, "--count: expected an integer in [0, 4294967295], "
                     "got '-1'");
    EXPECT_EQ(count, 5u);
    EXPECT_TRUE(cl.number("--absent", count, error));
    EXPECT_EQ(count, 5u);
}

TEST(CommandLine, UsageErrorsNameTheArgument)
{
    const std::pair<std::vector<const char *>, const char *> cases[] = {
        {{"--cout", "3"}, "unknown option '--cout'"},
        {{"--count"}, "option '--count' needs a value"},
        {{"--flag", "--flag"}, "option '--flag' given twice"},
        {{"a.bc", "b.bc"}, "unexpected argument 'b.bc'"},
    };
    for (const auto &[args, want] : cases) {
        CommandLine cl;
        std::string error;
        EXPECT_FALSE(parseTestArgs(args, cl, error));
        EXPECT_EQ(error, want);
    }
}

TEST(Env, EnvSet)
{
    ::unsetenv("BSISA_TEST_ENV");
    EXPECT_FALSE(envSet("BSISA_TEST_ENV"));
    ::setenv("BSISA_TEST_ENV", "", 1);
    EXPECT_FALSE(envSet("BSISA_TEST_ENV"));
    ::setenv("BSISA_TEST_ENV", "x", 1);
    EXPECT_TRUE(envSet("BSISA_TEST_ENV"));
    ::unsetenv("BSISA_TEST_ENV");
}

TEST(Digest, Fnv1a64KnownVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Digest, IncrementalMatchesOneShot)
{
    const std::string s = "the committed dynamic block stream";
    Fnv1a64 h;
    h.bytes(s.data(), 10).bytes(s.data() + 10, s.size() - 10);
    EXPECT_EQ(h.value(), fnv1a64(s));
}

TEST(Digest, U64IsOrderAndWidthSensitive)
{
    const std::uint64_t a = Fnv1a64().u64(1).u64(2).value();
    const std::uint64_t b = Fnv1a64().u64(2).u64(1).value();
    EXPECT_NE(a, b);
    // u64 always absorbs 8 bytes: (1,2) differs from bytes{1,2}.
    const std::uint8_t two[] = {1, 2};
    EXPECT_NE(a, fnv1a64(two, sizeof(two)));
}

TEST(Digest, WordVariantDetectsChangesAndLengths)
{
    // Any flipped byte — in a full word or in the zero-padded tail —
    // changes the digest, and the length absorb separates inputs
    // that pad to the same words.
    std::uint8_t buf[19] = {};
    for (std::size_t i = 0; i < sizeof(buf); ++i)
        buf[i] = std::uint8_t(i * 7 + 1);
    const std::uint64_t base = fnv1a64Words(buf, sizeof(buf));
    for (std::size_t i = 0; i < sizeof(buf); ++i) {
        buf[i] ^= 0x20;
        EXPECT_NE(fnv1a64Words(buf, sizeof(buf)), base) << i;
        buf[i] ^= 0x20;
    }
    EXPECT_EQ(fnv1a64Words(buf, sizeof(buf)), base);

    const std::uint8_t zeros[16] = {};
    EXPECT_NE(fnv1a64Words(zeros, 1), fnv1a64Words(zeros, 8));
    EXPECT_NE(fnv1a64Words(zeros, 8), fnv1a64Words(zeros, 16));
    EXPECT_NE(fnv1a64Words(zeros, 0), fnv1a64Words(zeros, 1));

    // Empty input is well-defined and never reads the pointer.
    EXPECT_EQ(fnv1a64Words(nullptr, 0), fnv1a64Words(zeros, 0));
}
