/**
 * @file
 * Differential semantics tests: every BlockC operator, executed
 * through the full compiler + interpreter stack, must agree with a
 * native C++ reference evaluation over sweeps of interesting operand
 * values — including the ISA's defined-division and shift-masking
 * rules.  Plus a parameterized property sweep of enlargement across
 * issue widths.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/enlarge.hh"
#include "frontend/compile.hh"
#include "sim/bsa_interp.hh"
#include "sim/interp.hh"

using namespace bsisa;

namespace
{

std::uint64_t
runExpr(const std::string &expr_with_ab, std::int64_t a, std::int64_t b)
{
    std::ostringstream os;
    os << "fn f(a, b) { return " << expr_with_ab << "; }\n";
    // Pass operands through globals so constant folding cannot cheat.
    os << "var ga = " << a << ";\nvar gb = " << b << ";\n";
    os << "fn main() { return f(ga, gb); }\n";
    const Module m = compileBlockCOrDie(os.str());
    Interp interp(m);
    interp.run();
    EXPECT_TRUE(interp.halted());
    return interp.exitValue();
}

/** The ISA's defined signed division. */
std::int64_t
refDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return INT64_MIN;
    return a / b;
}

std::int64_t
refRem(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return a;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a % b;
}

const std::int64_t kInteresting[] = {
    0, 1, -1, 2, -2, 7, -7, 63, 64, -64, 255, 1000003, -999999,
    INT64_MAX, INT64_MIN, INT64_MIN + 1,
};

} // namespace

class OperatorDifferentialTest
    : public ::testing::TestWithParam<std::pair<std::int64_t,
                                                std::int64_t>>
{
};

TEST_P(OperatorDifferentialTest, MatchesReferenceSemantics)
{
    const auto [a, b] = GetParam();
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);

    EXPECT_EQ(runExpr("a + b", a, b), ua + ub);
    EXPECT_EQ(runExpr("a - b", a, b), ua - ub);
    EXPECT_EQ(runExpr("a * b", a, b), ua * ub);
    EXPECT_EQ(runExpr("a / b", a, b),
              static_cast<std::uint64_t>(refDiv(a, b)));
    EXPECT_EQ(runExpr("a % b", a, b),
              static_cast<std::uint64_t>(refRem(a, b)));
    EXPECT_EQ(runExpr("a & b", a, b), ua & ub);
    EXPECT_EQ(runExpr("a | b", a, b), ua | ub);
    EXPECT_EQ(runExpr("a ^ b", a, b), ua ^ ub);
    EXPECT_EQ(runExpr("a << b", a, b), ua << (ub & 63));
    EXPECT_EQ(runExpr("a >> b", a, b), ua >> (ub & 63));
    EXPECT_EQ(runExpr("a < b", a, b), std::uint64_t(a < b));
    EXPECT_EQ(runExpr("a <= b", a, b), std::uint64_t(a <= b));
    EXPECT_EQ(runExpr("a > b", a, b), std::uint64_t(a > b));
    EXPECT_EQ(runExpr("a >= b", a, b), std::uint64_t(a >= b));
    EXPECT_EQ(runExpr("a == b", a, b), std::uint64_t(a == b));
    EXPECT_EQ(runExpr("a != b", a, b), std::uint64_t(a != b));
    EXPECT_EQ(runExpr("-a", a, b), 0 - ua);
    EXPECT_EQ(runExpr("!a", a, b), std::uint64_t(a == 0));
    EXPECT_EQ(runExpr("~a", a, b), ~ua);
    EXPECT_EQ(runExpr("a && b", a, b),
              std::uint64_t(a != 0 && b != 0));
    EXPECT_EQ(runExpr("a || b", a, b),
              std::uint64_t(a != 0 || b != 0));
}

namespace
{

std::vector<std::pair<std::int64_t, std::int64_t>>
operandPairs()
{
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    // A diagonal-ish selection keeps the sweep fast but covers every
    // interesting value on both sides.
    const std::size_t n = std::size(kInteresting);
    for (std::size_t i = 0; i < n; ++i)
        pairs.emplace_back(kInteresting[i],
                           kInteresting[(i * 7 + 3) % n]);
    pairs.emplace_back(INT64_MIN, -1);  // the division corner
    pairs.emplace_back(5, 0);           // division by zero
    return pairs;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Operands, OperatorDifferentialTest,
                         ::testing::ValuesIn(operandPairs()));

// ---------------------------------------------------------------------
// Enlargement property sweep across issue widths: at every width the
// atomic blocks respect the limit and the adversarial equivalence
// holds.
// ---------------------------------------------------------------------

class IssueWidthSweepTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IssueWidthSweepTest, EnlargementRespectsWidthAndSemantics)
{
    const unsigned width = GetParam();
    const char *src = R"(
        var d[16];
        fn kern(x, i) {
            var t = x;
            if (d[i & 15] & 1) { t = t * 5 + 1; } else { t = t + i; }
            if (t & 2) { t = t ^ 0x55; }
            return t & 0xffff;
        }
        fn main() {
            var acc = 0;
            for (var i = 0; i < 60; i = i + 1) {
                acc = (acc + kern(acc, i)) & 0xfffff;
                d[i & 15] = acc;
            }
            return acc;
        }
    )";
    CompileOptions options;
    options.maxBlockOps = width;
    const Module m = compileBlockCOrDie(src, options);

    Interp conv(m);
    conv.run();

    EnlargeConfig config;
    config.maxOps = width;
    const BsaModule bsa = enlargeModule(m, config);
    for (const auto &blk : bsa.blocks)
        EXPECT_LE(blk.ops.size(), width);

    BsaInterp adversary(bsa, randomVariantPolicy(width));
    adversary.run();
    EXPECT_TRUE(adversary.halted());
    EXPECT_EQ(adversary.exitValue(), conv.exitValue());
    EXPECT_EQ(adversary.dataChecksum(), conv.dataChecksum());
}

INSTANTIATE_TEST_SUITE_P(Widths, IssueWidthSweepTest,
                         ::testing::Values(4u, 6u, 8u, 12u, 16u, 24u,
                                           32u));

// ---------------------------------------------------------------------
// Atomic all-or-nothing under op budgets: an Interp::Limits-style op
// budget that expires strictly inside an enlarged block must not
// commit (or suppress) a partial block.  Stopping on an op budget b
// must leave exactly the state of stopping at the same block boundary
// by block count — for every b, under both fetch policies.
// ---------------------------------------------------------------------

TEST(AtomicBudgetTest, OpBudgetExpiryNeverCommitsPartialBlocks)
{
    const char *src = R"(
        var d[16];
        fn mix(x, i) {
            var t = x ^ i;
            if (d[i & 15] & 1) { t = t * 3 + 1; } else { t = t - i; }
            return t;
        }
        fn main() {
            var acc = 0;
            for (var i = 0; i < 24; i = i + 1) {
                d[i & 15] = (i * 2654435761) & 255;
                acc = (acc + mix(acc, i)) & 0xffffff;
            }
            return acc;
        }
    )";
    const Module m = compileBlockCOrDie(src);
    const BsaModule bsa = enlargeModule(m, EnlargeConfig{});

    for (const bool random : {false, true}) {
        auto policy = [&] {
            return random ? randomVariantPolicy(99)
                          : firstVariantPolicy();
        };
        BsaInterp full(bsa, policy());
        full.run();
        ASSERT_TRUE(full.halted());
        const std::uint64_t total =
            full.committedOps() + full.suppressedOps();
        ASSERT_GT(total, 64u);

        unsigned midBlockStops = 0;
        for (std::uint64_t b = 1; b <= total; b += 7) {
            Interp::Limits la;
            la.maxOps = b;
            BsaInterp a(bsa, policy(), la);
            a.run();
            const std::uint64_t aOps =
                a.committedOps() + a.suppressedOps();
            if (!a.halted()) {
                // The limit stops cleanly at a block boundary, so the
                // executed total reaches the budget; overshoot means
                // the budget expired inside the final block, which
                // still executed whole.
                EXPECT_GE(aOps, b) << "budget " << b;
                if (aOps > b)
                    ++midBlockStops;
            }

            Interp::Limits lb;
            lb.maxBlocks =
                a.committedBlocks() + a.suppressedBlocks();
            BsaInterp c(bsa, policy(), lb);
            c.run();
            EXPECT_EQ(a.committedOps(), c.committedOps())
                << "budget " << b;
            EXPECT_EQ(a.suppressedOps(), c.suppressedOps())
                << "budget " << b;
            EXPECT_EQ(a.committedBlocks(), c.committedBlocks())
                << "budget " << b;
            EXPECT_EQ(a.suppressedBlocks(), c.suppressedBlocks())
                << "budget " << b;
            EXPECT_EQ(a.halted(), c.halted()) << "budget " << b;
            EXPECT_EQ(a.exitValue(), c.exitValue()) << "budget " << b;
            EXPECT_EQ(a.memChecksum(), c.memChecksum())
                << "budget " << b;
        }
        // The sweep must actually have hit the mid-block path.
        EXPECT_GT(midBlockStops, 0u) << (random ? "random" : "first");
    }
}
