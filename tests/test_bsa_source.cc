/**
 * @file
 * Direct tests of the block-structured fetch source: the committed
 * atomic-block stream must tile the basic-block stream exactly, carry
 * the right memory addresses, classify mispredictions correctly, and
 * behave deterministically.  The pinned-walk table also holds the
 * conventional machine's walk, which runs through the same reader.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "frontend/compile.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/fetch_outcome.hh"
#include "sim/interp.hh"
#include "sim/lockstep.hh"
#include "sim/ooo/ooo.hh"
#include "sim/pipeline.hh"
#include "support/digest.hh"
#include "support/rng.hh"
#include "workloads/specmix.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

const char *kBranchy = R"(
    var d[32];
    fn leaf(x) { if (x & 1) { return x * 3; } return x + 1; }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 200; i = i + 1) {
            if (d[i & 31] < 4) { acc = acc + leaf(i); }
            else { acc = acc * 2 + 1; }
            switch (acc & 3) {
                case 0: { acc = acc + 1; }
                case 1: { acc = acc ^ 9; }
                case 2: { acc = acc - 1; }
                case 3: { acc = acc + d[acc & 31]; }
            }
            acc = acc & 0xffff;
        }
        return acc;
    }
)";

struct TestRig
{
    Module module;
    Interp::Limits limits;
    BsaModule bsa;
    DecodedProgram decoded;
    ExecTrace trace;

    explicit TestRig(const char *source, std::uint64_t data_seed = 5)
        : module(compileBlockCOrDie(source))
    {
        Rng rng(data_seed);
        for (auto &word : module.data)
            word = rng.nextBelow(8);
        build();
    }

    TestRig(Module m, Interp::Limits lim)
        : module(std::move(m)), limits(lim)
    {
        build();
    }

  private:
    void
    build()
    {
        bsa = enlargeModule(module, EnlargeConfig{});
        layoutBsaModule(bsa);
        decoded = DecodedProgram::forBsa(bsa);
        trace = captureTrace(module, limits);
    }
};

/** Block budget of the trace that spans several fetch-outcome capture
 *  windows and ends in a ragged one. */
constexpr std::uint64_t kLongBlocks = 3 * fetchCaptureWindow + 777;

/** Block budget of the trace shorter than the BSA lookahead. */
constexpr std::uint64_t kShortBlocks = 40;

/** Suite benchmark @p bench, cut at @p maxBlocks committed blocks. */
std::unique_ptr<TestRig>
suiteRig(std::size_t bench, std::uint64_t maxBlocks)
{
    const auto suite = specint95Suite();
    Interp::Limits limits;
    limits.maxBlocks = maxBlocks;
    return std::make_unique<TestRig>(
        generateWorkload(suite[bench].params), limits);
}

/** The branchy kernel, plus a suite trace longer than three capture
 *  windows, so the reader refills across window boundaries. */
std::vector<std::unique_ptr<TestRig>>
tilingRigs()
{
    std::vector<std::unique_ptr<TestRig>> rigs;
    rigs.push_back(std::make_unique<TestRig>(kBranchy));
    rigs.push_back(suiteRig(0, kLongBlocks));
    return rigs;
}

} // namespace

TEST(BsaSource, TilesTheBasicBlockStreamExactly)
{
    for (const auto &rig : tilingRigs()) {
        const TestRig &setup = *rig;
        SCOPED_TRACE("events=" + std::to_string(setup.trace.eventCount));

        // Ground truth: the committed basic-block sequence.
        std::vector<std::pair<FuncId, BlockId>> bbs;
        {
            Interp interp(setup.module, setup.limits);
            BlockEvent ev;
            while (interp.step(ev))
                bbs.emplace_back(ev.func, ev.block);
        }

        // Identify committed blocks by address.
        std::map<std::uint64_t, const AtomicBlock *> byAddr;
        for (const auto &b : setup.bsa.blocks)
            byAddr[b.addr] = &b;

        MachineConfig machine;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::size_t cursor = 0;
        std::uint64_t total_ops = 0;
        while (source.next(unit)) {
            const auto it = byAddr.find(unit.pc);
            ASSERT_NE(it, byAddr.end());
            const AtomicBlock *blk = it->second;
            // Its constituent bbs must match the stream at the cursor.
            for (BlockId bb : blk->bbs) {
                ASSERT_LT(cursor, bbs.size());
                EXPECT_EQ(bbs[cursor].first, blk->func);
                EXPECT_EQ(bbs[cursor].second, bb);
                ++cursor;
            }
            total_ops += unit.opCount;
        }
        EXPECT_EQ(cursor, bbs.size());  // no gaps, no overlap
        EXPECT_GT(total_ops, 0u);
    }
}

TEST(BsaSource, MemAddrsMatchFunctionalExecution)
{
    for (const auto &rig : tilingRigs()) {
        const TestRig &setup = *rig;
        SCOPED_TRACE("events=" + std::to_string(setup.trace.eventCount));

        std::vector<std::uint64_t> want;
        {
            Interp interp(setup.module, setup.limits);
            BlockEvent ev;
            while (interp.step(ev))
                want.insert(want.end(), ev.memAddrs,
                            ev.memAddrs + ev.memCount);
        }

        MachineConfig machine;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::vector<std::uint64_t> got;
        while (source.next(unit))
            got.insert(got.end(), unit.memAddrs,
                       unit.memAddrs + unit.memCount);
        EXPECT_EQ(got, want);
    }
}

TEST(BsaSource, PerfectPredictionNeverMispredicts)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    machine.perfectPrediction = true;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    while (source.next(unit))
        EXPECT_FALSE(unit.redirect.mispredicted);
    EXPECT_EQ(source.counters().nTrapMiss, 0u);
    EXPECT_EQ(source.counters().nFaultMiss, 0u);
}

TEST(BsaSource, RealPredictorMispredictsAndClassifies)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    std::uint64_t fault_units = 0, trap_units = 0;
    while (source.next(unit)) {
        if (!unit.redirect.mispredicted)
            continue;
        if (unit.redirect.isFault) {
            ++fault_units;
            // Fault-style: the resolving op lives in the wrong block
            // and really is a fault operation.
            ASSERT_TRUE(unit.redirect.resolveInWrongBlock);
            ASSERT_NE(unit.redirect.wrongOps, nullptr);
            ASSERT_LT(unit.redirect.resolveOpIdx,
                      unit.redirect.wrongOpCount);
            EXPECT_NE(
                unit.redirect.wrongOps[unit.redirect.resolveOpIdx]
                        .flags &
                    opIsFault,
                0);
        } else {
            ++trap_units;
        }
    }
    SimResult stats;
    fillSourceStats(stats, source.counters());
    EXPECT_EQ(stats.mispredicts,
              stats.trapMispredicts + stats.faultMispredicts);
    EXPECT_GT(trap_units, 0u);
    EXPECT_EQ(stats.trapMispredicts, trap_units);
    EXPECT_EQ(stats.faultMispredicts, fault_units);
    const double acc = stats.branchAccuracy();
    EXPECT_GT(acc, 0.5);
    EXPECT_LT(acc, 1.0);
}

TEST(BsaSource, DeterministicStream)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    for (int round = 0; round < 2; ++round) {
        static std::vector<std::uint64_t> first;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::vector<std::uint64_t> pcs;
        while (source.next(unit))
            pcs.push_back(unit.pc);
        if (round == 0)
            first = pcs;
        else
            EXPECT_EQ(first, pcs);
    }
}

TEST(BsaSource, OpBudgetTruncationIsClean)
{
    WorkloadParams params;
    params.name = "trunc";
    params.seed = 11;
    params.numFuncs = 6;
    params.numLibFuncs = 1;
    params.itemsPerFunc = 6;
    const Module m = generateWorkload(params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);

    for (std::uint64_t budget : {1000u, 5000u, 50000u}) {
        MachineConfig machine;
        Interp::Limits limits;
        limits.maxOps = budget;
        const ExecTrace trace = captureTrace(m, limits);
        BsaFetchSource source(bsa, machine, trace, decoded);
        TimingUnit unit;
        std::uint64_t units = 0;
        while (source.next(unit))
            ++units;
        EXPECT_GT(units, 0u);
    }
}

TEST(BsaSource, ShallowCommitsArePossibleButBounded)
{
    // With a real predictor some committed blocks may be shallower
    // than the maximal variant (a compatible prediction commits);
    // they must still tile the stream (checked above) and not
    // dominate it.
    TestRig setup(kBranchy);
    MachineConfig machine;

    auto run_avg = [&](bool perfect) {
        machine.perfectPrediction = perfect;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::uint64_t units = 0, ops = 0;
        while (source.next(unit)) {
            ++units;
            ops += unit.opCount;
        }
        return double(ops) / double(units);
    };

    const double real_avg = run_avg(false);
    const double oracle_avg = run_avg(true);
    EXPECT_LE(real_avg, oracle_avg + 0.01);
    EXPECT_GT(real_avg, oracle_avg * 0.7);
}

namespace
{

struct Input
{
    std::string name;
    std::unique_ptr<TestRig> rig;
};

/** Every suite benchmark at its test budget, a trace shorter than the
 *  lookahead (every fetch sees a truncated window) and one spanning
 *  more than three capture windows with a ragged last one. */
std::vector<Input>
walkInputs()
{
    std::vector<Input> inputs;
    const auto suite = specint95Suite();
    for (std::size_t b = 0; b < suite.size(); ++b) {
        Interp::Limits limits;
        limits.maxOps = suite[b].scaledBudget(4000);
        inputs.push_back(
            {suite[b].params.name,
             std::make_unique<TestRig>(
                 generateWorkload(suite[b].params), limits)});
    }
    inputs.push_back({"short", suiteRig(0, kShortBlocks)});
    inputs.push_back({"long", suiteRig(0, kLongBlocks)});
    EXPECT_LT(inputs[suite.size()].rig->trace.eventCount,
              BsaFetchSource::lookahead);
    EXPECT_GT(inputs[suite.size() + 1].rig->trace.eventCount,
              3 * fetchCaptureWindow);
    return inputs;
}

/** One pinned row: a fetch walk's identity and its counters. */
struct PinnedWalk
{
    const char *machine;
    const char *input;
    const char *config;
    std::uint64_t digest;          //!< fetchStreamDigest of the units
    std::uint64_t redirectDigest;  //!< the units' redirect fields
    std::uint64_t predictions;
    std::uint64_t mispredicts;
    std::uint64_t trapMispredicts;
    std::uint64_t faultMispredicts;
    std::uint64_t cascadeHops;
    std::uint64_t cycles;
};

/** Digest of every unit's redirect: whether it was mispredicted and,
 *  if so, where it resolves and which wrong block it issued. */
std::uint64_t
redirectDigest(FetchSource &source)
{
    Fnv1a64 digest;
    TimingUnit unit;
    while (source.next(unit)) {
        const RedirectInfo &rd = unit.redirect;
        digest.u64(rd.mispredicted);
        if (!rd.mispredicted)
            continue;
        digest.u64(rd.resolveInWrongBlock).u64(rd.resolveOpIdx);
        digest.u64(rd.wrongPc).u64(rd.wrongOpCount).u64(rd.wrongBytes);
        digest.u64(rd.extraHops).u64(rd.isFault);
    }
    return digest.value();
}

/**
 * Expected values of both machines' fetch walks, recorded from the
 * singleton replays before each walk was shared with the lockstep
 * pre-pass.  The lockstep tests and the fuzzer's `lockstep` oracle
 * compare batches against BsaFetchSource and ConvFetchSource, which
 * run the same walks; this table is the independent reference both
 * sides are held to.  The gag, pag16, pas and btb-dm8 columns were
 * recorded before the predictors and caches moved onto shared tables.
 */
const PinnedWalk kPinnedWalks[] = {
    {"bsa", "compress", "default",
     13363670369418128637ull, 4564511350103456729ull,
     1364, 124, 109, 15, 15, 5276},
    {"bsa", "compress", "perfect",
     1899899588781600194ull, 17660679698167577125ull,
     0, 0, 0, 0, 0, 4638},
    {"bsa", "compress", "small",
     13024557583841458930ull, 4794070105502006120ull,
     1533, 464, 461, 3, 3, 6536},
    {"bsa", "compress", "gag",
     12248789052195582736ull, 16680847815033077079ull,
     1832, 601, 596, 5, 5, 7896},
    {"bsa", "compress", "pag16",
     11504832778500717033ull, 10118021474405488944ull,
     1453, 238, 221, 17, 17, 5764},
    {"bsa", "compress", "pas",
     9880916801026603413ull, 5237916135167727740ull,
     1367, 115, 111, 4, 4, 5238},
    {"bsa", "compress", "btb-dm8",
     7778265198753874574ull, 16961961805816590405ull,
     1686, 747, 744, 3, 3, 8186},
    {"bsa", "gcc", "default",
     17229496551525083200ull, 6124801177302087037ull,
     3165, 1675, 1554, 121, 155, 23512},
    {"bsa", "gcc", "perfect",
     11908635117844929768ull, 6714677361656979749ull,
     0, 0, 0, 0, 0, 10869},
    {"bsa", "gcc", "small",
     5248208279272957448ull, 15681632675017458695ull,
     3508, 2617, 2518, 99, 131, 29756},
    {"bsa", "gcc", "gag",
     8819129736073151364ull, 15667405562876859288ull,
     3216, 1790, 1648, 142, 175, 24362},
    {"bsa", "gcc", "pag16",
     25050110754756843ull, 9909475254006015297ull,
     3188, 1765, 1637, 128, 164, 24158},
    {"bsa", "gcc", "pas",
     12468452230590333577ull, 9974781083314650354ull,
     3164, 1712, 1582, 130, 163, 23888},
    {"bsa", "gcc", "btb-dm8",
     3125332547732496402ull, 12162693069829005951ull,
     3615, 2928, 2838, 90, 119, 32045},
    {"bsa", "go", "default",
     16753419023780007319ull, 18076838525284457100ull,
     2609, 1343, 1242, 101, 123, 19567},
    {"bsa", "go", "perfect",
     17153683727374593137ull, 15578049629665852421ull,
     0, 0, 0, 0, 0, 9020},
    {"bsa", "go", "small",
     6580911079420420580ull, 15445023164050858708ull,
     2849, 2122, 2015, 107, 129, 25258},
    {"bsa", "go", "gag",
     9852666972440457620ull, 3985304127143727247ull,
     2628, 1388, 1282, 106, 128, 19864},
    {"bsa", "go", "pag16",
     14545682523216993879ull, 5536393744281272685ull,
     2613, 1394, 1275, 119, 141, 20006},
    {"bsa", "go", "pas",
     12986713589828568152ull, 13813717699004975963ull,
     2599, 1380, 1269, 111, 133, 19887},
    {"bsa", "go", "btb-dm8",
     1555312805327655618ull, 6573794874877475143ull,
     2914, 2392, 2297, 95, 116, 27049},
    {"bsa", "ijpeg", "default",
     10464682739586207786ull, 17371668288211882883ull,
     2384, 211, 171, 40, 40, 7163},
    {"bsa", "ijpeg", "perfect",
     15883154674824857789ull, 1487381460707657349ull,
     0, 0, 0, 0, 0, 5647},
    {"bsa", "ijpeg", "small",
     18204078049975956849ull, 11658741693358198845ull,
     2613, 850, 811, 39, 39, 11802},
    {"bsa", "ijpeg", "gag",
     716670374758572983ull, 1178624796638823864ull,
     2538, 797, 770, 27, 27, 11273},
    {"bsa", "ijpeg", "pag16",
     936694492596546174ull, 2373520994692773276ull,
     2456, 267, 243, 24, 24, 7506},
    {"bsa", "ijpeg", "pas",
     15369128218242589885ull, 16016935932857842377ull,
     2403, 159, 145, 14, 14, 6742},
    {"bsa", "ijpeg", "btb-dm8",
     9900982754573323746ull, 14870634388932442513ull,
     4269, 2694, 2670, 24, 24, 22973},
    {"bsa", "li", "default",
     4861504717029825852ull, 12162584878568587792ull,
     4126, 833, 531, 302, 326, 16037},
    {"bsa", "li", "perfect",
     8379760055814926524ull, 8916859284542201445ull,
     0, 0, 0, 0, 0, 9817},
    {"bsa", "li", "small",
     14480624494125904920ull, 1005369406374978991ull,
     4456, 2335, 2045, 290, 361, 25520},
    {"bsa", "li", "gag",
     8637460867086342396ull, 11236441047825817339ull,
     4168, 1524, 1196, 328, 367, 20013},
    {"bsa", "li", "pag16",
     4480118786372286057ull, 7354395319488141563ull,
     4162, 1224, 943, 281, 325, 19370},
    {"bsa", "li", "pas",
     14388939852099507320ull, 8565012592211007387ull,
     4143, 716, 597, 119, 135, 15722},
    {"bsa", "li", "btb-dm8",
     14480624494125904920ull, 9387516789554148446ull,
     4631, 2878, 2610, 268, 335, 29342},
    {"bsa", "m88ksim", "default",
     15333500320845692520ull, 7243184061435925923ull,
     1703, 219, 130, 89, 111, 6304},
    {"bsa", "m88ksim", "perfect",
     14427642137597316106ull, 990983689893835653ull,
     0, 0, 0, 0, 0, 4942},
    {"bsa", "m88ksim", "small",
     12995170087781539782ull, 2216931729375156402ull,
     1869, 734, 665, 69, 92, 9629},
    {"bsa", "m88ksim", "gag",
     12995170087781539782ull, 12592709447220333150ull,
     2442, 940, 867, 73, 96, 11038},
    {"bsa", "m88ksim", "pag16",
     5833089235701417542ull, 6470696667183723402ull,
     1799, 308, 226, 82, 103, 6873},
    {"bsa", "m88ksim", "pas",
     12833553508742395854ull, 12334441561711801295ull,
     1706, 157, 133, 24, 30, 6079},
    {"bsa", "m88ksim", "btb-dm8",
     8077646346284261902ull, 12698480857922452864ull,
     2098, 1068, 1002, 66, 88, 11832},
    {"bsa", "perl", "default",
     18060630269084175379ull, 14848109076962588723ull,
     1493, 325, 273, 52, 59, 6918},
    {"bsa", "perl", "perfect",
     12933690521685686621ull, 17052650832136614245ull,
     0, 0, 0, 0, 0, 4525},
    {"bsa", "perl", "small",
     15190025858004398483ull, 4958788362087768221ull,
     1880, 1290, 1232, 58, 64, 13271},
    {"bsa", "perl", "gag",
     15190025858004398483ull, 7676418199426579945ull,
     1533, 379, 312, 67, 74, 7279},
    {"bsa", "perl", "pag16",
     15190025858004398483ull, 16791077335054597615ull,
     1540, 410, 346, 64, 72, 7338},
    {"bsa", "perl", "pas",
     10972517869747688744ull, 1096218507102950376ull,
     1492, 324, 279, 45, 53, 6866},
    {"bsa", "perl", "btb-dm8",
     2282789231494942907ull, 11366272044423605115ull,
     1946, 1788, 1749, 39, 45, 17244},
    {"bsa", "vortex", "default",
     1568195807683026537ull, 5926700488359746522ull,
     4156, 815, 700, 115, 147, 15973},
    {"bsa", "vortex", "perfect",
     604315597945463839ull, 12869836361504213605ull,
     0, 0, 0, 0, 0, 11194},
    {"bsa", "vortex", "small",
     11413678920480705682ull, 4582492502894775963ull,
     4687, 2103, 1914, 189, 225, 24430},
    {"bsa", "vortex", "gag",
     1448449677182550429ull, 2282554165840827606ull,
     4280, 1615, 1474, 141, 180, 21160},
    {"bsa", "vortex", "pag16",
     9041401613153885650ull, 11368336228882325297ull,
     4241, 1074, 897, 177, 214, 17388},
    {"bsa", "vortex", "pas",
     9334256290015345332ull, 16604015806563989292ull,
     4179, 782, 656, 126, 158, 16202},
    {"bsa", "vortex", "btb-dm8",
     1893132308113235881ull, 7936098749105324133ull,
     5328, 3919, 3789, 130, 162, 36955},
    {"bsa", "short", "default",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "short", "perfect",
     14461218048787491651ull, 6959814250160810821ull,
     0, 0, 0, 0, 0, 99},
    {"bsa", "short", "small",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "short", "gag",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "short", "pag16",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "short", "pas",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "short", "btb-dm8",
     14461218048787491651ull, 5808568177596346952ull,
     21, 9, 8, 1, 1, 152},
    {"bsa", "long", "default",
     5927756942960574750ull, 5347843549451878426ull,
     5581, 293, 235, 58, 59, 19045},
    {"bsa", "long", "perfect",
     10124624058879942851ull, 9489208220165772357ull,
     0, 0, 0, 0, 0, 17669},
    {"bsa", "long", "small",
     13833117909793270895ull, 9727204138930879263ull,
     6300, 1757, 1740, 17, 17, 24791},
    {"bsa", "long", "gag",
     4845308254155414299ull, 13720765492394598635ull,
     6889, 1733, 1699, 34, 35, 26833},
    {"bsa", "long", "pag16",
     6031921868398689255ull, 7409820640784649005ull,
     5961, 778, 710, 68, 69, 20790},
    {"bsa", "long", "pas",
     16497654544289769218ull, 6961346315705835342ull,
     5569, 232, 223, 9, 10, 18812},
    {"bsa", "long", "btb-dm8",
     14482629911223629074ull, 6004169935524841999ull,
     6820, 2736, 2719, 17, 17, 29892},
    {"conv", "compress", "default",
     3355789228624058664ull, 2923440001375112684ull,
     1658, 195, 195, 0, 0, 6304},
    {"conv", "compress", "perfect",
     3355789228624058664ull, 1401814156021147685ull,
     0, 0, 0, 0, 0, 5246},
    {"conv", "compress", "small",
     3355789228624058664ull, 6783221343259643560ull,
     1658, 166, 166, 0, 0, 6017},
    {"conv", "compress", "gag",
     3355789228624058664ull, 8499141700297065697ull,
     1658, 202, 202, 0, 0, 6356},
    {"conv", "compress", "pag16",
     3355789228624058664ull, 4236042077772478752ull,
     1658, 254, 254, 0, 0, 6656},
    {"conv", "compress", "pas",
     3355789228624058664ull, 17221896862120897924ull,
     1658, 182, 182, 0, 0, 6093},
    {"conv", "compress", "btb-dm8",
     3355789228624058664ull, 2923440001375112684ull,
     1658, 195, 195, 0, 0, 6304},
    {"conv", "gcc", "default",
     17478479277018092156ull, 17067450302896218511ull,
     3618, 1631, 1631, 0, 0, 24383},
    {"conv", "gcc", "perfect",
     17478479277018092156ull, 4789530233326910821ull,
     0, 0, 0, 0, 0, 12401},
    {"conv", "gcc", "small",
     17478479277018092156ull, 15511486973796318282ull,
     3618, 1200, 1200, 0, 0, 20749},
    {"conv", "gcc", "gag",
     17478479277018092156ull, 2714884823654839370ull,
     3618, 1239, 1239, 0, 0, 21384},
    {"conv", "gcc", "pag16",
     17478479277018092156ull, 17290267636848274760ull,
     3618, 1238, 1238, 0, 0, 21685},
    {"conv", "gcc", "pas",
     17478479277018092156ull, 14628894375080093032ull,
     3618, 1941, 1941, 0, 0, 27008},
    {"conv", "gcc", "btb-dm8",
     17478479277018092156ull, 4525688286133704959ull,
     3618, 1645, 1645, 0, 0, 24484},
    {"conv", "go", "default",
     14189414351115891110ull, 4671712593868994711ull,
     2994, 1326, 1326, 0, 0, 19760},
    {"conv", "go", "perfect",
     14189414351115891110ull, 13363349604406708325ull,
     0, 0, 0, 0, 0, 10479},
    {"conv", "go", "small",
     14189414351115891110ull, 4553916714303702820ull,
     2994, 1017, 1017, 0, 0, 17132},
    {"conv", "go", "gag",
     14189414351115891110ull, 9686517992379142260ull,
     2994, 1067, 1067, 0, 0, 17912},
    {"conv", "go", "pag16",
     14189414351115891110ull, 9501035755632969277ull,
     2994, 1031, 1031, 0, 0, 18022},
    {"conv", "go", "pas",
     14189414351115891110ull, 13393733208516563237ull,
     2994, 1686, 1686, 0, 0, 22918},
    {"conv", "go", "btb-dm8",
     14189414351115891110ull, 10397704841027795960ull,
     2994, 1327, 1327, 0, 0, 19767},
    {"conv", "ijpeg", "default",
     7063918717928329047ull, 16376952070386162256ull,
     2390, 142, 142, 0, 0, 7906},
    {"conv", "ijpeg", "perfect",
     7063918717928329047ull, 2862067741605270885ull,
     0, 0, 0, 0, 0, 6979},
    {"conv", "ijpeg", "small",
     7063918717928329047ull, 7226476550000650265ull,
     2390, 272, 272, 0, 0, 8653},
    {"conv", "ijpeg", "gag",
     7063918717928329047ull, 12297164683461329008ull,
     2390, 163, 163, 0, 0, 8034},
    {"conv", "ijpeg", "pag16",
     7063918717928329047ull, 8956818745846349267ull,
     2390, 191, 191, 0, 0, 8267},
    {"conv", "ijpeg", "pas",
     7063918717928329047ull, 5382195872275984899ull,
     2390, 271, 271, 0, 0, 8923},
    {"conv", "ijpeg", "btb-dm8",
     7063918717928329047ull, 11641087147466334416ull,
     2390, 170, 170, 0, 0, 8158},
    {"conv", "li", "default",
     17523703096439534198ull, 16455680193681549912ull,
     4750, 1049, 1049, 0, 0, 20541},
    {"conv", "li", "perfect",
     17523703096439534198ull, 14258830482314363685ull,
     0, 0, 0, 0, 0, 12456},
    {"conv", "li", "small",
     17523703096439534198ull, 7612193342704426399ull,
     4750, 791, 791, 0, 0, 17671},
    {"conv", "li", "gag",
     17523703096439534198ull, 3160584168205194949ull,
     4750, 1023, 1023, 0, 0, 19845},
    {"conv", "li", "pag16",
     17523703096439534198ull, 4586833936131063740ull,
     4750, 796, 796, 0, 0, 19178},
    {"conv", "li", "pas",
     17523703096439534198ull, 17814751969393039474ull,
     4750, 831, 831, 0, 0, 20344},
    {"conv", "li", "btb-dm8",
     17523703096439534198ull, 16455680193681549912ull,
     4750, 1049, 1049, 0, 0, 20541},
    {"conv", "m88ksim", "default",
     2170999658413689561ull, 6235740852854240343ull,
     1891, 225, 225, 0, 0, 6943},
    {"conv", "m88ksim", "perfect",
     2170999658413689561ull, 12810557592819451141ull,
     0, 0, 0, 0, 0, 5610},
    {"conv", "m88ksim", "small",
     2170999658413689561ull, 8597522526724781256ull,
     1891, 285, 285, 0, 0, 7194},
    {"conv", "m88ksim", "gag",
     2170999658413689561ull, 8694676613805096669ull,
     1891, 176, 176, 0, 0, 6604},
    {"conv", "m88ksim", "pag16",
     2170999658413689561ull, 462262486097477585ull,
     1891, 207, 207, 0, 0, 6916},
    {"conv", "m88ksim", "pas",
     2170999658413689561ull, 3496641561949749956ull,
     1891, 297, 297, 0, 0, 7657},
    {"conv", "m88ksim", "btb-dm8",
     2170999658413689561ull, 6235740852854240343ull,
     1891, 225, 225, 0, 0, 6943},
    {"conv", "perl", "default",
     8136620840114081432ull, 1040641457206211724ull,
     1863, 374, 374, 0, 0, 8029},
    {"conv", "perl", "perfect",
     8136620840114081432ull, 16109306354445152837ull,
     0, 0, 0, 0, 0, 5254},
    {"conv", "perl", "small",
     8136620840114081432ull, 13009980039457826468ull,
     1863, 277, 277, 0, 0, 7078},
    {"conv", "perl", "gag",
     8136620840114081432ull, 6139311157858727326ull,
     1863, 336, 336, 0, 0, 7729},
    {"conv", "perl", "pag16",
     8136620840114081432ull, 15340227995252558617ull,
     1863, 364, 364, 0, 0, 8353},
    {"conv", "perl", "pas",
     8136620840114081432ull, 12868091557309084722ull,
     1863, 615, 615, 0, 0, 10324},
    {"conv", "perl", "btb-dm8",
     8136620840114081432ull, 14217550052496152196ull,
     1863, 376, 376, 0, 0, 8045},
    {"conv", "vortex", "default",
     381641752370258825ull, 6673979740203926897ull,
     4796, 750, 750, 0, 0, 18173},
    {"conv", "vortex", "perfect",
     381641752370258825ull, 15328346891420579973ull,
     0, 0, 0, 0, 0, 13267},
    {"conv", "vortex", "small",
     381641752370258825ull, 14698607582250325965ull,
     4796, 693, 693, 0, 0, 17088},
    {"conv", "vortex", "gag",
     381641752370258825ull, 17527080689066519753ull,
     4796, 729, 729, 0, 0, 17932},
    {"conv", "vortex", "pag16",
     381641752370258825ull, 16137171485956799435ull,
     4796, 708, 708, 0, 0, 18108},
    {"conv", "vortex", "pas",
     381641752370258825ull, 4076336205201933232ull,
     4796, 1258, 1258, 0, 0, 22544},
    {"conv", "vortex", "btb-dm8",
     381641752370258825ull, 14863619209706829313ull,
     4796, 775, 775, 0, 0, 18389},
    {"conv", "short", "default",
     17488226532326948006ull, 1136302020263270225ull,
     20, 16, 16, 0, 0, 204},
    {"conv", "short", "perfect",
     17488226532326948006ull, 17320409490924411941ull,
     0, 0, 0, 0, 0, 110},
    {"conv", "short", "small",
     17488226532326948006ull, 2367942810918238403ull,
     20, 7, 7, 0, 0, 129},
    {"conv", "short", "gag",
     17488226532326948006ull, 15849067733024567845ull,
     20, 16, 16, 0, 0, 208},
    {"conv", "short", "pag16",
     17488226532326948006ull, 14332624329097687880ull,
     20, 10, 10, 0, 0, 155},
    {"conv", "short", "pas",
     17488226532326948006ull, 7290458852186594662ull,
     20, 17, 17, 0, 0, 225},
    {"conv", "short", "btb-dm8",
     17488226532326948006ull, 1136302020263270225ull,
     20, 16, 16, 0, 0, 204},
    {"conv", "long", "default",
     12813965320366365239ull, 14720717564263562601ull,
     6205, 561, 561, 0, 0, 24193},
    {"conv", "long", "perfect",
     12813965320366365239ull, 14950846157111402181ull,
     0, 0, 0, 0, 0, 21043},
    {"conv", "long", "small",
     12813965320366365239ull, 9423573459440312555ull,
     6205, 591, 591, 0, 0, 23852},
    {"conv", "long", "gag",
     12813965320366365239ull, 17633766829441905329ull,
     6205, 641, 641, 0, 0, 24448},
    {"conv", "long", "pag16",
     12813965320366365239ull, 11682459526162633441ull,
     6205, 694, 694, 0, 0, 24707},
    {"conv", "long", "pas",
     12813965320366365239ull, 12750567292244114053ull,
     6205, 297, 297, 0, 0, 22676},
    {"conv", "long", "btb-dm8",
     12813965320366365239ull, 14720717564263562601ull,
     6205, 561, 561, 0, 0, 24193},
};

} // namespace

TEST(BsaSource, PinnedWalkAcrossSuiteAndWindows)
{
    const std::vector<Input> inputs = walkInputs();

    // The last four columns reach the other history schemes and a
    // direct-mapped BTB small enough to evict on every benchmark.
    std::vector<std::pair<std::string, MachineConfig>> configs(7);
    configs[0].first = "default";
    configs[1].first = "perfect";
    configs[1].second.perfectPrediction = true;
    configs[2].first = "small";
    configs[2].second.predictor.historyBits = 2;
    configs[2].second.predictor.btbEntries = 16;
    configs[3].first = "gag";
    configs[3].second.predictor.scheme = PredictorScheme::GAg;
    configs[4].first = "pag16";
    configs[4].second.predictor.scheme = PredictorScheme::PAg;
    configs[4].second.predictor.historyEntries = 16;
    configs[5].first = "pas";
    configs[5].second.predictor.scheme = PredictorScheme::PAs;
    configs[6].first = "btb-dm8";
    configs[6].second.predictor.btbEntries = 8;
    configs[6].second.predictor.btbAssoc = 1;

    std::size_t row = 0;
    std::uint64_t faultRows = 0, hopRows = 0;
    for (const std::string machineName : {"bsa", "conv"}) {
        for (const Input &in : inputs) {
            const TestRig &setup = *in.rig;
            const ConvLayout layout(setup.module);
            const DecodedProgram convDecoded =
                DecodedProgram::forModule(setup.module);
            auto source = [&](const MachineConfig &machine)
                -> std::unique_ptr<FetchSource> {
                if (machineName == "conv")
                    return std::make_unique<ConvFetchSource>(
                        setup.module, layout, machine, setup.trace,
                        convDecoded);
                return std::make_unique<BsaFetchSource>(
                    setup.bsa, machine, setup.trace, setup.decoded);
            };
            for (const auto &[cfgName, machine] : configs) {
                SCOPED_TRACE(machineName + "/" + in.name + "/" + cfgName);
                const std::unique_ptr<FetchSource> walk = source(machine);
                PinnedWalk got{};
                got.digest = fetchStreamDigest(*walk);
                got.redirectDigest = redirectDigest(*source(machine));
                SimResult counted;
                fillSourceStats(counted, walk->counters());
                got.predictions = counted.predictions;
                got.mispredicts = counted.mispredicts;
                got.trapMispredicts = counted.trapMispredicts;
                got.faultMispredicts = counted.faultMispredicts;
                got.cascadeHops = counted.cascadeHops;
                got.cycles =
                    simulatePipeline(*source(machine), machine).cycles;
                faultRows += got.faultMispredicts > 0;
                hopRows += got.cascadeHops > 0;

                const std::string actual =
                    "    {\"" + machineName + "\", \"" + in.name +
                    "\", \"" + cfgName + "\",\n     " +
                    std::to_string(got.digest) + "ull, " +
                    std::to_string(got.redirectDigest) + "ull,\n     " +
                    std::to_string(got.predictions) + ", " +
                    std::to_string(got.mispredicts) + ", " +
                    std::to_string(got.trapMispredicts) + ", " +
                    std::to_string(got.faultMispredicts) + ", " +
                    std::to_string(got.cascadeHops) + ", " +
                    std::to_string(got.cycles) + "},";
                ASSERT_LT(row, std::size(kPinnedWalks)) << actual;
                const PinnedWalk &want = kPinnedWalks[row++];
                ASSERT_EQ(machineName, want.machine);
                ASSERT_EQ(in.name, want.input);
                ASSERT_EQ(cfgName, want.config);
                EXPECT_EQ(got.digest, want.digest) << actual;
                EXPECT_EQ(got.redirectDigest, want.redirectDigest)
                    << actual;
                EXPECT_EQ(got.predictions, want.predictions) << actual;
                EXPECT_EQ(got.mispredicts, want.mispredicts) << actual;
                EXPECT_EQ(got.trapMispredicts, want.trapMispredicts)
                    << actual;
                EXPECT_EQ(got.faultMispredicts, want.faultMispredicts)
                    << actual;
                EXPECT_EQ(got.cascadeHops, want.cascadeHops) << actual;
                EXPECT_EQ(got.cycles, want.cycles) << actual;
            }
        }
    }
    EXPECT_EQ(row, std::size(kPinnedWalks));
    // The table exercises both mispredict kinds and the fault cascade.
    EXPECT_GT(faultRows, 0u);
    EXPECT_GT(hopRows, 0u);
}

namespace
{

/** Reference stream-compatibility check: @p block's basic blocks are
 *  the events from @p pos, linked edge by edge, inside @p avail. */
bool
fitsStream(const BsaModule &bsa, const ExecTrace &trace,
           std::size_t pos, std::size_t avail, AtomicBlockId block)
{
    const AtomicBlock &blk = bsa.blocks[block];
    if (blk.bbs.size() > avail)
        return false;
    for (std::size_t i = 0; i < blk.bbs.size(); ++i) {
        const TraceEvent &e = trace.events[pos + i];
        if (e.func != blk.func || e.block != blk.bbs[i])
            return false;
        if (i + 1 < blk.bbs.size() &&
            (trace.nextFunc(pos + i) != blk.func ||
             trace.nextBlock(pos + i) != blk.bbs[i + 1]))
            return false;
    }
    return true;
}

/** Reference direction-aware check: the trie path to @p node follows
 *  the events from @p pos, inside @p avail — the same basic blocks,
 *  and every fault edge in the direction the stream took. */
bool
followsStream(const HeadTrie &trie, const ExecTrace &trace,
              std::size_t pos, std::size_t avail, int node)
{
    std::vector<int> path;
    for (int n = node; n != -1; n = trie.nodes[n].parent)
        path.insert(path.begin(), n);
    if (path.size() > avail)
        return false;
    for (std::size_t i = 0; i < path.size(); ++i) {
        const TraceEvent &e = trace.events[pos + i];
        const TrieNode &tn = trie.nodes[path[i]];
        if (e.block != tn.bb)
            return false;
        if (i + 1 < path.size() &&
            ((path[i + 1] == tn.childTaken && !e.taken) ||
             (path[i + 1] == tn.childNotTaken && e.taken)))
            return false;
    }
    return true;
}

} // namespace

/** The position memo against its specification, with no fetch walk:
 *  every position of every input where a unit can start (an
 *  enlargement head) is translated, window by window.  Each window
 *  also touches the lookahead positions past its end, as a walker's
 *  last successor predictions do; those entries must carry over, so
 *  every head is computed exactly once. */
TEST(BsaSource, MemoMatchesSpecificationAtEveryPosition)
{
    for (const Input &in : walkInputs()) {
        SCOPED_TRACE(in.name);
        const TestRig &setup = *in.rig;
        const ExecTrace &trace = setup.trace;
        BsaTranslation tr(setup.bsa, setup.decoded, trace);
        std::uint64_t heads = 0;
        for (std::size_t begin = 0; begin < trace.eventCount;
             begin += fetchCaptureWindow) {
            tr.startWindow(begin);
            const std::size_t end = std::min(
                trace.eventCount,
                begin + fetchCaptureWindow + BsaTranslation::lookahead);
            for (std::size_t pos = begin; pos < end; ++pos) {
                const TraceEvent &head = trace.events[pos];
                const HeadTrie *found =
                    setup.bsa.findTrie(head.func, head.block);
                if (!found)
                    continue;
                heads += pos < begin + fetchCaptureWindow;
                const HeadTrie &trie = *found;
                const BsaTranslation::PosMemo &pm = tr.memoAt(pos);
                const std::size_t avail = std::min<std::size_t>(
                    BsaTranslation::lookahead, trace.eventCount - pos);
                const AtomicBlock &smax = setup.bsa.blocks[pm.smax];
                ASSERT_EQ(pm.trie, &trie) << "pos " << pos;

                // varIdx is smax's place in the canonical variants.
                ASSERT_LT(pm.varIdx, trie.emitted.size());
                EXPECT_EQ(trie.nodes[trie.emitted[pm.varIdx]].block,
                          pm.smax)
                    << "pos " << pos;

                // Maximal: compatible whenever it fits, and no variant
                // on the stream's path covers more basic blocks.
                // (Stream compatibility compares basic blocks only, so
                // at a trap whose two targets coincide a variant merged
                // across the other direction also passes it; such a
                // variant is not on the path the maximal walk follows.)
                const bool fits =
                    fitsStream(setup.bsa, trace, pos, avail, pm.smax);
                EXPECT_EQ(pm.compatMax, fits) << "pos " << pos;
                if (smax.bbs.size() <= avail) {
                    EXPECT_TRUE(fits) << "pos " << pos;
                    EXPECT_TRUE(followsStream(trie, trace, pos, avail,
                                              trie.emitted[pm.varIdx]))
                        << "pos " << pos;
                }
                for (const int node : trie.emitted) {
                    if (followsStream(trie, trace, pos, avail, node)) {
                        const AtomicBlockId v = trie.nodes[node].block;
                        EXPECT_LE(setup.bsa.blocks[v].bbs.size(),
                                  smax.bbs.size())
                            << "pos " << pos << " variant " << v;
                    }
                }

                // Consumption and the address span of the commit.
                const std::size_t consume =
                    std::min<std::size_t>(smax.bbs.size(), avail);
                EXPECT_EQ(pm.consume, consume) << "pos " << pos;
                std::uint32_t mem = 0;
                for (std::size_t i = 0; i < consume; ++i)
                    mem += trace.memCount(pos + i);
                EXPECT_EQ(pm.memCount, mem) << "pos " << pos;
            }
        }
        EXPECT_GT(heads, 0u);
        EXPECT_EQ(tr.memoComputes, heads);
    }
}
