/**
 * @file
 * Synthetic workload generator implementation.
 *
 * Functions are organized into four call tiers plus a library tier;
 * calls only go downward (tier k calls tier k+1 or library), bounding
 * the dynamic call fan-out while keeping call/return density high —
 * the paper identifies calls and returns as the main limiter on block
 * enlargement (section 5, figure 5 discussion).
 */

#include "workloads/synth.hh"

#include "core/enlarge.hh"
#include "ir/verifier.hh"
#include "opt/inliner.hh"
#include "opt/passes.hh"
#include "regalloc/linearscan.hh"
#include "support/logging.hh"
#include <cmath>

#include "support/rng.hh"

namespace bsisa
{

namespace
{

/** Per-function generation context. */
class FuncBuilder
{
  public:
    FuncBuilder(Module &module, Function &fn,
                const WorkloadParams &params, Rng rng,
                const std::vector<FuncId> &callees,
                const std::vector<FuncId> &libCallees,
                std::uint64_t dataAddr)
        : module(module), fn(fn), params(params), rng(rng),
          callees(callees), libCallees(libCallees), dataAddr(dataAddr)
    {
    }

    void
    build()
    {
        cur = fn.newBlock();
        // The per-call random word: every condition derives from a
        // different bit window of it, so branch outcomes vary call to
        // call without per-branch LCG code.
        arg = fn.newReg();
        emit(makeMov(arg, regArg0));
        state = fn.newReg();
        emit(makeBinI(Opcode::AddI, state, arg,
                      static_cast<std::int64_t>(rng.next() >> 1)));
        lcgStep();
        sink = fn.newReg();
        emit(makeBin(Opcode::Xor, sink, state, arg));

        const unsigned items = params.itemsPerFunc;
        for (unsigned i = 0; i < items; ++i)
            genItem(0);

        // Return a mixing of everything computed.
        const RegNum ret = fn.newReg();
        emit(makeBinI(Opcode::AndI, ret, sink, 0xffffff));
        emit(makeMov(regRet, ret));
        emit(makeRet());
    }

  private:
    Module &module;
    Function &fn;
    const WorkloadParams &params;
    Rng rng;
    const std::vector<FuncId> &callees;
    const std::vector<FuncId> &libCallees;
    std::uint64_t dataAddr;

    BlockId cur = 0;
    RegNum arg = 0;
    RegNum state = 0;  //!< per-call random word
    RegNum sink = 0;   //!< keeps burst results live

    void emit(Operation op) { fn.blocks[cur].ops.push_back(op); }

    BlockId
    startBlock()
    {
        cur = fn.newBlock();
        return cur;
    }

    /** Advance the per-function pseudo-random state (2 ops). */
    void
    lcgStep()
    {
        const RegNum k = fn.newReg();
        emit(makeMovI(k, 6364136223846793005LL));
        const RegNum t = fn.newReg();
        emit(makeBin(Opcode::Mul, t, state, k));
        const RegNum next = fn.newReg();
        emit(makeBinI(Opcode::AddI, next, t, 1442695040888963407LL));
        state = next;
    }

    /** A run of computational operations folded into the sink. */
    void
    computeBurst()
    {
        const unsigned n = rng.sizeDraw(params.meanBurstOps, 6);
        RegNum acc = sink;
        for (unsigned i = 0; i < n; ++i) {
            const RegNum out = fn.newReg();
            const double pick = rng.nextReal();
            if (pick < params.fpFraction) {
                const Opcode fp_ops[] = {Opcode::FAdd, Opcode::FSub,
                                         Opcode::FMul, Opcode::FCvt};
                const Opcode op = fp_ops[rng.nextBelow(4)];
                if (op == Opcode::FCvt) {
                    emit(makeBinI(Opcode::AddI, out, acc, 0));
                    Operation cvt;
                    cvt.op = Opcode::FCvt;
                    cvt.dst = out;
                    cvt.src1 = acc;
                    fn.blocks[cur].ops.back() = cvt;
                } else {
                    emit(makeBin(op, out, acc, state));
                }
            } else if (pick < params.fpFraction +
                                  params.mulDivFraction) {
                const Opcode md[] = {Opcode::Mul, Opcode::Div,
                                     Opcode::Rem};
                emit(makeBin(md[rng.nextBelow(3)], out, acc, state));
            } else {
                const Opcode alu[] = {Opcode::Add,  Opcode::Sub,
                                      Opcode::Xor,  Opcode::Or,
                                      Opcode::And,  Opcode::Shl,
                                      Opcode::Shr,  Opcode::CmpLt};
                emit(makeBin(alu[rng.nextBelow(8)], out, acc, state));
            }
            acc = out;
        }
        // Memory traffic: address = data + ((acc >> 5) & mask) * 8.
        const unsigned mem_ops =
            rng.chance(params.memOpsPerBurst -
                       std::floor(params.memOpsPerBurst))
                ? static_cast<unsigned>(params.memOpsPerBurst) + 1
                : static_cast<unsigned>(params.memOpsPerBurst);
        for (unsigned i = 0; i < mem_ops; ++i) {
            const RegNum idx = fn.newReg();
            emit(makeBinI(Opcode::ShrI, idx, acc, 5));
            const RegNum masked = fn.newReg();
            emit(makeBinI(Opcode::AndI, masked, idx,
                          params.dataWords - 1));
            const RegNum off = fn.newReg();
            emit(makeBinI(Opcode::ShlI, off, masked, 3));
            if (rng.chance(0.7)) {
                const RegNum v = fn.newReg();
                emit(makeLd(v, off,
                            static_cast<std::int64_t>(dataAddr)));
                const RegNum mixed = fn.newReg();
                emit(makeBin(Opcode::Xor, mixed, acc, v));
                acc = mixed;
            } else {
                emit(makeSt(off, static_cast<std::int64_t>(dataAddr),
                            acc));
            }
        }
        sink = acc;
    }

    /** Branch condition per the benchmark's behaviour mix. */
    RegNum
    condition()
    {
        const double pick = rng.nextReal();
        const RegNum c = fn.newReg();
        if (pick < params.fracPattern) {
            // Loop-counter pattern on HIGH bits: the outcome holds for
            // runs of 8-64 consecutive calls, which simple counters
            // track almost perfectly (like SPEC's loop-exit and mode
            // branches).
            const unsigned shift = 3 + rng.nextBelow(4);
            const RegNum t1 = fn.newReg();
            emit(makeBinI(Opcode::ShrI, t1, arg, shift));
            const RegNum t2 = fn.newReg();
            emit(makeBinI(Opcode::AndI, t2, t1, 1));
            emit(makeBinI(Opcode::CmpEqI, c, t2, 0));
        } else if (pick < params.fracPattern + params.fracRandom) {
            // 50/50 pseudo-random: one private bit of the call's
            // random word.
            const unsigned shift = 5 + rng.nextBelow(55);
            const RegNum t = fn.newReg();
            emit(makeBinI(Opcode::ShrI, t, state, shift));
            emit(makeBinI(Opcode::AndI, c, t, 1));
        } else {
            // Biased: a private 6-bit window compared to a threshold.
            const unsigned shift = 5 + rng.nextBelow(50);
            const RegNum t1 = fn.newReg();
            emit(makeBinI(Opcode::ShrI, t1, state, shift));
            const RegNum t2 = fn.newReg();
            emit(makeBinI(Opcode::AndI, t2, t1, 63));
            const std::int64_t threshold =
                static_cast<std::int64_t>(params.biasedP * 64.0);
            emit(makeBinI(Opcode::CmpLtI, c, t2, threshold));
        }
        return c;
    }

    void
    genItem(unsigned depth)
    {
        const double pick = rng.nextReal();
        double acc = params.branchDensity;
        if (pick < acc) {
            genDiamond(depth);
            return;
        }
        acc += params.loopDensity;
        if (pick < acc && depth < 2) {
            genLoop(depth);
            return;
        }
        acc += params.callDensity;
        if (pick < acc) {
            if (genCall())
                return;
            // fall through to a burst when no callee is eligible
            computeBurst();
            return;
        }
        acc += params.switchDensity;
        if (pick < acc) {
            genSwitch();
            return;
        }
        computeBurst();
    }

    void
    genDiamond(unsigned depth)
    {
        const RegNum c = condition();
        const BlockId then_b = fn.newBlock();
        const bool has_else = rng.chance(0.6);
        const BlockId else_b = has_else ? fn.newBlock() : invalidId;
        const BlockId join_b = fn.newBlock();
        emit(makeTrap(c, then_b, has_else ? else_b : join_b));

        cur = then_b;
        computeBurst();
        if (depth < 2 && rng.chance(0.25))
            genItem(depth + 1);
        emit(makeJmp(join_b));

        if (has_else) {
            cur = else_b;
            computeBurst();
            emit(makeJmp(join_b));
        }
        cur = join_b;
    }

    void
    genLoop(unsigned depth)
    {
        const unsigned trips = 2 + rng.nextBelow(params.maxLoopTrip - 1);
        const RegNum j = fn.newReg();
        emit(makeMovI(j, 0));
        const BlockId head = fn.newBlock();
        emit(makeJmp(head));
        cur = head;
        const RegNum c = fn.newReg();
        emit(makeBinI(Opcode::CmpLtI, c, j, trips));
        const BlockId body = fn.newBlock();
        const BlockId exit = fn.newBlock();
        emit(makeTrap(c, body, exit));
        cur = body;
        computeBurst();
        genItem(depth + 1);
        if (rng.chance(0.5))
            genItem(depth + 1);
        emit(makeBinI(Opcode::AddI, j, j, 1));
        emit(makeJmp(head));
        cur = exit;
    }

    bool
    genCall()
    {
        // Library calls are a bounded fraction of ALL call sites, so
        // unenlargeable code gets a realistic (small) dynamic share;
        // leaf-tier functions otherwise simply compute.
        FuncId callee;
        const bool lib_roll =
            !libCallees.empty() && rng.chance(params.libCallFraction);
        if (lib_roll) {
            callee = libCallees[rng.nextBelow(libCallees.size())];
        } else if (!callees.empty()) {
            callee = callees[rng.nextBelow(callees.size())];
        } else {
            return false;
        }
        const RegNum a = fn.newReg();
        if (rng.chance(0.7)) {
            // Structured argument: loop-counter patterns stay
            // learnable down the call tiers.
            emit(makeBinI(Opcode::AddI, a, arg,
                          static_cast<std::int64_t>(rng.nextBelow(8))));
        } else {
            emit(makeBin(Opcode::Xor, a, state, arg));
        }
        emit(makeMov(regArg0, a));
        const BlockId cont = fn.newBlock();
        emit(makeCall(callee, cont));
        cur = cont;
        const RegNum merged = fn.newReg();
        emit(makeBin(Opcode::Add, merged, sink, regRet));
        sink = merged;
        return true;
    }

    void
    genSwitch()
    {
        const unsigned cases = 3 + rng.nextBelow(3);
        const unsigned shift = 5 + rng.nextBelow(50);
        const RegNum sel = fn.newReg();
        emit(makeBinI(Opcode::ShrI, sel, state, shift));
        const BlockId join_b = fn.newBlock();
        std::vector<BlockId> targets;
        for (unsigned i = 0; i < cases; ++i)
            targets.push_back(fn.newBlock());
        const auto table = static_cast<std::uint32_t>(
            fn.jumpTables.size());
        fn.jumpTables.push_back(targets);
        emit(makeIJmp(sel, table));
        for (BlockId t : targets) {
            cur = t;
            computeBurst();
            emit(makeJmp(join_b));
        }
        cur = join_b;
    }
};

} // namespace

std::uint64_t
workloadCodeBytes(const Module &module)
{
    return module.numOps() * opBytes;
}

Module
generateWorkload(const WorkloadParams &params)
{
    Rng rng(params.seed * 0x9e3779b97f4a7c15ULL + 0x100);
    Module module;

    // Data segment (pseudo-random contents).
    const std::uint64_t data_addr = module.allocData(params.dataWords);
    {
        Rng data_rng = rng.split();
        for (auto &word : module.data)
            word = data_rng.next() & 0xffff;
    }

    // Function skeletons first so call targets resolve.
    Function &main_fn = module.addFunction("main");
    module.mainFunc = main_fn.id;
    std::vector<FuncId> app_funcs;
    for (unsigned i = 0; i < params.numFuncs; ++i) {
        Function &f =
            module.addFunction("f" + std::to_string(i));
        app_funcs.push_back(f.id);
    }
    std::vector<FuncId> lib_funcs;
    for (unsigned i = 0; i < params.numLibFuncs; ++i) {
        Function &f =
            module.addFunction("lib" + std::to_string(i));
        f.isLibrary = true;
        lib_funcs.push_back(f.id);
    }

    // Call tiers: tier k may call tier k+1 and the library; the last
    // tier and library functions are leaves.
    const unsigned tiers = 4;
    auto tier_of = [&](unsigned idx) {
        return idx * tiers / std::max(1u, params.numFuncs);
    };

    for (unsigned i = 0; i < params.numFuncs; ++i) {
        std::vector<FuncId> callees;
        const unsigned my_tier = tier_of(i);
        if (my_tier + 1 < tiers) {
            for (unsigned j = 0; j < params.numFuncs; ++j)
                if (tier_of(j) == my_tier + 1)
                    callees.push_back(app_funcs[j]);
        }
        FuncBuilder builder(module, module.functions[app_funcs[i]],
                            params, rng.split(), callees, lib_funcs,
                            data_addr);
        builder.build();
    }
    for (FuncId lib : lib_funcs) {
        const std::vector<FuncId> none;
        WorkloadParams leaf = params;
        leaf.callDensity = 0.0;
        leaf.itemsPerFunc = std::max(2u, params.itemsPerFunc / 3);
        FuncBuilder builder(module, module.functions[lib], leaf,
                            rng.split(), none, none, data_addr);
        builder.build();
    }

    // main: loop over tier-0 functions with hot/cold gating.
    {
        Function &fn = module.functions[module.mainFunc];
        const BlockId entry = fn.newBlock();
        BlockId cur = entry;
        auto emit = [&](Operation op) {
            fn.blocks[cur].ops.push_back(op);
        };

        const RegNum i = fn.newReg();
        emit(makeMovI(i, 0));
        const RegNum acc = fn.newReg();
        emit(makeMovI(acc, 0));
        const BlockId head = fn.newBlock();
        emit(makeJmp(head));
        cur = head;
        const RegNum c = fn.newReg();
        emit(makeBinI(Opcode::CmpLtI, c, i,
                      static_cast<std::int64_t>(params.mainTrips)));
        const BlockId body = fn.newBlock();
        const BlockId exit = fn.newBlock();
        emit(makeTrap(c, body, exit));

        cur = body;
        Rng hot_rng = rng.split();
        for (unsigned fi = 0; fi < params.numFuncs; ++fi) {
            if (tier_of(fi) != 0)
                continue;
            const bool hot = hot_rng.chance(params.hotFraction);
            BlockId cont_after = invalidId;
            if (!hot) {
                // Cold functions run every 16th iteration.
                const RegNum masked = fn.newReg();
                emit(makeBinI(Opcode::AndI, masked, i, 15));
                const RegNum cold_c = fn.newReg();
                emit(makeBinI(Opcode::CmpEqI, cold_c, masked,
                              hot_rng.nextBelow(16)));
                const BlockId call_b = fn.newBlock();
                const BlockId skip_b = fn.newBlock();
                emit(makeTrap(cold_c, call_b, skip_b));
                cur = call_b;
                cont_after = skip_b;
            }
            const RegNum a = fn.newReg();
            emit(makeBinI(Opcode::AddI, a, i,
                          static_cast<std::int64_t>(fi * 17)));
            emit(makeMov(regArg0, a));
            const BlockId cont = fn.newBlock();
            emit(makeCall(app_funcs[fi], cont));
            cur = cont;
            const RegNum merged = fn.newReg();
            emit(makeBin(Opcode::Add, merged, acc, regRet));
            emit(makeMov(acc, merged));
            if (cont_after != invalidId) {
                emit(makeJmp(cont_after));
                cur = cont_after;
            }
        }
        emit(makeBinI(Opcode::AddI, i, i, 1));
        emit(makeJmp(head));

        cur = exit;
        emit(makeMov(regRet, acc));
        emit(makeHalt());
    }

    verifyModuleOrDie(module, "after workload generation");
    if (params.inlineSmallCalls) {
        // Generated leaf functions are utility-sized (~100 ops), so
        // the threshold sits above that; growth stays bounded.
        InlineOptions inline_options;
        inline_options.maxCalleeOps = 200;
        inline_options.growthLimit = 6.0;
        inlineCalls(module, inline_options);
        verifyModuleOrDie(module, "after inlining");
    }
    optimizeModule(module);
    allocateModule(module);
    splitOversizedBlocks(module, suiteBlockOps);
    verifyModuleOrDie(module, "after workload compilation");
    return module;
}

} // namespace bsisa
