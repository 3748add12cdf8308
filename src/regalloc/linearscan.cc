/**
 * @file
 * Linear-scan register allocator implementation.
 */

#include "regalloc/linearscan.hh"

#include <algorithm>
#include <vector>

#include "regalloc/liveness.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

constexpr RegNum firstPoolReg = firstAllocatableReg;     // r12
constexpr RegNum lastPoolReg = numArchRegs - 1;          // r31
constexpr unsigned poolSize = lastPoolReg - firstPoolReg + 1;

struct Interval
{
    RegNum vreg = invalidId;
    std::uint32_t start = ~0u;
    std::uint32_t end = 0;
    RegNum phys = invalidId;     //!< assigned register
    std::int32_t slot = -1;      //!< spill slot index, or -1
};

} // namespace

RegAllocStats
allocateRegisters(Function &func)
{
    RegAllocStats stats;
    if (func.numVirtualRegs <= numArchRegs) {
        func.numVirtualRegs = numArchRegs;
        return stats;
    }

    // ---------------------------------------------------------------
    // 1. Linearize and build live intervals.
    // ---------------------------------------------------------------
    const Liveness live = computeLiveness(func);

    // Intervals indexed by register; vreg stays invalidId for a
    // register the function never mentions.
    std::vector<Interval> intervals(func.numVirtualRegs);
    unsigned seen = 0;
    auto extend = [&](RegNum r, std::uint32_t p) {
        if (r < firstVirtualReg)
            return;
        Interval &iv = intervals[r];
        if (iv.vreg == invalidId) {
            iv.vreg = r;
            ++seen;
        }
        iv.start = std::min(iv.start, p);
        iv.end = std::max(iv.end, p);
    };
    // Extend every register of a live row to @p p.
    auto extend_row = [&](const std::uint64_t *row, std::uint32_t p) {
        for (std::size_t j = 0; j < live.rowWords(); ++j)
            for (std::uint64_t w = row[j]; w != 0; w &= w - 1)
                extend(RegNum(j * 64 + __builtin_ctzll(w)), p);
    };

    // Linear positions: blocks in layout order, one per operation.
    std::uint32_t pos = 0;
    for (BlockId b = 0; b < func.blocks.size(); ++b) {
        const std::uint32_t bs = pos;
        const std::uint32_t be =
            bs + static_cast<std::uint32_t>(func.blocks[b].ops.size()) - 1;
        extend_row(live.liveInRow(b), bs);
        extend_row(live.liveOutRow(b), be);
        for (const Operation &op : func.blocks[b].ops) {
            forEachUse(op, [&](RegNum u) { extend(u, pos); });
            if (const RegNum d = opDef(op); d != invalidId)
                extend(d, pos);
            ++pos;
        }
    }
    stats.intervals = seen;

    // ---------------------------------------------------------------
    // 2. Scan.
    // ---------------------------------------------------------------
    std::vector<Interval *> order;
    order.reserve(seen);
    for (Interval &iv : intervals)
        if (iv.vreg != invalidId)
            order.push_back(&iv);
    std::sort(order.begin(), order.end(),
              [](const Interval *a, const Interval *b) {
                  return a->start != b->start ? a->start < b->start
                                              : a->vreg < b->vreg;
              });

    std::vector<bool> reg_free(poolSize, true);
    std::vector<Interval *> active;  // sorted by increasing end
    std::int32_t next_slot = 0;

    auto expire = [&](std::uint32_t start) {
        while (!active.empty() && active.front()->end < start) {
            reg_free[active.front()->phys - firstPoolReg] = true;
            active.erase(active.begin());
        }
    };
    auto insert_active = [&](Interval *iv) {
        const auto it = std::lower_bound(
            active.begin(), active.end(), iv,
            [](const Interval *a, const Interval *b) {
                return a->end < b->end;
            });
        active.insert(it, iv);
    };

    for (Interval *iv : order) {
        expire(iv->start);
        // Find a free register.
        RegNum phys = invalidId;
        for (unsigned i = 0; i < poolSize; ++i) {
            if (reg_free[i]) {
                phys = firstPoolReg + i;
                break;
            }
        }
        if (phys != invalidId) {
            reg_free[phys - firstPoolReg] = false;
            iv->phys = phys;
            insert_active(iv);
            continue;
        }
        // Spill the interval that ends furthest away.
        Interval *victim = active.back();
        if (victim->end > iv->end) {
            iv->phys = victim->phys;
            victim->phys = invalidId;
            victim->slot = next_slot++;
            active.pop_back();
            insert_active(iv);
            ++stats.spilled;
        } else {
            iv->slot = next_slot++;
            ++stats.spilled;
        }
    }

    // ---------------------------------------------------------------
    // 3. Rewrite operations.
    // ---------------------------------------------------------------
    auto mapping = [&](RegNum r) -> const Interval * {
        if (r < firstVirtualReg)
            return nullptr;
        BSISA_ASSERT(r < intervals.size() &&
                         intervals[r].vreg != invalidId,
                     "unmapped virtual register r", r, " in ", func.name);
        return &intervals[r];
    };

    std::vector<Operation> out;  // one block's rewrite, reused
    for (Block &blk : func.blocks) {
        out.clear();
        for (Operation op : blk.ops) {
            const unsigned nsrc = numSources(op.op);
            const RegNum orig_src1 = op.src1;
            const RegNum orig_src2 = op.src2;
            bool src1_reloaded = false;

            if (nsrc >= 1) {
                if (const Interval *iv = mapping(op.src1)) {
                    if (iv->phys != invalidId) {
                        op.src1 = iv->phys;
                    } else {
                        out.push_back(makeLd(regScratch0, regSp,
                                             iv->slot * 8));
                        op.src1 = regScratch0;
                        src1_reloaded = true;
                        ++stats.spillOpsAdded;
                    }
                }
            }
            if (nsrc >= 2) {
                if (const Interval *iv = mapping(op.src2)) {
                    if (iv->phys != invalidId) {
                        op.src2 = iv->phys;
                    } else if (src1_reloaded && orig_src2 == orig_src1) {
                        // Same spilled register on both sides: reuse
                        // the first reload.
                        op.src2 = regScratch0;
                    } else {
                        out.push_back(makeLd(regScratch1, regSp,
                                             iv->slot * 8));
                        op.src2 = regScratch1;
                        ++stats.spillOpsAdded;
                    }
                }
            }
            if (hasDest(op.op)) {
                if (const Interval *iv = mapping(op.dst)) {
                    if (iv->phys != invalidId) {
                        op.dst = iv->phys;
                        out.push_back(op);
                    } else {
                        op.dst = regScratch0;
                        out.push_back(op);
                        out.push_back(makeSt(regSp, iv->slot * 8,
                                             regScratch0));
                        ++stats.spillOpsAdded;
                    }
                    continue;
                }
            }
            out.push_back(op);
        }
        // Exact-size storage: the allocated module stays resident, so
        // it should not keep the slack earlier passes grew.
        blk.ops = std::vector<Operation>(out.begin(), out.end());
    }

    func.numVirtualRegs = numArchRegs;
    func.frameSize = static_cast<std::uint32_t>(next_slot) * 8;
    return stats;
}

RegAllocStats
allocateModule(Module &module)
{
    RegAllocStats total;
    for (Function &f : module.functions) {
        const RegAllocStats s = allocateRegisters(f);
        total.intervals += s.intervals;
        total.spilled += s.spilled;
        total.spillOpsAdded += s.spillOpsAdded;
    }
    return total;
}

} // namespace bsisa
