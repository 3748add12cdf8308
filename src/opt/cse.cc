/**
 * @file
 * Block-local common-subexpression elimination.
 *
 * Pure operations with identical opcode/operands/immediate reuse the
 * earlier result through a Mov (copy propagation and DCE then clean
 * up).  Loads participate until any store or call invalidates memory;
 * we make no aliasing claims, so invalidation is total.
 */

#include <vector>

#include "opt/passes.hh"
#include "regalloc/liveness.hh"

namespace bsisa
{

namespace
{

/** An expression key: opcode, sources, immediate, and an epoch mixing
 *  the source versions and (for loads) the memory epoch. */
struct ExprKey
{
    Opcode op;
    RegNum src1;
    RegNum src2;
    std::int64_t imm;
    unsigned epoch;

    bool operator==(const ExprKey &) const = default;

    std::uint64_t
    hash() const
    {
        std::uint64_t h = (std::uint64_t(op) << 32) ^ src1;
        h = (h ^ (std::uint64_t(src2) << 24) ^ epoch) *
            0x9e3779b97f4a7c15ull;
        h = (h ^ std::uint64_t(imm)) * 0xc2b2ae3d27d4eb4full;
        return h ^ (h >> 29);
    }
};

/**
 * The expressions available in the current block: an open-addressing
 * table whose slots belong to the block that stamped them, so moving
 * to the next block empties it without touching a slot.
 */
class ExprTable
{
  public:
    /** Start a block of @p ops operations. */
    void
    beginBlock(std::size_t ops)
    {
        if (2 * ops > slots.size()) {
            std::size_t size = 64;
            while (size < 2 * ops)
                size *= 2;
            slots.assign(size, Slot{});
            stamp = 0;
        }
        ++stamp;
    }

    /** The entry for @p key: a fresh one (stamped, holder invalidId)
     *  if the block has not recorded it. */
    std::pair<RegNum, unsigned> &
    find(const ExprKey &key)
    {
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = key.hash() & mask;; i = (i + 1) & mask) {
            Slot &slot = slots[i];
            if (slot.stamp != stamp) {
                slot = {key, {invalidId, 0}, stamp};
                return slot.value;
            }
            if (slot.key == key)
                return slot.value;
        }
    }

  private:
    struct Slot
    {
        ExprKey key{};
        /** Holder register and the version it had when recorded. */
        std::pair<RegNum, unsigned> value{invalidId, 0};
        unsigned stamp = 0;
    };

    std::vector<Slot> slots;
    unsigned stamp = 0;
};

bool
cseEligible(const Operation &op)
{
    if (!hasDest(op.op))
        return false;
    switch (op.op) {
      case Opcode::MovI:  // handled by constant folding
      case Opcode::Mov:   // handled by copy propagation
        return false;
      default:
        return true;
    }
}

} // namespace

unsigned
localCSE(Function &func)
{
    unsigned replaced = 0;
    ExprTable available;
    // Version counter per register: bumping it invalidates every
    // expression that read the old value.  Registers bumped in a
    // block are listed in touched and reset before the next.
    std::vector<unsigned> version(func.numVirtualRegs, 0);
    std::vector<RegNum> touched;
    auto bump = [&](RegNum r) {
        if (version[r]++ == 0)
            touched.push_back(r);
        return version[r];
    };

    for (Block &blk : func.blocks) {
        available.beginBlock(blk.ops.size());
        for (RegNum r : touched)
            version[r] = 0;
        touched.clear();
        unsigned mem_epoch = 0;

        for (Operation &op : blk.ops) {
            if (op.op == Opcode::St || op.op == Opcode::Call) {
                ++mem_epoch;
            }
            if (!cseEligible(op)) {
                if (const RegNum def = opDef(op); def != invalidId)
                    bump(def);
                continue;
            }

            const unsigned nsrc = numSources(op.op);
            // Key mixes source-register versions so stale entries never
            // match, and the memory epoch for loads.
            const unsigned key_epoch =
                (op.op == Opcode::Ld ? mem_epoch * 0x10000 : 0) +
                (nsrc >= 1 ? version[op.src1] : 0) * 0x100 +
                (nsrc >= 2 ? version[op.src2] : 0);
            const ExprKey key{op.op, nsrc >= 1 ? op.src1 : 0,
                              nsrc >= 2 ? op.src2 : 0, op.imm, key_epoch};

            std::pair<RegNum, unsigned> &entry = available.find(key);
            if (entry.first != invalidId && entry.first != op.dst &&
                version[entry.first] == entry.second) {
                op = makeMov(op.dst, entry.first);
                bump(op.dst);
                ++replaced;
                continue;
            }
            entry = {op.dst, bump(op.dst)};
        }
    }
    return replaced;
}

} // namespace bsisa
