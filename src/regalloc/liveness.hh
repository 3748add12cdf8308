/**
 * @file
 * Per-function register liveness analysis.
 *
 * Classic backward dataflow over the CFG producing live-in/live-out
 * bit sets per block.  Registers are the union of architectural and
 * virtual numbers.  The sets are rows of one word array (gen, kill,
 * live-in and live-out for every block) and the CFG is one flat
 * successor list, so an analysis costs a handful of allocations
 * however many blocks and registers the function has; the optimizer
 * runs it once per DCE round and the allocator once more.
 */

#ifndef BSISA_REGALLOC_LIVENESS_HH
#define BSISA_REGALLOC_LIVENESS_HH

#include <cstdint>
#include <vector>

#include "ir/module.hh"

namespace bsisa
{

/** Dense register set (one row's worth of words, owned). */
class RegSet
{
  public:
    explicit RegSet(RegNum universe = 0)
        : words((universe + 63) / 64, 0)
    {
    }

    void
    insert(RegNum r)
    {
        words[r >> 6] |= 1ULL << (r & 63);
    }

    void
    erase(RegNum r)
    {
        words[r >> 6] &= ~(1ULL << (r & 63));
    }

    bool
    contains(RegNum r) const
    {
        return (words[r >> 6] >> (r & 63)) & 1;
    }

    /** Overwrite with the row @p row (same universe). */
    void
    assign(const std::uint64_t *row)
    {
        words.assign(row, row + words.size());
    }

    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : words)
            n += static_cast<std::size_t>(__builtin_popcountll(w));
        return n;
    }

  private:
    std::vector<std::uint64_t> words;
};

/**
 * Call @p f(r) for each register @p op reads.  A Call conservatively
 * reads every architectural register (the callee's window is copied
 * from them); a Ret or Halt reads the return-value register.
 */
template <typename F>
inline void
forEachUse(const Operation &op, F &&f)
{
    switch (op.op) {
      case Opcode::Call:
        for (RegNum r = 1; r < numArchRegs; ++r)
            f(r);
        return;
      case Opcode::Ret:
      case Opcode::Halt:
        // Halt keeps the program's exit value observable.
        f(regRet);
        return;
      default:
        break;
    }
    const unsigned n = numSources(op.op);
    if (n >= 1)
        f(op.src1);
    if (n >= 2)
        f(op.src2);
}

/** Defined register of @p op, or invalidId. */
inline RegNum
opDef(const Operation &op)
{
    if (op.op == Opcode::Call)
        return regRet;  // the returned value is written back
    return hasDest(op.op) ? op.dst : invalidId;
}

/** Liveness result: one live-in and live-out row per block. */
class Liveness
{
  public:
    /** Words per row (covers func.numVirtualRegs registers). */
    std::size_t rowWords() const { return words; }

    const std::uint64_t *liveInRow(BlockId b) const { return row(in, b); }
    const std::uint64_t *liveOutRow(BlockId b) const { return row(out, b); }

    bool liveIn(BlockId b, RegNum r) const { return test(in, b, r); }
    bool liveOut(BlockId b, RegNum r) const { return test(out, b, r); }

  private:
    friend Liveness computeLiveness(const Function &func);

    /** Row kinds; rows of one kind are contiguous. */
    enum Kind : unsigned { gen, kill, in, out, numKinds };

    std::uint64_t *
    row(Kind k, BlockId b)
    {
        return rows.data() + (std::size_t(k) * blocks + b) * words;
    }
    const std::uint64_t *
    row(Kind k, BlockId b) const
    {
        return rows.data() + (std::size_t(k) * blocks + b) * words;
    }
    bool
    test(Kind k, BlockId b, RegNum r) const
    {
        return (row(k, b)[r >> 6] >> (r & 63)) & 1;
    }

    std::size_t blocks = 0;
    std::size_t words = 0;
    std::vector<std::uint64_t> rows;
};

/** Compute liveness for @p func. */
Liveness computeLiveness(const Function &func);

} // namespace bsisa

#endif // BSISA_REGALLOC_LIVENESS_HH
