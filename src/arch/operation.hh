/**
 * @file
 * The Operation: one load/store-architecture instruction, or one
 * operation inside an atomic block.  All operations occupy 4 bytes in
 * the laid-out executable image.
 */

#ifndef BSISA_ARCH_OPERATION_HH
#define BSISA_ARCH_OPERATION_HH

#include <cstdint>
#include <string>

#include "arch/opcode.hh"
#include "arch/reg.hh"
#include "support/text_writer.hh"

namespace bsisa
{

/** Block identifier, local to a function's block list. */
using BlockId = std::uint32_t;
/** Function identifier within a Module. */
using FuncId = std::uint32_t;
/** Atomic-block identifier, global within a BsaModule. */
using AtomicBlockId = std::uint32_t;

constexpr std::uint32_t invalidId = 0xffffffffu;

/** Bytes occupied by one operation in the executable image. */
constexpr unsigned opBytes = 4;

/**
 * A single operation.  Field use depends on the opcode:
 *   - ALU/memory ops use dst/src1/src2/imm as documented in opcode.hh.
 *   - Jmp: target0 is the successor block.
 *   - Trap: src1 is the condition; target0/target1 are the taken /
 *     not-taken successors; succBits is the log2 of the number of
 *     control-flow successors of the block (section 4.1) which tells
 *     the predictor how many history bits to shift (section 4.3).
 *   - Fault: src1 is the condition; target0 is the *atomic* block the
 *     instruction stream is redirected to when the condition is true.
 *   - Call: callee is the function; target0 is the continuation block.
 *   - IJmp: imm is the index of a per-function jump table; src1 picks
 *     the entry.
 */
struct Operation
{
    Opcode op = Opcode::Nop;
    RegNum dst = 0;
    RegNum src1 = 0;
    RegNum src2 = 0;
    std::int64_t imm = 0;
    std::uint32_t target0 = invalidId;
    std::uint32_t target1 = invalidId;
    FuncId callee = invalidId;
    std::uint8_t succBits = 1;

    /** Instruction class of this operation. */
    InstrClass cls() const { return opcodeClass(op); }

    /** Table-1 execution latency. */
    unsigned latency() const { return execLatency(cls()); }

    /** True iff this operation ends a basic block. */
    bool terminates() const { return isTerminator(op); }

    /** One-line textual form (for dumps and tests). */
    std::string toString() const;
};

/** Append @p op's one-line textual form (Operation::toString's
 *  text; the textual IR's operation syntax). */
void writeOperation(TextWriter &out, const Operation &op);

// Factory helpers keep construction sites short and readable.
Operation makeNop();
Operation makeMovI(RegNum dst, std::int64_t imm);
Operation makeMov(RegNum dst, RegNum src);
Operation makeBin(Opcode op, RegNum dst, RegNum s1, RegNum s2);
Operation makeBinI(Opcode op, RegNum dst, RegNum s1, std::int64_t imm);
Operation makeLd(RegNum dst, RegNum base, std::int64_t off);
Operation makeSt(RegNum base, std::int64_t off, RegNum value);
Operation makeJmp(BlockId target);
Operation makeTrap(RegNum cond, BlockId taken, BlockId notTaken);
Operation makeFault(RegNum cond, AtomicBlockId target);
Operation makeCall(FuncId callee, BlockId continuation);
Operation makeIJmp(RegNum index, std::uint32_t tableIndex);
Operation makeRet();
Operation makeHalt();

} // namespace bsisa

#endif // BSISA_ARCH_OPERATION_HH
