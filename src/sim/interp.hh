/**
 * @file
 * Architectural state and the functional interpreter for the
 * conventional ISA.
 *
 * ArchState is the state both interpreters run on: data memory, the
 * register-window call stack, call and return, the successor of an
 * intra-function branch, and the exit-value and checksum read-outs.
 * Call semantics are register-windowed (see arch/reg.hh): the callee
 * starts with a copy of the caller's low 32 registers, its frame is
 * allocated by lowering the window's stack pointer by Function::
 * frameSize, and on return the return-value register is copied back.
 *
 * Interp adds the conventional block discipline: it executes a Module
 * basic block by basic block in place, producing the committed dynamic
 * basic-block stream that drives both timing models (see DESIGN.md
 * section 5: the committed path is the same for both ISAs, so one
 * functional execution serves both).  BsaInterp (sim/bsa_interp.hh)
 * adds the atomic-block discipline on the same state.
 */

#ifndef BSISA_SIM_INTERP_HH
#define BSISA_SIM_INTERP_HH

#include <cstdint>
#include <vector>

#include "ir/module.hh"
#include "sim/memory.hh"

namespace bsisa
{

/** What a block's terminator did; drives trace mapping. */
enum class ExitKind : unsigned char
{
    Jump,   //!< unconditional intra-function edge
    Trap,   //!< two-way conditional; 'taken' says which way
    Call,   //!< entered a callee
    IJump,  //!< indirect jump through a table
    Ret,    //!< returned to the caller
    Halt,   //!< program finished
};

/**
 * One committed basic-block execution.
 *
 * A trivially copyable value: the Ld/St addresses are carried as a
 * read-only span into the interpreter's per-step buffer, not as a
 * per-event vector; captureTrace copies them into the ExecTrace pool.
 */
struct BlockEvent
{
    FuncId func = invalidId;
    BlockId block = invalidId;
    ExitKind exit = ExitKind::Halt;
    bool taken = false;          //!< Trap direction (true = target0)
    FuncId nextFunc = invalidId;  //!< block that executes next
    BlockId nextBlock = invalidId;
    /** Addresses touched by Ld/St operations, in op order. */
    const std::uint64_t *memAddrs = nullptr;
    std::uint32_t memCount = 0;
};

/**
 * Version of the functional execution semantics.  Baked into trace
 * store entries (sim/trace_store.hh): bump it whenever a change to the
 * interpreter (or to anything upstream that alters the committed
 * stream for an unchanged module) invalidates previously captured
 * traces.
 */
constexpr std::uint32_t interpVersion = 1;

/** Number of live Interp instances constructed process-wide.  A warm
 *  trace store replays everything from disk, so suite drivers can
 *  assert that no functional execution happened at all. */
std::uint64_t interpInvocations();

/**
 * The architectural state of a functional execution: memory
 * initialised from the module and one register window per active
 * call.  A window holds max(numVirtualRegs, numArchRegs) registers, so
 * a module that was never register-allocated runs as well.
 */
class ArchState
{
  public:
    /** True once a Halt retired. */
    bool halted() const { return isHalted; }

    /** Value of the return register in the bottom frame. */
    std::uint64_t exitValue() const { return frames.front().regs[regRet]; }

    /** Checksum over all touched memory; used by equivalence tests. */
    std::uint64_t memChecksum() const { return mem.checksum(); }

    /**
     * Checksum over the global-data region only (excludes the stack,
     * whose leftover spill slots differ across compilation variants).
     */
    std::uint64_t
    dataChecksum() const
    {
        return mem.checksumRange(
            Module::dataBase, Module::dataBase + module.data.size() * 8);
    }

  protected:
    struct Frame
    {
        FuncId func;
        BlockId retTo;   //!< continuation block in the *caller*
        std::vector<std::uint64_t> regs;
    };

    /** Set up memory and main's window, sp at the top of the stack. */
    explicit ArchState(const Module &module);

    /** The innermost window. */
    Frame &top() { return frames.back(); }

    /** Enter @p callee, returning to @p retTo in the current function:
     *  the new window copies the caller's architectural registers and
     *  lowers sp by the callee's frame. */
    void call(FuncId callee, BlockId retTo);

    /** Leave the current function, copying regRet back to the caller.
     *  @return the caller's continuation block (top() is the caller). */
    BlockId ret();

    /** The block a Jmp, Trap or IJmp @p op of the current function
     *  continues at, given its first source @p s1. */
    BlockId successor(const Operation &op, std::uint64_t s1) const;

    const Module &module;
    Memory mem;
    bool isHalted = false;

  private:
    std::vector<Frame> frames;

    /** Push a window for @p func whose architectural registers start
     *  as @p caller's. */
    void enter(FuncId func, BlockId retTo, const std::uint64_t *caller);
};

/**
 * Pull-based functional execution of a Module.
 */
class Interp : public ArchState
{
  public:
    /** Execution limits; the interpreter stops cleanly at a block
     *  boundary once maxOps is reached. */
    struct Limits
    {
        std::uint64_t maxOps = 1ull << 62;
        std::uint64_t maxBlocks = 1ull << 62;

        bool operator==(const Limits &) const = default;
    };

    Interp(const Module &module, Limits limits);
    explicit Interp(const Module &module) : Interp(module, Limits()) {}

    /**
     * Execute the next basic block.
     *
     * @param ev Filled with the committed event.  The event's memAddrs
     *           span points into a buffer owned by this interpreter
     *           and is overwritten by the next step() call; callers
     *           needing longer-lived addresses must copy (captureTrace
     *           pools them into an ExecTrace).
     * @retval true a block was executed.
     * @retval false the program halted or a limit was reached.
     */
    bool step(BlockEvent &ev);

    /** Run to completion (or limit), discarding events. */
    void run();

    /** Dynamic operation count so far. */
    std::uint64_t dynOps() const { return ops; }

    /** Dynamic block count so far. */
    std::uint64_t dynBlocks() const { return blocks; }

  private:
    Limits limits;
    /** Backing storage for the last step()'s memAddrs span. */
    std::vector<std::uint64_t> memBuf;
    BlockId curBlock = 0;
    std::uint64_t ops = 0;
    std::uint64_t blocks = 0;

    std::uint64_t readReg(const Frame &f, RegNum r) const;
    void writeReg(Frame &f, RegNum r, std::uint64_t v);
};

} // namespace bsisa

#endif // BSISA_SIM_INTERP_HH
