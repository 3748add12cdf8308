/**
 * @file
 * Functional interpreter for the conventional ISA.
 *
 * Executes a Module block-by-block at architectural level, producing
 * the committed dynamic basic-block stream that drives both timing
 * models (see DESIGN.md section 5: the committed path is the same for
 * both ISAs, so one functional execution serves both).
 *
 * Call semantics are register-windowed (see arch/reg.hh): the callee
 * starts with a copy of the caller's low 32 registers, its frame is
 * allocated by bumping the window's stack pointer by Function::
 * frameSize, and on return the return-value register is copied back.
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
 * Pull-based functional execution of a Module.
 */
class Interp
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

    /** True once a Halt retired. */
    bool halted() const { return isHalted; }

    /** Dynamic operation count so far. */
    std::uint64_t dynOps() const { return ops; }

    /** Dynamic block count so far. */
    std::uint64_t dynBlocks() const { return blocks; }

    /** Value of the return register in the bottom frame. */
    std::uint64_t exitValue() const;

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

    /** Direct access to simulated memory (tests). */
    Memory &memory() { return mem; }

  private:
    struct Frame
    {
        FuncId func;
        BlockId retTo;   //!< continuation block in the *caller*
        std::vector<std::uint64_t> regs;
    };

    const Module &module;
    Limits limits;
    Memory mem;
    std::vector<Frame> frames;
    /** Backing storage for the last step()'s memAddrs span. */
    std::vector<std::uint64_t> memBuf;
    BlockId curBlock = 0;
    bool isHalted = false;
    std::uint64_t ops = 0;
    std::uint64_t blocks = 0;

    std::uint64_t readReg(const Frame &f, RegNum r) const;
    void writeReg(Frame &f, RegNum r, std::uint64_t v);
};

} // namespace bsisa

#endif // BSISA_SIM_INTERP_HH
