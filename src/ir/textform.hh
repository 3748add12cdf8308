/**
 * @file
 * Textual IR serialization: a complete, parseable text form of a
 * Module (the printer's operation syntax plus structural markers and
 * the data segment), and the assembler that reads it back.
 *
 * Round-tripping enables textual test fixtures, diffing compiler
 * stages, and shipping compiled programs between tools without a
 * binary format:
 *
 *   module main=f0
 *   data 16
 *   3 42          # word index, value (zero words omitted)
 *   end
 *   func main id=0 library=0 vregs=32 frame=8
 *   block
 *     movi r12, 7
 *     trap r12, B1, B2 (succBits 1)
 *   endblock
 *   ...
 *   table B1 B2
 *   endfunc
 */

#ifndef BSISA_IR_TEXTFORM_HH
#define BSISA_IR_TEXTFORM_HH

#include <string>

#include "ir/module.hh"
#include "support/text_writer.hh"

namespace bsisa
{

/** Serialize @p module completely (structure + data).  The one text
 *  serializer: moduleToText() writes it to a string, moduleDigest()
 *  (sim/trace_store.hh) hashes the same bytes. */
void writeModule(TextWriter &out, const Module &module);

/** The text form of @p module. */
std::string moduleToText(const Module &module);

/** Parse result of the assembler. */
struct ParseModuleResult
{
    bool ok = false;
    Module module;
    std::string error;  //!< first problem, with a line number
};

/** Parse the text form back into a Module.  Every number must fit
 *  its field exactly (no wrap, saturation or trailing characters) and
 *  the data segment must end below Module::stackBase; anything else is
 *  an error naming the line. */
ParseModuleResult parseModuleText(const std::string &text);

/** Parse one operation in Operation::toString() syntax. */
bool parseOperationText(const std::string &line, Operation &out,
                        std::string &error);

} // namespace bsisa

#endif // BSISA_IR_TEXTFORM_HH
