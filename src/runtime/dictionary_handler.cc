/**
 * @file
 * The dictionary decompression exception handler, transcribed from the
 * paper's Figure 2 ("L1 miss exception handler for dictionary
 * decompression method").
 */

#include "runtime/handlers.h"

#include "mem/handler_ram.h"
#include "program/builder.h"
#include "program/linker.h"
#include "support/bitops.h"
#include "support/logging.h"

namespace rtd::runtime {

using namespace rtd::isa;
using prog::Label;
using prog::ProcedureBuilder;

namespace {

/**
 * Figure 2, verbatim: saves r9-r12 to the user stack (r26/r27 are
 * reserved for the OS and need no saving), computes the index address
 * from the faulting address with shifts (no mapping table), then loops
 * over the line: load index, scale, indexed-load the dictionary entry,
 * swic it into the cache.
 *
 * Register use (paper comments):
 *   r9 : index address            r10: dictionary base
 *   r11: indices base, then index r12: next line addr (loop halt value)
 *   r26: decompressed base, then decompressed insn
 *   r27: insn address to decompress
 */
HandlerBuild
buildLooped(uint32_t line_bytes)
{
    RTDC_ASSERT(isPowerOfTwo(line_bytes) && line_bytes >= 8,
                "bad I-line size %u", line_bytes);
    uint8_t line_shift = static_cast<uint8_t>(floorLog2(line_bytes));

    ProcedureBuilder b("dict_handler");

    // Save regs to user stack.
    b.sw(9, -4, Sp);
    b.sw(10, -8, Sp);
    b.sw(11, -12, Sp);
    b.sw(12, -16, Sp);

    // Load system register inputs into general registers.
    b.mfc0(27, C0BadVa);       // the faulting PC
    b.mfc0(26, C0DecompBase);  // decompressed base
    b.mfc0(10, C0DictBase);    // dictionary base
    b.mfc0(11, C0IndexBase);   // indices base

    // Zero low bits to get the cache line address.
    b.srl(27, 27, line_shift);
    b.sll(27, 27, line_shift);

    // index_address = (BADVA - decomp_base) >> 1 + index_base
    b.sub(9, 27, 26);
    b.srl(9, 9, 1);
    b.add(9, 11, 9);

    // Next line address (stop when we reach it).
    b.addiu(12, 27, static_cast<int16_t>(line_bytes));

    Label loop = b.newLabel();
    b.bind(loop);
    b.lhu(11, 0, 9);       // put index in r11
    b.addiu(9, 9, 2);      // index_address++
    b.sll(11, 11, 2);      // scale for 4 B dictionary entry
    b.lwx(26, 11, 10);     // r26 holds the instruction
    b.swic(26, 0, 27);     // store word in cache
    b.addiu(27, 27, 4);    // advance insn address
    b.bne(27, 12, loop);

    // Restore registers and return.
    b.lw(9, -4, Sp);
    b.lw(10, -8, Sp);
    b.lw(11, -12, Sp);
    b.lw(12, -16, Sp);
    b.iret();

    HandlerBuild out;
    out.code = prog::assembleProcedure(b.take(), mem::HandlerRam::base);
    out.usesShadowRegs = false;
    return out;
}

/**
 * Second-register-file variant (section 4.1): the handler runs on the
 * shadow register file, so no registers are saved or restored, and the
 * extra registers let the loop be completely unrolled — eliminating the
 * two adds and the branch of each iteration.
 */
HandlerBuild
buildUnrolled(uint32_t line_bytes)
{
    RTDC_ASSERT(isPowerOfTwo(line_bytes) && line_bytes >= 8 &&
                line_bytes <= 256,
                "bad I-line size %u", line_bytes);
    uint8_t line_shift = static_cast<uint8_t>(floorLog2(line_bytes));
    unsigned words = line_bytes / 4;

    ProcedureBuilder b("dict_handler_rf");

    b.mfc0(27, C0BadVa);
    b.mfc0(26, C0DecompBase);
    b.mfc0(10, C0DictBase);
    b.mfc0(11, C0IndexBase);
    b.srl(27, 27, line_shift);
    b.sll(27, 27, line_shift);
    b.sub(9, 27, 26);
    b.srl(9, 9, 1);
    b.add(9, 11, 9);

    for (unsigned i = 0; i < words; ++i) {
        b.lhu(11, static_cast<int16_t>(i * 2), 9);
        b.sll(11, 11, 2);
        b.lwx(26, 11, 10);
        b.swic(26, static_cast<int16_t>(i * 4), 27);
    }
    b.iret();

    HandlerBuild out;
    out.code = prog::assembleProcedure(b.take(), mem::HandlerRam::base);
    out.usesShadowRegs = true;
    return out;
}

} // namespace

HandlerBuild
buildDictionaryHandler(bool second_reg_file, uint32_t line_bytes)
{
    return second_reg_file ? buildUnrolled(line_bytes)
                           : buildLooped(line_bytes);
}

HandlerBuild
buildHandler(compress::Scheme scheme, bool second_reg_file,
             uint32_t line_bytes)
{
    switch (scheme) {
      case compress::Scheme::Dictionary:
        return buildDictionaryHandler(second_reg_file, line_bytes);
      case compress::Scheme::CodePack:
        RTDC_ASSERT(line_bytes == 32,
                    "the CodePack handler assumes 32 B I-lines");
        return buildCodePackHandler(second_reg_file);
      case compress::Scheme::ProcLzrw1:
        panic("use proccache::buildLzrw1Handler() for the "
              "procedure-based scheme");
      case compress::Scheme::None:
        break;
    }
    panic("no handler for scheme 'native'");
}

} // namespace rtd::runtime
