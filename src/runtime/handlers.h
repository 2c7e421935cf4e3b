/**
 * @file
 * The software decompression exception handlers.
 *
 * These are real programs in the rtd ISA, assembled at build time and
 * loaded into the on-chip HandlerRam. On a compressed-region I-cache
 * miss the CPU vectors to HandlerRam::base and executes them
 * instruction by instruction, so every cost the paper attributes to the
 * software decompressor (dynamic instruction count, register
 * save/restore traffic, D-cache behaviour of the table loads, bit-serial
 * CodePack decoding) is simulated rather than asserted.
 *
 * Four handlers are provided, matching the paper's four schemes:
 *  - dictionary (Figure 2): 26 static / 75 dynamic instructions per line
 *  - dictionary + second register file: no save/restore, fully unrolled
 *  - CodePack: bit-serial tag decode, ~1100 dynamic instructions/group
 *  - CodePack + second register file: no save/restore
 */

#ifndef RTDC_RUNTIME_HANDLERS_H
#define RTDC_RUNTIME_HANDLERS_H

#include <cstdint>
#include <vector>

#include "compress/compressed_image.h"
#include "dmem/data_region.h"
#include "program/program.h"

namespace rtd::runtime {

/** An assembled handler plus its metadata. */
struct HandlerBuild
{
    std::vector<uint32_t> code;  ///< words, to load at HandlerRam::base
    bool usesShadowRegs = false; ///< runs on the second register file

    uint32_t sizeBytes() const
    {
        return static_cast<uint32_t>(code.size()) * 4;
    }
    uint32_t staticInsns() const
    {
        return static_cast<uint32_t>(code.size());
    }
};

/**
 * Build the dictionary-decompression handler (paper Figure 2).
 *
 * @param second_reg_file run on the shadow register file: no register
 *                        save/restore, and the per-line loop is fully
 *                        unrolled (section 4.1)
 * @param line_bytes      I-cache line size; the paper's 32 B gives the
 *                        published 26-static / 75-dynamic counts
 */
HandlerBuild buildDictionaryHandler(bool second_reg_file,
                                    uint32_t line_bytes = 32);

/**
 * Build the CodePack-decompression handler. Decompresses the whole
 * 16-instruction (64-byte) group containing the missed line.
 */
HandlerBuild buildCodePackHandler(bool second_reg_file);

/** Dispatch on scheme. */
HandlerBuild buildHandler(compress::Scheme scheme, bool second_reg_file,
                          uint32_t line_bytes = 32);

/**
 * Build the D-miss (data fault) handler for @p scheme: decompresses the
 * whole page containing the faulting data address into the uncompressed
 * data region with ordinary stores (src/runtime/data_handler.cc).
 * Assembled at @p entry_addr because it may follow the code handler
 * inside HandlerRam when both sides are compressed.
 */
HandlerBuild buildDataHandler(dmem::DataScheme scheme,
                              bool second_reg_file, uint32_t page_bytes,
                              uint32_t entry_addr);

} // namespace rtd::runtime

#endif // RTDC_RUNTIME_HANDLERS_H
