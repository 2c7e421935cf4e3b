/**
 * @file
 * CodePack-style compression (paper section 3.2, [IBM98]).
 *
 * Reconstruction of IBM's CodePack algorithm (the exact IBM codeword
 * tables are proprietary; tag widths follow the published descriptions —
 * see DESIGN.md section 7):
 *
 *  - each 32-bit instruction is split into 16-bit high and low halves;
 *  - each half is encoded against its own frequency-ranked dictionary
 *    with tagged variable-length codewords:
 *
 *        tag 00            rank 0 (most frequent value)        2 bits
 *        tag 01  + 4 bits  ranks 1..16                         6 bits
 *        tag 100 + 6 bits  ranks 17..80                        9 bits
 *        tag 101 + 8 bits  ranks 81..336                      11 bits
 *        tag 11  + 16 raw  escape (literal halfword)          18 bits
 *
 *  - 16 instructions (two 32-byte cache lines) form a group; each group's
 *    codewords start byte-aligned;
 *  - a mapping table with one 32-bit entry per pair of groups translates
 *    a missed line address to the group's byte offset in the codeword
 *    stream.
 *
 * The variable-length, bit-serial format is what makes the CodePack
 * software decompressor ~15x slower per line than the dictionary scheme,
 * while compressing substantially better.
 */

#ifndef RTDC_COMPRESS_CODEPACK_H
#define RTDC_COMPRESS_CODEPACK_H

#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressed_image.h"

namespace rtd::compress {

/** CodePack group and tag-class geometry. */
struct CodePackParams
{
    static constexpr unsigned groupInsns = 16;   ///< instructions per group
    static constexpr unsigned groupBytes = 64;   ///< native bytes per group
    /** Rank class boundaries: [0], [1,17), [17,81), [81,337). */
    static constexpr unsigned class1First = 1;
    static constexpr unsigned class2First = 17;
    static constexpr unsigned class3First = 81;
    static constexpr unsigned dictEntries = 337; ///< max indexable ranks
};

/** Compressed form of an instruction stream. */
struct CodePackCompressed
{
    std::vector<uint16_t> highDict;  ///< frequency-ranked high halves
    std::vector<uint16_t> lowDict;   ///< frequency-ranked low halves
    std::vector<uint8_t> stream;     ///< byte-aligned group codewords
    /**
     * Mapping table, one 32-bit entry per *pair* of groups (as in IBM's
     * index table): bits [23:0] hold the even group's byte offset into
     * the stream, bits [31:24] the odd group's additional offset.
     */
    std::vector<uint32_t> mapTable;
    size_t numInsns = 0;             ///< instructions encoded (padded)

    /** Byte offset of group @p g in the stream (decoded from mapTable). */
    uint32_t groupOffset(size_t g) const;

    /** Payload bytes: stream + mapping table + both dictionaries. */
    uint32_t compressedBytes() const;
};

/** CodePack compressor / reference decompressor. */
class CodePack
{
  public:
    /**
     * Compress an instruction stream. The stream is padded with nops to
     * a whole number of groups (the software decompressor always
     * reconstructs full groups).
     */
    static CodePackCompressed compress(const std::vector<uint32_t> &words);

    /** Reference (C++) decompressor for round-trip tests. */
    static std::vector<uint32_t> decompress(
        const CodePackCompressed &compressed);

    /** Decompress a single group (group_idx) into 16 words. Asserts on
     *  corrupt input (use tryDecompressGroup for untrusted data). */
    static void decompressGroup(const CodePackCompressed &compressed,
                                size_t group_idx, uint32_t out[16]);

    /**
     * Hardened reference decode of one group for untrusted/corrupted
     * input: bounds-checks the mapping-table entry, the stream offset,
     * every dictionary rank, and the stream length. Returns false (with
     * a diagnostic in @p error when non-null) instead of asserting;
     * never reads out of bounds.
     */
    static bool tryDecompressGroup(const CodePackCompressed &compressed,
                                   size_t group_idx, uint32_t out[16],
                                   std::string *error = nullptr);

    /**
     * Build the memory image: .codewords, .map, .highdict and .lowdict
     * segments plus the c0 registers the CodePack handler reads.
     */
    static CompressedImage buildImage(const std::vector<uint32_t> &words,
                                      uint32_t decomp_base);
};

} // namespace rtd::compress

#endif // RTDC_COMPRESS_CODEPACK_H
