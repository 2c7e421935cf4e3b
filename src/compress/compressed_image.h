/**
 * @file
 * Common types for compressed program images.
 *
 * A compressor turns the linked compressed-region instruction stream into
 * (a) segments placed in simulated main memory and (b) the coprocessor-0
 * register values the software decompressor reads with mfc0 (Figure 2
 * loads the decompressed base, dictionary base, and index base from
 * c0[0..2]).
 */

#ifndef RTDC_COMPRESS_COMPRESSED_IMAGE_H
#define RTDC_COMPRESS_COMPRESSED_IMAGE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace rtd::compress {

/** Which compression scheme a program uses. */
enum class Scheme : uint8_t
{
    None,        ///< plain native code
    Dictionary,  ///< 16-bit fixed indices into an instruction dictionary
    CodePack,    ///< IBM CodePack-style variable-length codewords
    /**
     * Procedure-granularity LZRW1 with a software-managed procedure
     * cache — the Kirovski et al. baseline the paper compares against.
     */
    ProcLzrw1,
};

const char *schemeName(Scheme scheme);

/** One compressed segment to be placed in main memory. */
struct CompressedSegment
{
    std::string name;  ///< e.g. ".indices", ".dictionary"
    uint32_t base = 0;
    std::vector<uint8_t> bytes;
};

/** The full compressed representation of a program's compressed region. */
struct CompressedImage
{
    Scheme scheme = Scheme::None;
    std::vector<CompressedSegment> segments;
    /** c0 register file contents the decompressor expects. */
    std::array<uint32_t, isa::numC0Regs> c0{};

    /// @name Optional integrity metadata (attachIntegrity(); see
    /// DESIGN.md section 12). Zero/empty when integrity is disabled.
    /// @{
    /** Decompressed bytes covered by each CRC (a cache line, or one
     *  64-byte CodePack group). */
    uint32_t crcUnitBytes = 0;
    /** CRC-32 of each unit's original instruction words (LE bytes),
     *  in region order; mirrored into the ".crc" segment. */
    std::vector<uint32_t> unitCrcs;
    /// @}

    /**
     * Total payload bytes (all segments) — the numerator of the paper's
     * compression ratio. The decompressor code itself is excluded, as in
     * the paper ("the decompression code is not included in the
     * compressed program sizes").
     */
    uint32_t compressedBytes() const;

    /** Segment lookup by name; nullptr when absent. */
    const CompressedSegment *segment(const std::string &name) const;
};

} // namespace rtd::compress

#endif // RTDC_COMPRESS_COMPRESSED_IMAGE_H
