/**
 * @file
 * Optional CRC-32 integrity metadata for compressed images.
 *
 * When a deployment must tolerate flash/DRAM corruption of the
 * compressed program (DESIGN.md section 12), the compressor also emits
 * one CRC-32 per decompression unit — a cache line for the dictionary
 * scheme, a 64-byte group for CodePack — computed over the *original*
 * instruction words. After a software line fill, the CPU
 * checks the reconstructed unit against its CRC and raises a
 * machine-check fault on mismatch, which is what turns a flipped bit in
 * any compressed structure (stream, dictionaries, mapping tables) into
 * a detected, recoverable event instead of silent mis-execution.
 *
 * The table itself is part of the compressed payload (a ".crc" segment,
 * counted in compressedBytes()) and is also a legitimate fault-injection
 * site: a corrupted CRC entry makes a good line look bad, which the
 * retry/halt policy handles like any other integrity failure.
 */

#ifndef RTDC_COMPRESS_INTEGRITY_H
#define RTDC_COMPRESS_INTEGRITY_H

#include <cstdint>
#include <vector>

#include "compress/compressed_image.h"

namespace rtd::compress {

/**
 * Per-unit CRC-32s over @p words (as little-endian bytes), one per
 * @p unit_bytes of decompressed text; the final unit may be partial.
 */
std::vector<uint32_t> computeUnitCrcs(const std::vector<uint32_t> &words,
                                      uint32_t unit_bytes);

/**
 * Attach integrity metadata to a built image: fills crcUnitBytes /
 * unitCrcs and appends the ".crc" segment after the existing segments.
 */
void attachIntegrity(CompressedImage &image,
                     const std::vector<uint32_t> &words,
                     uint32_t unit_bytes);

/**
 * Re-derive unitCrcs from the ".crc" segment bytes. Used after fault
 * injection so a corrupted CRC table is corrupted consistently in both
 * its in-memory and metadata forms. No-op when the segment is absent.
 */
void syncCrcsFromSegment(CompressedImage &image);

} // namespace rtd::compress

#endif // RTDC_COMPRESS_INTEGRITY_H
