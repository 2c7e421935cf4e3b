#include "compress/codepack.h"

#include <algorithm>

#include "compress/bitstream.h"
#include "program/program.h"
#include "support/bitops.h"
#include "support/logging.h"

namespace rtd::compress {

namespace {

using Params = CodePackParams;

/** Distinct 16-bit values: the size of every per-value table. */
constexpr size_t halfValues = 1u << 16;

/**
 * Per-half coding table indexed by halfword value. Each entry packs a
 * codeword and its width as (code << 5) | width, so encoding a halfword
 * is one table read and one BitWriter::put.
 */
using CodeTable = std::vector<uint32_t>;

constexpr uint32_t
packCode(uint32_t code, unsigned width)
{
    return code << 5 | width;
}

/** Codeword for dictionary rank @p rank (tag plus class offset). */
constexpr uint32_t
rankCode(uint32_t rank)
{
    if (rank == 0)
        return packCode(0b00, 2);
    if (rank < Params::class2First)
        return packCode(0b01 << 4 | (rank - Params::class1First), 6);
    if (rank < Params::class3First)
        return packCode(0b100 << 6 | (rank - Params::class2First), 9);
    return packCode(0b101 << 8 | (rank - Params::class3First), 11);
}

/**
 * Frequency-rank the halfword values counted in @p counts (one entry per
 * value) into @p dict and return the half's code table. Only the first
 * dictEntries ranks are indexable; every other value keeps the escape
 * entry (tag 11 plus the 16-bit literal). Ranks follow a strict total
 * order -- count descending, then value ascending -- so the dictionary
 * is deterministic.
 */
CodeTable
rankValues(const std::vector<uint32_t> &counts, std::vector<uint16_t> &dict)
{
    std::vector<uint16_t> present;
    for (size_t v = 0; v < halfValues; ++v) {
        if (counts[v] != 0)
            present.push_back(static_cast<uint16_t>(v));
    }
    size_t kept = std::min<size_t>(present.size(), Params::dictEntries);
    std::partial_sort(present.begin(), present.begin() + kept,
                      present.end(), [&counts](uint16_t a, uint16_t b) {
                          if (counts[a] != counts[b])
                              return counts[a] > counts[b];
                          return a < b;
                      });
    dict.assign(present.begin(), present.begin() + kept);

    CodeTable table(halfValues);
    for (size_t v = 0; v < halfValues; ++v)
        table[v] = packCode(0b11u << 16 | static_cast<uint32_t>(v), 18);
    for (uint32_t rank = 0; rank < kept; ++rank)
        table[dict[rank]] = rankCode(rank);
    return table;
}

constexpr unsigned
codeWidth(uint32_t entry)
{
    return entry & 31;
}

/** Append the codeword of @p value from its half's code table. */
void
encodeHalf(BitWriter &bw, uint16_t value, const CodeTable &table)
{
    uint32_t entry = table[value];
    bw.put(entry >> 5, codeWidth(entry));
}

/** Decode one halfword (reference decoder). */
uint16_t
decodeHalf(BitReader &br, const std::vector<uint16_t> &dict)
{
    auto lookup = [&dict](uint32_t rank) -> uint16_t {
        RTDC_ASSERT(rank < dict.size(), "codepack rank %u outside dict",
                    rank);
        return dict[rank];
    };
    uint32_t tag = br.get(2);
    switch (tag) {
      case 0b00:
        return lookup(0);
      case 0b01:
        return lookup(Params::class1First + br.get(4));
      case 0b10:
        if (br.get(1) == 0)
            return lookup(Params::class2First + br.get(6));
        return lookup(Params::class3First + br.get(8));
      default:
        return static_cast<uint16_t>(br.get(16));
    }
}

} // namespace

uint32_t
CodePackCompressed::groupOffset(size_t g) const
{
    size_t pair = g / 2;
    RTDC_ASSERT(pair < mapTable.size(), "group %zu outside map table", g);
    uint32_t entry = mapTable[pair];
    uint32_t offset = entry & 0x00ffffffu;
    if (g & 1)
        offset += entry >> 24;
    return offset;
}

uint32_t
CodePackCompressed::compressedBytes() const
{
    return static_cast<uint32_t>(stream.size() + mapTable.size() * 4 +
                                 highDict.size() * 2 + lowDict.size() * 2);
}

CodePackCompressed
CodePack::compress(const std::vector<uint32_t> &words)
{
    // Pad to whole groups in place of a copy: indices past the end read
    // as nops (core::buildImage already hands over whole groups).
    const size_t num_insns = alignUp(words.size(), Params::groupInsns);
    const uint32_t nop = isa::nopWord();
    auto word = [&](size_t i) { return i < words.size() ? words[i] : nop; };

    std::vector<uint32_t> high_counts(halfValues), low_counts(halfValues);
    for (uint32_t w : words) {
        ++high_counts[w >> 16];
        ++low_counts[w & 0xffff];
    }
    high_counts[nop >> 16] += num_insns - words.size();
    low_counts[nop & 0xffff] += num_insns - words.size();

    CodePackCompressed out;
    out.numInsns = num_insns;
    CodeTable high_codes = rankValues(high_counts, out.highDict);
    CodeTable low_codes = rankValues(low_counts, out.lowDict);

    // Reserve an upper bound on the stream -- every codeword plus at most
    // 7 alignment bits per group -- so it never regrows: the stream moves
    // into the image, and growth slack would live on in artifact caches.
    size_t groups = num_insns / Params::groupInsns;
    uint64_t bound_bits = 7 * uint64_t{groups};
    for (size_t v = 0; v < halfValues; ++v) {
        bound_bits += uint64_t{high_counts[v]} * codeWidth(high_codes[v]) +
                      uint64_t{low_counts[v]} * codeWidth(low_codes[v]);
    }
    BitWriter bw;
    bw.reserve(bound_bits / 8);
    out.mapTable.reserve((groups + 1) / 2);
    uint32_t even_offset = 0;
    for (size_t g = 0; g < groups; ++g) {
        auto offset = static_cast<uint32_t>(bw.sizeBytes());
        if ((g & 1) == 0) {
            RTDC_ASSERT(offset < (1u << 24),
                        "codeword stream exceeds 16 MB");
            even_offset = offset;
            out.mapTable.push_back(offset);
        } else {
            uint32_t delta = offset - even_offset;
            RTDC_ASSERT(delta < 256, "group longer than 255 bytes");
            out.mapTable.back() |= delta << 24;
        }
        for (unsigned i = 0; i < Params::groupInsns; ++i) {
            uint32_t w = word(g * Params::groupInsns + i);
            encodeHalf(bw, static_cast<uint16_t>(w >> 16), high_codes);
            encodeHalf(bw, static_cast<uint16_t>(w), low_codes);
        }
        bw.alignByte();
    }
    out.stream = bw.take();
    return out;
}

void
CodePack::decompressGroup(const CodePackCompressed &compressed,
                          size_t group_idx, uint32_t out[16])
{
    size_t offset = compressed.groupOffset(group_idx);
    BitReader br(compressed.stream.data() + offset,
                 compressed.stream.size() - offset);
    for (unsigned i = 0; i < Params::groupInsns; ++i) {
        uint16_t hi = decodeHalf(br, compressed.highDict);
        uint16_t lo = decodeHalf(br, compressed.lowDict);
        out[i] = static_cast<uint32_t>(hi) << 16 | lo;
    }
    RTDC_ASSERT(br.ok(), "codepack stream overrun in group %zu",
                group_idx);
}

namespace {

/** decodeHalf with rank/overrun checking instead of asserts. */
bool
tryDecodeHalf(BitReader &br, const std::vector<uint16_t> &dict,
              uint16_t &out, std::string *error)
{
    auto lookup = [&](uint32_t rank) {
        if (rank >= dict.size()) {
            if (error) {
                *error = "codepack rank " + std::to_string(rank) +
                         " outside dictionary of " +
                         std::to_string(dict.size());
            }
            return false;
        }
        out = dict[rank];
        return true;
    };
    uint32_t tag = br.get(2);
    bool ok;
    switch (tag) {
      case 0b00:
        ok = lookup(0);
        break;
      case 0b01:
        ok = lookup(Params::class1First + br.get(4));
        break;
      case 0b10:
        if (br.get(1) == 0)
            ok = lookup(Params::class2First + br.get(6));
        else
            ok = lookup(Params::class3First + br.get(8));
        break;
      default:
        out = static_cast<uint16_t>(br.get(16));
        ok = true;
        break;
    }
    if (ok && br.overrun()) {
        if (error)
            *error = "codepack stream truncated mid-codeword";
        return false;
    }
    return ok;
}

} // namespace

bool
CodePack::tryDecompressGroup(const CodePackCompressed &compressed,
                             size_t group_idx, uint32_t out[16],
                             std::string *error)
{
    size_t pair = group_idx / 2;
    if (pair >= compressed.mapTable.size()) {
        if (error) {
            *error = "group " + std::to_string(group_idx) +
                     " outside map table";
        }
        return false;
    }
    uint32_t entry = compressed.mapTable[pair];
    uint32_t offset = entry & 0x00ffffffu;
    if (group_idx & 1)
        offset += entry >> 24;
    if (offset > compressed.stream.size()) {
        if (error) {
            *error = "group offset " + std::to_string(offset) +
                     " outside stream of " +
                     std::to_string(compressed.stream.size()) + " bytes";
        }
        return false;
    }
    BitReader br(compressed.stream.data() + offset,
                 compressed.stream.size() - offset);
    for (unsigned i = 0; i < Params::groupInsns; ++i) {
        uint16_t hi, lo;
        if (!tryDecodeHalf(br, compressed.highDict, hi, error) ||
            !tryDecodeHalf(br, compressed.lowDict, lo, error)) {
            return false;
        }
        out[i] = static_cast<uint32_t>(hi) << 16 | lo;
    }
    return true;
}

std::vector<uint32_t>
CodePack::decompress(const CodePackCompressed &compressed)
{
    std::vector<uint32_t> words(compressed.numInsns);
    size_t groups = compressed.numInsns / Params::groupInsns;
    for (size_t g = 0; g < groups; ++g)
        decompressGroup(compressed, g, words.data() + g * Params::groupInsns);
    return words;
}

CompressedImage
CodePack::buildImage(const std::vector<uint32_t> &words,
                     uint32_t decomp_base)
{
    CodePackCompressed cp = compress(words);

    CompressedImage image;
    image.scheme = Scheme::CodePack;

    uint32_t cursor = prog::layout::compressedBase;
    auto add_segment = [&](const char *name, std::vector<uint8_t> bytes,
                           uint32_t align) {
        cursor = static_cast<uint32_t>(alignUp(cursor, align));
        CompressedSegment seg;
        seg.name = name;
        seg.base = cursor;
        seg.bytes = std::move(bytes);
        cursor += static_cast<uint32_t>(seg.bytes.size());
        image.segments.push_back(std::move(seg));
        return image.segments.back().base;
    };

    auto halves_bytes = [](const std::vector<uint16_t> &halves) {
        std::vector<uint8_t> bytes(halves.size() * 2);
        for (size_t i = 0; i < halves.size(); ++i) {
            bytes[i * 2] = static_cast<uint8_t>(halves[i]);
            bytes[i * 2 + 1] = static_cast<uint8_t>(halves[i] >> 8);
        }
        return bytes;
    };
    std::vector<uint8_t> map_bytes(cp.mapTable.size() * 4);
    for (size_t i = 0; i < cp.mapTable.size(); ++i) {
        uint32_t v = cp.mapTable[i];
        map_bytes[i * 4] = static_cast<uint8_t>(v);
        map_bytes[i * 4 + 1] = static_cast<uint8_t>(v >> 8);
        map_bytes[i * 4 + 2] = static_cast<uint8_t>(v >> 16);
        map_bytes[i * 4 + 3] = static_cast<uint8_t>(v >> 24);
    }

    uint32_t stream_base = add_segment(".codewords", std::move(cp.stream), 8);
    uint32_t map_base = add_segment(".map", std::move(map_bytes), 4);
    uint32_t high_base =
        add_segment(".highdict", halves_bytes(cp.highDict), 4);
    uint32_t low_base = add_segment(".lowdict", halves_bytes(cp.lowDict), 4);

    image.c0[isa::C0DecompBase] = decomp_base;
    image.c0[isa::C0IndexBase] = stream_base;
    image.c0[isa::C0MapBase] = map_base;
    image.c0[isa::C0HighDictBase] = high_base;
    image.c0[isa::C0LowDictBase] = low_base;
    return image;
}

} // namespace rtd::compress
