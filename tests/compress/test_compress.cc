/** @file Unit + property tests for the three compression engines. */

#include <gtest/gtest.h>

#include <algorithm>

#include "compress/bitstream.h"
#include "compress/codepack.h"
#include "compress/dictionary.h"
#include "compress/lzrw1.h"
#include "isa/isa.h"
#include "program/program.h"
#include "support/rng.h"

namespace rtd::compress {
namespace {

/** A synthetic instruction stream with controlled repetition. */
std::vector<uint32_t>
makeStream(size_t n, size_t uniques, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint32_t> pool;
    pool.reserve(uniques);
    for (size_t i = 0; i < uniques; ++i)
        pool.push_back(static_cast<uint32_t>(rng.next()));
    std::vector<uint32_t> words(n);
    for (size_t i = 0; i < n; ++i)
        words[i] = pool[rng.nextBelow(uniques)];
    return words;
}

TEST(BitStream, RoundTripMixedWidths)
{
    BitWriter bw;
    bw.put(0b101, 3);
    bw.put(0xbeef, 16);
    bw.put(1, 1);
    bw.put(0x3f, 6);
    bw.alignByte();
    bw.put(0xff, 8);
    auto bytes = bw.take();
    BitReader br(bytes.data(), bytes.size());
    EXPECT_EQ(br.get(3), 0b101u);
    EXPECT_EQ(br.get(16), 0xbeefu);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.get(6), 0x3fu);
    br.alignByte();
    EXPECT_EQ(br.get(8), 0xffu);
}

TEST(BitStream, MsbFirstWithinBytes)
{
    BitWriter bw;
    bw.put(1, 1);  // single 1 bit -> 0x80
    auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0x80u);
}

TEST(BitStream, PutWritesOnlyTheLowWidthBits)
{
    BitWriter bw;
    bw.put(0xffffffff, 4);  // only 1111 may land
    bw.put(0, 4);
    bw.put(0xffffffff, 0);  // nothing
    bw.put(0x12345678, 32);
    bw.put(0xfffffffe, 1);  // the low bit: 0
    bw.put(0xdeadbeef, 32);
    EXPECT_EQ(bw.take(), (std::vector<uint8_t>{0xf0, 0x12, 0x34, 0x56,
                                               0x78, 0x6f, 0x56, 0xdf,
                                               0x77, 0x80}));
}

TEST(BitStream, RandomWidthsMatchBitAtATimeReference)
{
    // Reference: the plain one-bit-per-step MSB-first writer.
    std::vector<uint8_t> expected;
    unsigned bit_pos = 0;
    auto ref_put = [&](uint32_t value, unsigned width) {
        for (unsigned i = width; i > 0; --i) {
            if (bit_pos == 0)
                expected.push_back(0);
            expected.back() |= static_cast<uint8_t>(
                ((value >> (i - 1)) & 1u) << (7 - bit_pos));
            bit_pos = (bit_pos + 1) & 7;
        }
    };

    Rng rng(29);
    BitWriter bw;
    for (int i = 0; i < 20000; ++i) {
        if (rng.nextBelow(16) == 0) {
            bw.alignByte();
            bit_pos = 0;
            continue;
        }
        auto value = static_cast<uint32_t>(rng.next());
        auto width = static_cast<unsigned>(1 + rng.nextBelow(32));
        bw.put(value, width);
        ref_put(value, width);
        ASSERT_EQ(bw.sizeBytes(), expected.size()) << "after put " << i;
    }
    EXPECT_EQ(bw.bytes(), expected);
    EXPECT_EQ(bw.take(), expected);
}

TEST(BitStream, PartialFinalByteIsCounted)
{
    BitWriter bw;
    bw.put(0b101, 3);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    EXPECT_EQ(bw.bytes(), std::vector<uint8_t>{0xa0});
    bw.put(0xffffffff, 32);  // 35 bits: 4 whole bytes + 3 bits
    EXPECT_EQ(bw.sizeBytes(), 5u);
    EXPECT_EQ(bw.bytes(), (std::vector<uint8_t>{0xbf, 0xff, 0xff, 0xff,
                                                0xe0}));
    bw.alignByte();
    EXPECT_EQ(bw.sizeBytes(), 5u);
    bw.put(1, 1);
    EXPECT_EQ(bw.sizeBytes(), 6u);
    EXPECT_EQ(bw.take(), (std::vector<uint8_t>{0xbf, 0xff, 0xff, 0xff,
                                               0xe0, 0x80}));
}

TEST(BitStream, PastEndReadsZeroAndSetOverrun)
{
    // Truncated streams must decode deterministically (zeros) and flag
    // the damage — not read out of bounds.
    uint8_t byte = 0xff;
    BitReader br(&byte, 1);
    EXPECT_EQ(br.get(8), 0xffu);
    EXPECT_TRUE(br.ok());
    EXPECT_EQ(br.get(4), 0u);  // entirely past the end
    EXPECT_TRUE(br.overrun());
    EXPECT_FALSE(br.ok());
}

TEST(BitStream, OverrunFlagIsSticky)
{
    uint8_t bytes[2] = {0xaa, 0x55};
    BitReader br(bytes, 1);  // pretend the second byte was cut off
    EXPECT_EQ(br.get(12), 0xaa0u);  // 8 real bits + 4 zeros
    EXPECT_TRUE(br.overrun());
    br.alignByte();
    EXPECT_EQ(br.get(8), 0u);
    EXPECT_TRUE(br.overrun());  // still set; flag never clears
}

TEST(BitStream, EmptyStreamReadsAllZeros)
{
    BitReader br(nullptr, 0);
    EXPECT_TRUE(br.ok());
    EXPECT_EQ(br.get(32), 0u);
    EXPECT_TRUE(br.overrun());
    EXPECT_EQ(br.bitPos(), 32u);
}

TEST(BitStream, StraddlingReadPartiallyPastEnd)
{
    // A read that starts in-bounds and runs off the end returns the real
    // high bits with zero fill, and trips the flag exactly then.
    BitWriter bw;
    bw.put(0b1011, 4);
    auto bytes = bw.take();  // one byte: 0xB0
    BitReader br(bytes.data(), bytes.size());
    EXPECT_EQ(br.get(6), 0b101100u);
    EXPECT_TRUE(br.ok());  // bits 4..5 exist in the padded byte
    EXPECT_EQ(br.get(6), 0b000000u);  // bits 6..7 real, 8..11 overrun
    EXPECT_TRUE(br.overrun());
}

TEST(Dictionary, RoundTripSmall)
{
    std::vector<uint32_t> words = {5, 5, 7, 5, 9, 7};
    auto compressed = DictionaryCompressor::compress(words);
    EXPECT_EQ(compressed.dictionary.size(), 3u);
    EXPECT_EQ(compressed.indices.size(), 6u);
    EXPECT_EQ(DictionaryCompressor::decompress(compressed), words);
}

TEST(Dictionary, CompressedSizeFormula)
{
    // Paper section 3.1: 2 bytes per instruction + 4 per unique.
    std::vector<uint32_t> words = makeStream(1000, 100, 3);
    auto compressed = DictionaryCompressor::compress(words);
    EXPECT_EQ(compressed.compressedBytes(),
              1000u * 2 + compressed.dictionary.size() * 4);
}

TEST(Dictionary, ImageAddressMapping)
{
    // The key property (section 3.1): codeword address is computable
    // from the native address with no mapping table.
    std::vector<uint32_t> words = makeStream(64, 16, 4);
    uint32_t decomp_base = 0x00400000;
    CompressedImage image =
        DictionaryCompressor::buildImage(words, decomp_base);
    const CompressedSegment *indices = image.segment(".indices");
    const CompressedSegment *dict = image.segment(".dictionary");
    ASSERT_NE(indices, nullptr);
    ASSERT_NE(dict, nullptr);
    EXPECT_EQ(image.c0[isa::C0IndexBase], indices->base);
    EXPECT_EQ(image.c0[isa::C0DictBase], dict->base);
    EXPECT_EQ(image.c0[isa::C0DecompBase], decomp_base);

    for (size_t i = 0; i < words.size(); ++i) {
        uint32_t native_addr = decomp_base + static_cast<uint32_t>(i) * 4;
        uint32_t index_addr =
            indices->base + ((native_addr - decomp_base) >> 1);
        uint32_t off = index_addr - indices->base;
        uint16_t idx = static_cast<uint16_t>(
            indices->bytes[off] | indices->bytes[off + 1] << 8);
        uint32_t word = static_cast<uint32_t>(dict->bytes[idx * 4]) |
                        static_cast<uint32_t>(dict->bytes[idx * 4 + 1])
                            << 8 |
                        static_cast<uint32_t>(dict->bytes[idx * 4 + 2])
                            << 16 |
                        static_cast<uint32_t>(dict->bytes[idx * 4 + 3])
                            << 24;
        EXPECT_EQ(word, words[i]) << "at instruction " << i;
    }
}

/** Dictionary round-trip must hold for any repetition profile. */
class DictionaryProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(DictionaryProperty, RoundTrip)
{
    auto [n, uniques] = GetParam();
    std::vector<uint32_t> words = makeStream(n, uniques, n + uniques);
    auto compressed = DictionaryCompressor::compress(words);
    EXPECT_LE(compressed.dictionary.size(), uniques);
    EXPECT_EQ(DictionaryCompressor::decompress(compressed), words);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, DictionaryProperty,
    ::testing::Values(std::pair<size_t, size_t>{16, 1},
                      std::pair<size_t, size_t>{1000, 10},
                      std::pair<size_t, size_t>{1000, 999},
                      std::pair<size_t, size_t>{4096, 256},
                      std::pair<size_t, size_t>{10000, 5000}));

TEST(CodePack, RoundTripSmall)
{
    std::vector<uint32_t> words = makeStream(64, 16, 5);
    auto compressed = CodePack::compress(words);
    auto out = CodePack::decompress(compressed);
    ASSERT_GE(out.size(), words.size());
    for (size_t i = 0; i < words.size(); ++i)
        EXPECT_EQ(out[i], words[i]) << "at " << i;
}

TEST(CodePack, PadsToWholeGroups)
{
    std::vector<uint32_t> words(19, 0x12345678);
    auto compressed = CodePack::compress(words);
    EXPECT_EQ(compressed.numInsns, 32u);
    auto out = CodePack::decompress(compressed);
    for (size_t i = 19; i < 32; ++i)
        EXPECT_EQ(out[i], isa::nopWord());
}

TEST(CodePack, GroupsAreByteAlignedAndMapped)
{
    std::vector<uint32_t> words = makeStream(160, 64, 6);
    auto compressed = CodePack::compress(words);
    // 10 groups -> 5 packed pair entries (IBM-style index table).
    EXPECT_EQ(compressed.mapTable.size(), 5u);
    EXPECT_EQ(compressed.groupOffset(0), 0u);
    for (size_t g = 1; g < 10; ++g) {
        EXPECT_GT(compressed.groupOffset(g),
                  compressed.groupOffset(g - 1));
    }
    // Random access to any group must reproduce its 16 instructions.
    uint32_t group[16];
    CodePack::decompressGroup(compressed, 7, group);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(group[i], words[7 * 16 + i]);
}

TEST(CodePack, HalfwordRepetitionBeatsDictionary)
{
    // CodePack exploits halfword repetition that whole-word dictionary
    // compression cannot see: instructions pairing a common opcode half
    // with a varying immediate half are all distinct words (costing the
    // dictionary 4 bytes each) but compress to short codewords here —
    // the paper's Table 2 relationship.
    Rng rng(7);
    std::vector<uint16_t> highs(200), lows(600);
    for (auto &h : highs)
        h = static_cast<uint16_t>(rng.next());
    for (auto &l : lows)
        l = static_cast<uint16_t>(rng.next());
    std::vector<uint32_t> words(4096);
    for (auto &w : words) {
        w = static_cast<uint32_t>(highs[rng.nextBelow(highs.size())])
                << 16 |
            lows[rng.nextBelow(lows.size())];
    }
    auto cp = CodePack::compress(words);
    auto dict = DictionaryCompressor::compress(words);
    // Most word pairings are unique, so the dictionary balloons...
    EXPECT_GT(dict.dictionary.size(), 2000u);
    // ...while CodePack stays compact.
    EXPECT_LT(cp.compressedBytes(), dict.compressedBytes());
    // And the round trip still holds.
    auto out = CodePack::decompress(cp);
    for (size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(out[i], words[i]);
}

TEST(CodePack, EqualCountsFillTheDictionaryInValueOrder)
{
    // 400 distinct halfwords per half, each seen exactly twice: every
    // count ties, so rank order is value order and the dictionaries must
    // hold the 337 smallest values; the other 63 must be escapes.
    constexpr size_t distinct = 400;
    Rng rng(31);
    std::vector<uint16_t> values;
    while (values.size() < distinct) {
        auto v = static_cast<uint16_t>(rng.next());
        if (std::find(values.begin(), values.end(), v) == values.end())
            values.push_back(v);
    }
    // 800 words = 50 whole groups, so no nop padding joins the counts.
    std::vector<uint32_t> words;
    for (size_t i = 0; i < 2 * distinct; ++i) {
        uint16_t hi = values[i % distinct];
        uint16_t lo = values[(7 * i + 3) % distinct];
        words.push_back(static_cast<uint32_t>(hi) << 16 | lo);
    }
    auto compressed = CodePack::compress(words);
    ASSERT_EQ(compressed.numInsns, words.size());

    std::vector<uint16_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<uint16_t> smallest(
        sorted.begin(), sorted.begin() + CodePackParams::dictEntries);
    EXPECT_EQ(compressed.highDict, smallest);
    EXPECT_EQ(compressed.lowDict, smallest);

    // Stream length pins the codeword classes: a value past the
    // dictionary costs the 18-bit escape.
    auto code_bits = [&](uint16_t v) -> size_t {
        size_t rank = std::lower_bound(sorted.begin(), sorted.end(), v) -
                      sorted.begin();
        if (rank == 0)
            return 2;
        if (rank < CodePackParams::class2First)
            return 6;
        if (rank < CodePackParams::class3First)
            return 9;
        if (rank < CodePackParams::dictEntries)
            return 11;
        return 18;
    };
    size_t expected_bytes = 0;
    for (size_t g = 0; g < words.size() / 16; ++g) {
        size_t bits = 0;
        for (size_t i = g * 16; i < g * 16 + 16; ++i)
            bits += code_bits(words[i] >> 16) + code_bits(words[i] & 0xffff);
        expected_bytes += (bits + 7) / 8;
    }
    EXPECT_EQ(compressed.stream.size(), expected_bytes);
    EXPECT_EQ(CodePack::decompress(compressed), words);
}

TEST(CodePack, EscapesSurviveRandomData)
{
    // Fully random words exercise the escape path heavily.
    Rng rng(11);
    std::vector<uint32_t> words(512);
    for (auto &w : words)
        w = static_cast<uint32_t>(rng.next());
    auto compressed = CodePack::compress(words);
    auto out = CodePack::decompress(compressed);
    for (size_t i = 0; i < words.size(); ++i)
        EXPECT_EQ(out[i], words[i]);
}

/** CodePack round-trip across repetition profiles. */
class CodePackProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(CodePackProperty, RoundTrip)
{
    auto [n, uniques] = GetParam();
    std::vector<uint32_t> words = makeStream(n, uniques, 2 * n + uniques);
    auto compressed = CodePack::compress(words);
    auto out = CodePack::decompress(compressed);
    for (size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(out[i], words[i]) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, CodePackProperty,
    ::testing::Values(std::pair<size_t, size_t>{16, 1},
                      std::pair<size_t, size_t>{256, 8},
                      std::pair<size_t, size_t>{1024, 300},
                      std::pair<size_t, size_t>{1024, 1000},
                      std::pair<size_t, size_t>{8192, 2000}));

TEST(Lzrw1, RoundTripText)
{
    std::string text =
        "the quick brown fox jumps over the lazy dog and then "
        "the quick brown fox jumps over the lazy dog again and again";
    std::vector<uint8_t> src(text.begin(), text.end());
    auto compressed = Lzrw1::compress(src);
    EXPECT_LT(compressed.size(), src.size());
    EXPECT_EQ(Lzrw1::decompress(compressed, src.size()), src);
}

TEST(Lzrw1, IncompressibleDataSurvives)
{
    Rng rng(13);
    std::vector<uint8_t> src(4096);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.next());
    auto compressed = Lzrw1::compress(src);
    EXPECT_EQ(Lzrw1::decompress(compressed, src.size()), src);
}

TEST(Lzrw1, EmptyInput)
{
    std::vector<uint8_t> src;
    auto compressed = Lzrw1::compress(src);
    EXPECT_EQ(Lzrw1::decompress(compressed, 0), src);
}

TEST(Lzrw1, LongRunsCompressWell)
{
    std::vector<uint8_t> src(10000, 0x41);
    auto compressed = Lzrw1::compress(src);
    EXPECT_LT(compressed.size(), src.size() / 4);
    EXPECT_EQ(Lzrw1::decompress(compressed, src.size()), src);
}

/** LZRW1 round-trip over mixed entropy profiles. */
class Lzrw1Property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Lzrw1Property, RoundTrip)
{
    unsigned alphabet = GetParam();
    Rng rng(alphabet * 7919);
    std::vector<uint8_t> src(20000);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.nextBelow(alphabet));
    auto compressed = Lzrw1::compress(src);
    EXPECT_EQ(Lzrw1::decompress(compressed, src.size()), src);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, Lzrw1Property,
                         ::testing::Values(1u, 2u, 4u, 16u, 64u, 256u));

TEST(Scheme, Names)
{
    EXPECT_STREQ(schemeName(Scheme::None), "native");
    EXPECT_STREQ(schemeName(Scheme::Dictionary), "dictionary");
    EXPECT_STREQ(schemeName(Scheme::CodePack), "codepack");
}

} // namespace
} // namespace rtd::compress
