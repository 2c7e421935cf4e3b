#include "compress/dictionary.h"

#include <unordered_map>

#include "program/program.h"
#include "support/bitops.h"
#include "support/logging.h"

namespace rtd::compress {

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::None: return "native";
      case Scheme::Dictionary: return "dictionary";
      case Scheme::CodePack: return "codepack";
      case Scheme::ProcLzrw1: return "proc-lzrw1";
    }
    return "?";
}

uint32_t
CompressedImage::compressedBytes() const
{
    uint32_t total = 0;
    for (const CompressedSegment &seg : segments)
        total += static_cast<uint32_t>(seg.bytes.size());
    return total;
}

const CompressedSegment *
CompressedImage::segment(const std::string &name) const
{
    for (const CompressedSegment &seg : segments) {
        if (seg.name == name)
            return &seg;
    }
    return nullptr;
}

DictionaryCompressed
DictionaryCompressor::compress(const std::vector<uint32_t> &words)
{
    DictionaryCompressed out;
    out.indices.reserve(words.size());
    std::unordered_map<uint32_t, uint16_t> index_of;
    index_of.reserve(words.size());
    for (uint32_t w : words) {
        auto [it, inserted] = index_of.try_emplace(
            w, static_cast<uint16_t>(out.dictionary.size()));
        if (inserted) {
            if (out.dictionary.size() >= 65536) {
                throw SimError(
                    "dictionary compression overflow: more than 64K "
                    "unique instructions; use selective compression");
            }
            out.dictionary.push_back(w);
        }
        out.indices.push_back(it->second);
    }
    return out;
}

std::vector<uint32_t>
DictionaryCompressor::decompress(const DictionaryCompressed &compressed)
{
    std::vector<uint32_t> words;
    words.reserve(compressed.indices.size());
    for (uint16_t idx : compressed.indices) {
        RTDC_ASSERT(idx < compressed.dictionary.size(),
                    "index %u outside dictionary", idx);
        words.push_back(compressed.dictionary[idx]);
    }
    return words;
}

CompressedImage
DictionaryCompressor::buildImage(const std::vector<uint32_t> &words,
                                 uint32_t decomp_base)
{
    DictionaryCompressed dc = compress(words);

    CompressedImage image;
    image.scheme = Scheme::Dictionary;

    // .indices first at the region base, then the dictionary, both
    // naturally aligned (half-words and words respectively).
    CompressedSegment indices;
    indices.name = ".indices";
    indices.base = prog::layout::compressedBase;
    indices.bytes.resize(dc.indices.size() * 2);
    for (size_t i = 0; i < dc.indices.size(); ++i) {
        indices.bytes[i * 2] = static_cast<uint8_t>(dc.indices[i]);
        indices.bytes[i * 2 + 1] = static_cast<uint8_t>(dc.indices[i] >> 8);
    }

    CompressedSegment dict;
    dict.name = ".dictionary";
    dict.base = static_cast<uint32_t>(
        alignUp(indices.base + indices.bytes.size(), 8));
    dict.bytes.resize(dc.dictionary.size() * 4);
    for (size_t i = 0; i < dc.dictionary.size(); ++i) {
        uint32_t w = dc.dictionary[i];
        dict.bytes[i * 4] = static_cast<uint8_t>(w);
        dict.bytes[i * 4 + 1] = static_cast<uint8_t>(w >> 8);
        dict.bytes[i * 4 + 2] = static_cast<uint8_t>(w >> 16);
        dict.bytes[i * 4 + 3] = static_cast<uint8_t>(w >> 24);
    }

    image.c0[isa::C0DecompBase] = decomp_base;
    image.c0[isa::C0DictBase] = dict.base;
    image.c0[isa::C0IndexBase] = indices.base;

    image.segments.push_back(std::move(indices));
    image.segments.push_back(std::move(dict));
    return image;
}

} // namespace rtd::compress
