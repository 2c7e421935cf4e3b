/**
 * @file
 * Golden hashes of the compressed images core::buildImage produces for
 * the eight paper benchmarks, so compressor rewrites can be shown to be
 * byte-identical.
 *
 * Each image is hashed over every segment's name, base and bytes plus
 * all c0 registers. Two region assignments per benchmark: everything
 * compressed, and every other procedure left native (the shape selective
 * compression relinks). Program generation does not depend on the
 * dynamic scale, so scale 0.05 only matches what the selective-build
 * benchmark builds.
 *
 * A mismatch prints the new hash in table syntax. Change a hash only
 * when a change to an image format is intended, and say why.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "core/system.h"
#include "harness/artifact_cache.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::core {
namespace {

using compress::Scheme;

struct Golden
{
    const char *bench;
    bool alternate;  ///< every other procedure native
    uint64_t hash;
};

const prog::Program &
paperProgram(const std::string &name)
{
    static std::map<std::string, prog::Program> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        workload::WorkloadGenerator gen(
            workload::scaledSpec(workload::paperBenchmark(name), 0.05));
        it = cache.emplace(name, gen.generate()).first;
    }
    return it->second;
}

void
appendLe(std::string &out, uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>(value >> (8 * i)));
}

uint64_t
imageHash(const compress::CompressedImage &image)
{
    std::string canon;
    for (const compress::CompressedSegment &seg : image.segments) {
        canon += seg.name;
        canon.push_back('\0');
        appendLe(canon, seg.base, 4);
        appendLe(canon, seg.bytes.size(), 8);
        canon.append(seg.bytes.begin(), seg.bytes.end());
    }
    for (uint32_t reg : image.c0)
        appendLe(canon, reg, 4);
    return harness::stableHash64(canon);
}

void
checkScheme(Scheme scheme, const std::vector<Golden> &goldens)
{
    ASSERT_EQ(goldens.size(), 2 * workload::paperBenchmarks().size());
    for (const Golden &g : goldens) {
        const prog::Program &program = paperProgram(g.bench);
        SystemConfig config;
        config.scheme = scheme;
        if (g.alternate) {
            for (size_t i = 0; i < program.procs.size(); ++i) {
                config.regions.push_back(i % 2 ? prog::Region::Native
                                               : prog::Region::Compressed);
            }
        }
        BuiltImage built = buildImage(program, config);
        ASSERT_EQ(built.cimage.scheme, scheme) << g.bench;
        uint64_t hash = imageHash(built.cimage);
        char row[96];
        std::snprintf(row, sizeof(row),
                      "{\"%s\", %s, 0x%016" PRIx64 "ull},", g.bench,
                      g.alternate ? "true" : "false", hash);
        EXPECT_EQ(hash, g.hash) << "new golden row: " << row;
    }
}

TEST(ImageGolden, Dictionary)
{
    checkScheme(Scheme::Dictionary, {
        {"cc1", false, 0xd554a6c3f89a2ff0ull},
        {"cc1", true, 0xb5947ef05d3076a4ull},
        {"ghostscript", false, 0x0fe9abb71ce8d6c9ull},
        {"ghostscript", true, 0x15aafc246ba2f63eull},
        {"go", false, 0x56f68ba6ecd0ea5cull},
        {"go", true, 0x1386182a26f7846dull},
        {"ijpeg", false, 0xcdef04d3d9645ca4ull},
        {"ijpeg", true, 0x2ebda14a6ca6ee90ull},
        {"mpeg2enc", false, 0x44084e865c78d49bull},
        {"mpeg2enc", true, 0x07561b1ad407d0b5ull},
        {"pegwit", false, 0x5978cb6417a0d138ull},
        {"pegwit", true, 0xf11a3eb59eb70fe2ull},
        {"perl", false, 0x5bcdba775cca45bfull},
        {"perl", true, 0x9573e81baf6928e7ull},
        {"vortex", false, 0xb4d56481b6c63978ull},
        {"vortex", true, 0x75f02bd4e9e83630ull},
    });
}

TEST(ImageGolden, CodePack)
{
    checkScheme(Scheme::CodePack, {
        {"cc1", false, 0xb0979be1c36431a0ull},
        {"cc1", true, 0x8fd6c2374c2300b0ull},
        {"ghostscript", false, 0x273ac10bd236080eull},
        {"ghostscript", true, 0x53f302e73fa303ddull},
        {"go", false, 0x497b4440791a2724ull},
        {"go", true, 0xf9ef869466a97ad3ull},
        {"ijpeg", false, 0xd71937f2f90c6c92ull},
        {"ijpeg", true, 0xfb6ecdaa3a159fb0ull},
        {"mpeg2enc", false, 0x0403cc61da041e15ull},
        {"mpeg2enc", true, 0x2b40ff8441dad2b0ull},
        {"pegwit", false, 0xefc8f95dad3b31f9ull},
        {"pegwit", true, 0xd9a345cd225a98f1ull},
        {"perl", false, 0xd6eb80505ec5658full},
        {"perl", true, 0xa73f55c098537691ull},
        {"vortex", false, 0xa9c0089e0049ee49ull},
        {"vortex", true, 0x8cf6d278c8b189f2ull},
    });
}

} // namespace
} // namespace rtd::core
