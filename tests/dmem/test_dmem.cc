/**
 * @file
 * Compressed data hierarchy suite (DESIGN.md section 18): DataRegion
 * build/decode round-trips, the D-miss service path end-to-end against
 * the native baseline, staging-pool eviction and dirty-page spills,
 * dirty-victim writeback through a tiny D-cache over both compressed
 * and uncompressed regions, engine parity with data compression on,
 * data-site fault injection under integrity (machine-check, never
 * silent corruption), the L2 timing model's counters, observer
 * metrics, and the wire round-trips of every new field.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/experiment.h"
#include "core/system.h"
#include "dmem/data_region.h"
#include "fault/fault.h"
#include "program/linker.h"
#include "serve/wire.h"
#include "support/logging.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

using namespace rtd;
using core::DataCompression;
using dmem::DataScheme;

namespace {

prog::Program
tinyProgram()
{
    workload::WorkloadGenerator gen(workload::tinySpec());
    return gen.generate();
}

core::SystemConfig
dmemConfig(DataScheme scheme, DataCompression mode,
           compress::Scheme code = compress::Scheme::None)
{
    core::SystemConfig config;
    config.cpu = core::paperMachine();
    config.scheme = code;
    config.dataCompression = mode;
    config.dmem.scheme = scheme;
    return config;
}

core::SystemResult
runConfig(const prog::Program &program, const core::SystemConfig &config)
{
    auto built = std::make_shared<const core::BuiltImage>(
        core::buildImage(program, config));
    core::System system(built, config);
    return system.run();
}

/** Deterministic patterned bytes with enough repetition to compress. */
std::vector<uint8_t>
patternedData(size_t n)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = static_cast<uint8_t>((i / 16) * 3 + (i & 3));
    return data;
}

} // namespace

// ---------------------------------------------------------------------
// DataRegion unit tests
// ---------------------------------------------------------------------

TEST(DataRegionTest, DictionaryPagesRoundTrip)
{
    std::vector<uint8_t> data = patternedData(1024 + 100); // pads to 5 pages
    dmem::DataRegion region = dmem::buildDataRegion(
        data, 0x100000, DataScheme::Dictionary, 256, true, 0x200000);
    ASSERT_EQ(region.numPages, 5u);
    EXPECT_EQ(region.pageBytes, 256u);
    EXPECT_EQ(region.base, 0x100000u);
    ASSERT_NE(region.segment(".dstream"), nullptr);
    ASSERT_NE(region.segment(".ddict"), nullptr);
    ASSERT_NE(region.segment(".dcrc"), nullptr);
    // Fixed 2:1 word-to-index stream.
    EXPECT_EQ(region.segment(".dstream")->bytes.size(),
              region.spanBytes() / 2);
    EXPECT_EQ(region.pageCrcs.size(), region.numPages);

    std::vector<uint8_t> page;
    for (uint32_t p = 0; p < region.numPages; ++p) {
        ASSERT_TRUE(dmem::decodePage(region, p, page));
        ASSERT_EQ(page.size(), region.pageBytes);
        for (uint32_t off = 0; off < region.pageBytes; ++off) {
            size_t i = p * region.pageBytes + off;
            uint8_t expect = i < data.size() ? data[i] : 0;
            ASSERT_EQ(page[off], expect) << "page " << p << " +" << off;
        }
    }
}

TEST(DataRegionTest, Lzrw1PagesRoundTripViaMapTable)
{
    std::vector<uint8_t> data = patternedData(2048);
    dmem::DataRegion region = dmem::buildDataRegion(
        data, 0x100000, DataScheme::Lzrw1, 256, false, 0x200000);
    ASSERT_EQ(region.numPages, 8u);
    ASSERT_NE(region.segment(".dstream"), nullptr);
    const compress::CompressedSegment *map = region.segment(".dmap");
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->bytes.size(), region.numPages * dmem::kMapEntryBytes);
    EXPECT_TRUE(region.pageCrcs.empty()); // integrity off
    // Repetitive data must actually compress.
    EXPECT_LT(region.segment(".dstream")->bytes.size(),
              region.spanBytes());

    std::vector<uint8_t> page;
    for (uint32_t p = 0; p < region.numPages; ++p) {
        ASSERT_TRUE(dmem::decodePage(region, p, page));
        ASSERT_EQ(page.size(), region.pageBytes);
        EXPECT_EQ(0, std::memcmp(page.data(),
                                 data.data() + p * region.pageBytes,
                                 region.pageBytes));
    }
}

TEST(DataRegionTest, NoneSchemeAndEmptyDataYieldEmptyRegion)
{
    std::vector<uint8_t> data = patternedData(256);
    dmem::DataRegion none = dmem::buildDataRegion(
        data, 0x100000, DataScheme::None, 256, false, 0x200000);
    EXPECT_TRUE(none.empty());
    dmem::DataRegion empty = dmem::buildDataRegion(
        {}, 0x100000, DataScheme::Dictionary, 256, false, 0x200000);
    EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------
// End-to-end D-miss service path
// ---------------------------------------------------------------------

TEST(DmemSystemTest, DataOnlyMatchesNativeForBothSchemes)
{
    prog::Program program = tinyProgram();
    core::SystemResult native = runConfig(
        program, dmemConfig(DataScheme::None, DataCompression::Off));
    ASSERT_TRUE(native.stats.halted);
    EXPECT_EQ(native.stats.dmemFaults, 0u);
    EXPECT_EQ(native.originalDataBytes, 0u);

    for (DataScheme scheme :
         {DataScheme::Dictionary, DataScheme::Lzrw1}) {
        core::SystemResult run = runConfig(
            program, dmemConfig(scheme, DataCompression::DataOnly));
        ASSERT_TRUE(run.stats.halted) << dmem::dataSchemeName(scheme);
        EXPECT_FALSE(run.stats.machineCheckHalt);
        // Same program, same answer: the handler's materialization is
        // architecturally invisible.
        EXPECT_EQ(run.stats.resultValue, native.stats.resultValue)
            << dmem::dataSchemeName(scheme);
        EXPECT_EQ(run.stats.userInsns, native.stats.userInsns);
        EXPECT_GT(run.stats.dmemFaults, 0u);
        EXPECT_GT(run.stats.exceptions, 0u);
        EXPECT_GT(run.stats.dmemDecompressedBytes, 0u);
        // Faults cost cycles; the run must be slower than native.
        EXPECT_GT(run.stats.cycles, native.stats.cycles);
        EXPECT_GT(run.originalDataBytes, 0u);
        EXPECT_GT(run.compressedDataBytes, 0u);
        EXPECT_LT(run.dataCompressionRatio(), 1.0);
    }
}

TEST(DmemSystemTest, BothModeCombinesCodeAndDataHandlers)
{
    prog::Program program = tinyProgram();
    core::SystemResult native = runConfig(
        program, dmemConfig(DataScheme::None, DataCompression::Off));
    core::SystemResult both = runConfig(
        program, dmemConfig(DataScheme::Dictionary, DataCompression::Both,
                            compress::Scheme::Dictionary));
    ASSERT_TRUE(both.stats.halted);
    EXPECT_FALSE(both.stats.machineCheckHalt);
    EXPECT_EQ(both.stats.resultValue, native.stats.resultValue);
    // Both sides actually faulted: code swic fills and data faults.
    EXPECT_GT(both.stats.compressedMisses, 0u);
    EXPECT_GT(both.stats.dmemFaults, 0u);
    EXPECT_GT(both.compressedPayloadBytes, 0u);
    EXPECT_GT(both.compressedDataBytes, 0u);
}

TEST(DmemSystemTest, EnginesStayParityIdenticalWithDataCompression)
{
    prog::Program program = tinyProgram();
    core::SystemConfig base = dmemConfig(
        DataScheme::Dictionary, DataCompression::Both,
        compress::Scheme::Dictionary);
    auto built = std::make_shared<const core::BuiltImage>(
        core::buildImage(program, base));
    auto run = [&](cpu::Engine engine) {
        core::SystemConfig config = base;
        config.cpu.engine = engine;
        core::System system(built, config);
        return system.run().stats;
    };
    cpu::RunStats oracle = run(cpu::Engine::Oracle);
    ASSERT_TRUE(oracle.halted);
    ASSERT_GT(oracle.dmemFaults, 0u);
    EXPECT_EQ(serve::runStatsDiff(run(cpu::Engine::Blocks), oracle), "");
}

// ---------------------------------------------------------------------
// Staging pool, spills, and D-cache dirty-victim writeback
// ---------------------------------------------------------------------

TEST(DmemSystemTest, StagingCapEvictsAndSpillsDirtyPages)
{
    prog::Program program = tinyProgram();
    core::SystemResult native = runConfig(
        program, dmemConfig(DataScheme::None, DataCompression::Off));
    core::SystemConfig config =
        dmemConfig(DataScheme::Dictionary, DataCompression::DataOnly);
    config.dmem.stagingPages = 1;
    core::SystemResult run = runConfig(program, config);
    ASSERT_TRUE(run.stats.halted);
    EXPECT_FALSE(run.stats.machineCheckHalt);
    // A 1-page pool forces clean evictions (re-fault later) and dirty
    // spills (the workload stores into its data); neither may change
    // the architectural outcome.
    EXPECT_GT(run.stats.dmemEvictions, 0u);
    EXPECT_GT(run.stats.dmemSpills, 0u);
    EXPECT_EQ(run.stats.resultValue, native.stats.resultValue);
    EXPECT_EQ(run.stats.userInsns, native.stats.userInsns);

    // Evictions mean re-faults: strictly more faults than the
    // uncapped run, which faults once per touched page.
    core::SystemConfig uncapped =
        dmemConfig(DataScheme::Dictionary, DataCompression::DataOnly);
    core::SystemResult base = runConfig(program, uncapped);
    EXPECT_GT(run.stats.dmemFaults, base.stats.dmemFaults);
    EXPECT_EQ(base.stats.dmemEvictions, 0u);
}

TEST(DmemSystemTest, DirtyVictimWritebackBothRegions)
{
    // A D-cache small enough to thrash forces dirty victim lines out
    // through the writeback path. Native run: victims land in the
    // ordinary uncompressed data region. Dmem run: victims land in
    // materialized (staging) pages of the compressed region, which the
    // page-state machine must tolerate in every state.
    prog::Program program = tinyProgram();
    core::SystemConfig native_config =
        dmemConfig(DataScheme::None, DataCompression::Off);
    native_config.cpu.dcache.sizeBytes = 512;
    core::SystemResult native = runConfig(program, native_config);
    ASSERT_TRUE(native.stats.halted);
    EXPECT_GT(native.stats.writebacks, 0u);

    for (DataScheme scheme :
         {DataScheme::Dictionary, DataScheme::Lzrw1}) {
        core::SystemConfig config =
            dmemConfig(scheme, DataCompression::DataOnly);
        config.cpu.dcache.sizeBytes = 512;
        config.dmem.stagingPages = 2; // eviction pressure too
        core::SystemResult run = runConfig(program, config);
        ASSERT_TRUE(run.stats.halted) << dmem::dataSchemeName(scheme);
        EXPECT_FALSE(run.stats.machineCheckHalt);
        EXPECT_GT(run.stats.writebacks, 0u);
        EXPECT_EQ(run.stats.resultValue, native.stats.resultValue)
            << dmem::dataSchemeName(scheme);
        EXPECT_EQ(run.stats.userInsns, native.stats.userInsns);
    }
}

// ---------------------------------------------------------------------
// Mode validation
// ---------------------------------------------------------------------

TEST(DmemSystemTest, InvalidModeCombinationsThrow)
{
    prog::Program program = tinyProgram();
    // DataOnly forbids a code scheme.
    {
        core::SystemConfig config = dmemConfig(
            DataScheme::Dictionary, DataCompression::DataOnly,
            compress::Scheme::Dictionary);
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        EXPECT_THROW(core::System(built, config), SimError);
    }
    // Both requires a line-granular code scheme.
    {
        core::SystemConfig config = dmemConfig(
            DataScheme::Dictionary, DataCompression::Both,
            compress::Scheme::None);
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        EXPECT_THROW(core::System(built, config), SimError);
    }
    // Data compression on with no data codec selected.
    {
        core::SystemConfig config =
            dmemConfig(DataScheme::None, DataCompression::DataOnly);
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        EXPECT_THROW(core::System(built, config), SimError);
    }
}

// ---------------------------------------------------------------------
// Fault injection: machine-check, never silent corruption
// ---------------------------------------------------------------------

TEST(DmemFaultTest, DataSiteFlipsMachineCheckOrStayCorrect)
{
    prog::Program program = tinyProgram();
    core::SystemResult native = runConfig(
        program, dmemConfig(DataScheme::None, DataCompression::Off));

    const fault::Site sites[] = {
        fault::Site::DataStream, fault::Site::DataDict,
        fault::Site::DataMap,    fault::Site::DataCrc,
        fault::Site::DataTruncate,
    };
    for (DataScheme scheme :
         {DataScheme::Dictionary, DataScheme::Lzrw1}) {
        for (fault::Site site : sites) {
            if (fault::dataSiteSegmentName(scheme, site) == nullptr)
                continue; // site doesn't exist under this codec
            for (uint64_t seed = 1; seed <= 3; ++seed) {
                core::SystemConfig config = dmemConfig(
                    scheme, DataCompression::DataOnly);
                config.integrity = true;
                config.fault.plans.push_back({seed, site, 1});
                core::SystemResult run = runConfig(program, config);
                ASSERT_EQ(run.faultReports.size(), 1u);
                // The invariant the fuzz sweep scales up: a corrupted
                // data structure either machine-checks or the CRC
                // gate catches it on retry and the answer is intact.
                if (!run.stats.machineCheckHalt) {
                    EXPECT_EQ(run.stats.resultValue,
                              native.stats.resultValue)
                        << dmem::dataSchemeName(scheme) << "/"
                        << fault::siteName(site) << " seed " << seed;
                }
            }
        }
    }
}

TEST(DmemFaultTest, MixedCodeAndDataPlansEachHitTheirSide)
{
    prog::Program program = tinyProgram();
    core::SystemConfig config = dmemConfig(
        DataScheme::Dictionary, DataCompression::Both,
        compress::Scheme::Dictionary);
    config.integrity = true;
    config.fault.plans.push_back({7, fault::Site::Stream, 1});
    config.fault.plans.push_back({7, fault::Site::DataStream, 1});
    core::SystemResult run = runConfig(program, config);
    ASSERT_EQ(run.faultReports.size(), 2u);
    ASSERT_EQ(run.faultReports[0].injections.size(), 1u);
    ASSERT_EQ(run.faultReports[1].injections.size(), 1u);
    // Code plan corrupts a code segment, data plan a data segment.
    EXPECT_EQ(run.faultReports[0].injections[0].segment, ".indices");
    EXPECT_EQ(run.faultReports[1].injections[0].segment, ".dstream");
}

// ---------------------------------------------------------------------
// Compressed-L2 timing model
// ---------------------------------------------------------------------

TEST(DmemL2Test, L2ChargesLatencyWithoutChangingResults)
{
    prog::Program program = tinyProgram();
    core::SystemConfig config =
        dmemConfig(DataScheme::Dictionary, DataCompression::DataOnly);
    core::SystemResult off = runConfig(program, config);
    ASSERT_TRUE(off.stats.halted);
    EXPECT_EQ(off.stats.l2Hits, 0u);
    EXPECT_EQ(off.stats.l2Misses, 0u);

    config.cpu.l2.enabled = true;
    core::SystemResult on = runConfig(program, config);
    ASSERT_TRUE(on.stats.halted);
    EXPECT_GT(on.stats.l2Hits + on.stats.l2Misses, 0u);
    // Timing-only model: architectural results and fault counts agree.
    EXPECT_EQ(on.stats.resultValue, off.stats.resultValue);
    EXPECT_EQ(on.stats.userInsns, off.stats.userInsns);
    EXPECT_EQ(on.stats.dmemFaults, off.stats.dmemFaults);
    EXPECT_NE(on.stats.cycles, off.stats.cycles);
}

// ---------------------------------------------------------------------
// Observer metrics
// ---------------------------------------------------------------------

TEST(DmemObsTest, DmissMetricsMatchRunStats)
{
    prog::Program program = tinyProgram();
    core::SystemConfig config =
        dmemConfig(DataScheme::Dictionary, DataCompression::DataOnly);
    config.observe.enabled = true;
    core::SystemResult run = runConfig(program, config);
    ASSERT_TRUE(run.stats.halted);
    ASSERT_GT(run.stats.dmemFaults, 0u);
    ASSERT_FALSE(run.metrics.isNull());
    EXPECT_EQ(static_cast<uint64_t>(run.metrics.get("counters")
                                        .get("dmem_faults")
                                        .asInt()),
              run.stats.dmemFaults);
    EXPECT_EQ(static_cast<uint64_t>(run.metrics.get("histograms")
                                        .get("dmiss_service_cycles")
                                        .get("count")
                                        .asInt()),
              run.stats.dmemFaults);
}

// ---------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------

TEST(DmemWireTest, ConfigFieldsSurviveJsonRoundTrip)
{
    core::SystemConfig config =
        dmemConfig(DataScheme::Lzrw1, DataCompression::Both,
                   compress::Scheme::Dictionary);
    config.dmem.pageBytes = 512;
    config.dmem.stagingPages = 3;
    config.cpu.l2.enabled = true;
    config.cpu.l2.decompressCycles = 21;
    harness::Json json = serve::encodeConfig(config);
    core::SystemConfig out;
    ASSERT_TRUE(serve::decodeConfig(json, out));
    EXPECT_EQ(out.dataCompression, DataCompression::Both);
    EXPECT_EQ(out.dmem.scheme, DataScheme::Lzrw1);
    EXPECT_EQ(out.dmem.pageBytes, 512u);
    EXPECT_EQ(out.dmem.stagingPages, 3u);
    EXPECT_TRUE(out.cpu.l2.enabled);
    EXPECT_EQ(out.cpu.l2.decompressCycles, 21u);
}

TEST(DmemWireTest, RunStatsAndResultFieldsSurviveJsonRoundTrip)
{
    cpu::RunStats stats;
    stats.dmemFaults = 11;
    stats.dmemEvictions = 5;
    stats.dmemSpills = 3;
    stats.dmemDecompressedBytes = 2816;
    stats.l2Hits = 40;
    stats.l2Misses = 9;
    harness::Json json = serve::encodeRunStats(stats);
    cpu::RunStats out;
    ASSERT_TRUE(serve::decodeRunStats(json, out));
    EXPECT_EQ(out.dmemFaults, 11u);
    EXPECT_EQ(out.dmemEvictions, 5u);
    EXPECT_EQ(out.dmemSpills, 3u);
    EXPECT_EQ(out.dmemDecompressedBytes, 2816u);
    EXPECT_EQ(out.l2Hits, 40u);
    EXPECT_EQ(out.l2Misses, 9u);

    core::SystemResult result;
    result.originalDataBytes = 6912;
    result.compressedDataBytes = 4000;
    harness::Json rjson = serve::encodeSystemResult(result);
    core::SystemResult rout;
    ASSERT_TRUE(serve::decodeSystemResult(rjson, rout));
    EXPECT_EQ(rout.originalDataBytes, 6912u);
    EXPECT_EQ(rout.compressedDataBytes, 4000u);
    EXPECT_NEAR(rout.dataCompressionRatio(), 4000.0 / 6912.0, 1e-12);
}
