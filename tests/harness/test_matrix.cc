/**
 * @file
 * Matrix-generator suite (DESIGN.md section 9): exact job counting,
 * the documented deterministic loop-nest order, machine-axis overrides
 * landing in each job's CpuConfig, and the "matrix" entry in the sweep
 * registry.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/matrix.h"
#include "harness/sweeps.h"

using namespace rtd;
using harness::MatrixAxes;

TEST(MatrixTest, DefaultMatrixCountsExactly)
{
    MatrixAxes axes = MatrixAxes::defaults();
    // 8 benchmarks x 3 I$ x 1 line x 1 D$ x 2 mem x 2 pred x
    // 6 scenarios (3 code schemes + data-only + 2 "both" pairs).
    EXPECT_EQ(axes.scenarios.size(), 6u);
    EXPECT_EQ(harness::matrixJobCount(axes), 576u);
    std::vector<harness::Job> jobs = harness::buildMatrixJobs(axes);
    EXPECT_EQ(jobs.size(), harness::matrixJobCount(axes));
}

TEST(MatrixTest, DmemScenariosLandInSystemConfig)
{
    MatrixAxes axes = MatrixAxes::defaults();
    axes.scale = 0.01;
    std::vector<harness::Job> jobs = harness::buildMatrixJobs(axes);
    size_t ns = axes.scenarios.size();
    ASSERT_GE(jobs.size(), ns);
    for (size_t s = 0; s < ns; ++s) {
        const harness::Job &job = jobs[s];
        EXPECT_EQ(job.config.scheme, axes.scenarios[s].scheme);
        EXPECT_EQ(job.config.dataCompression, axes.scenarios[s].data);
        bool dmem = axes.scenarios[s].data != core::DataCompression::Off;
        EXPECT_EQ(job.tag.find(".dmem") != std::string::npos, dmem)
            << job.tag;
    }
}

TEST(MatrixTest, OrderIsDeterministicWithSchemeInnermost)
{
    MatrixAxes axes = MatrixAxes::defaults();
    axes.scale = 0.01;
    std::vector<harness::Job> first = harness::buildMatrixJobs(axes);
    std::vector<harness::Job> second = harness::buildMatrixJobs(axes);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].tag, second[i].tag);

    // The scenario is the innermost axis: consecutive jobs share their
    // machine point prefix and differ only in the scenario suffix, with
    // the fully-native baseline first.
    size_t ns = axes.scenarios.size();
    for (size_t point = 0; point * ns < first.size(); ++point) {
        const std::string &nativeTag = first[point * ns].tag;
        std::string prefix =
            nativeTag.substr(0, nativeTag.rfind('/') + 1);
        EXPECT_EQ(nativeTag, prefix + "native");
        for (size_t s = 1; s < ns; ++s)
            EXPECT_EQ(first[point * ns + s].tag.rfind(prefix, 0), 0u)
                << first[point * ns + s].tag;
    }
}

TEST(MatrixTest, AxisValuesLandInCpuConfig)
{
    MatrixAxes axes;
    axes.benchmarks = {"pegwit"};
    axes.scenarios = {{compress::Scheme::Dictionary,
                       core::DataCompression::Off}};
    axes.icacheBytes = {2 * 1024};
    axes.icacheLineBytes = {64};
    axes.dcacheBytes = {16 * 1024};
    axes.memLatencyCycles = {77};
    axes.predictorEntries = {256};
    axes.scale = 0.01;

    std::vector<harness::Job> jobs = harness::buildMatrixJobs(axes);
    ASSERT_EQ(jobs.size(), 1u);
    const harness::Job &job = jobs[0];
    EXPECT_EQ(job.tag, "matrix/pegwit/i2K.l64/d16K/m77/p256/dictionary");
    EXPECT_EQ(job.config.cpu.icache.sizeBytes, 2u * 1024);
    EXPECT_EQ(job.config.cpu.icache.lineBytes, 64u);
    EXPECT_EQ(job.config.cpu.dcache.sizeBytes, 16u * 1024);
    EXPECT_EQ(job.config.cpu.memTiming.firstAccessCycles, 77u);
    EXPECT_EQ(job.config.cpu.predictorEntries, 256u);
    EXPECT_EQ(job.config.scheme, compress::Scheme::Dictionary);
    EXPECT_EQ(job.workload.name, "pegwit");
}

TEST(MatrixTest, MatrixIsARegisteredSweep)
{
    const harness::SweepInfo *info = harness::findSweep("matrix");
    ASSERT_NE(info, nullptr);
    EXPECT_STREQ(info->name, "matrix");
    EXPECT_NE(info->fn, nullptr);
}
