/** @file Tests for the result-report formatting. */

#include <gtest/gtest.h>

#include <atomic>

#include "core/experiment.h"
#include "core/report.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::core {
namespace {

class ReportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec(71));
        program_ = gen.generate();
        native_ = runNative(program_, paperMachine());
    }

    prog::Program program_;
    SystemResult native_;
};

TEST_F(ReportTest, FullReportContainsEverySection)
{
    SystemResult dict = runCompressed(
        program_, compress::Scheme::Dictionary, false, paperMachine());
    std::string report = formatReport(dict);
    for (const char *needle :
         {"cycles", "user instructions", "handler instructions",
          "instruction cache:", "decompression exceptions",
          "data cache:", "writebacks", "pipeline:", "mispredict ratio",
          "code size:", "compression ratio", "halted"}) {
        EXPECT_NE(report.find(needle), std::string::npos) << needle;
    }
    // No procedure-cache section for a line scheme.
    EXPECT_EQ(report.find("procedure cache:"), std::string::npos);
}

TEST_F(ReportTest, ProcCacheSectionAppearsWhenUsed)
{
    SystemConfig config;
    config.cpu = paperMachine();
    config.scheme = compress::Scheme::ProcLzrw1;
    System system(program_, config);
    SystemResult result = system.run();
    std::string report = formatReport(result);
    EXPECT_NE(report.find("procedure cache:"), std::string::npos);
    EXPECT_NE(report.find("bytes decompressed"), std::string::npos);
}

TEST_F(ReportTest, SummaryLineIsCompact)
{
    SystemResult dict = runCompressed(
        program_, compress::Scheme::Dictionary, false, paperMachine());
    std::string summary = formatSummary(dict, &native_);
    EXPECT_NE(summary.find("cycles"), std::string::npos);
    EXPECT_NE(summary.find("slowdown"), std::string::npos);
    EXPECT_EQ(summary.find('\n'), std::string::npos);
    // No slowdown column without a baseline.
    std::string bare = formatSummary(dict);
    EXPECT_EQ(bare.find("slowdown"), std::string::npos);
}

TEST_F(ReportTest, TimedOutRunIsLabelled)
{
    cpu::CpuConfig machine = paperMachine();
    machine.maxUserInsns = 500;
    SystemResult result = runNative(program_, machine);
    EXPECT_TRUE(result.stats.timedOut);
    std::string report = formatReport(result);
    EXPECT_NE(report.find("stopped (maxUserInsns)"), std::string::npos);
}

TEST_F(ReportTest, MachineCheckHaltNamesItsKindAndAddress)
{
    SystemResult result;
    result.stats.machineCheckHalt = true;
    result.stats.faultKind = cpu::McKind::SwicRange;
    result.stats.faultAddr = 0x0044aac0;
    std::string report = formatReport(result);
    EXPECT_NE(report.find("machine check (swic-range at 0x0044aac0)"),
              std::string::npos)
        << report;
}

TEST_F(ReportTest, CancelledRunIsLabelled)
{
    std::atomic<bool> cancel{true};
    cpu::CpuConfig machine = paperMachine();
    machine.cancel = &cancel;
    SystemResult result = runNative(program_, machine);
    EXPECT_TRUE(result.stats.cancelled);
    EXPECT_FALSE(result.stats.halted);
    std::string report = formatReport(result);
    EXPECT_NE(report.find("status                      cancelled\n"),
              std::string::npos)
        << report;
}

} // namespace
} // namespace rtd::core
