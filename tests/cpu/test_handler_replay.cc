/**
 * @file
 * Handler replay (DESIGN.md section 19) against the legacy
 * decode-per-fetch engine, which never replays and so is the oracle.
 *
 * Replay services a repeat code-miss fill from the trace recorded on
 * the unit's first fill, skipping decode and execution. It is exact
 * only if every observable effect matches execution: RunStats, the
 * user and shadow register files, and main memory. Each case forces
 * refills with a small I-cache and compares the block engine
 * (replaying) with legacy. The offset program plants random values in
 * the registers the handlers save (r8-r15) and fills one unit from
 * every word offset in turn, so the key granularity the analysis
 * derives is checked rather than assumed. The fallback cases pin the
 * rules under which replay must stay off.
 */

#include <atomic>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "core/system.h"
#include "cpu/handler_replay.h"
#include "program/builder.h"
#include "runtime/handlers.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;
using namespace rtd::isa;
using prog::Label;
using prog::ProcedureBuilder;
using prog::Program;

/** Everything one run leaves behind that replay could perturb. */
struct Outcome
{
    RunStats stats;
    std::array<uint32_t, numRegs> regs{};
    std::array<uint32_t, numRegs> shadow{};
    uint64_t memory = 0;
    uint64_t replayed = 0;
};

Outcome
outcomeOf(const core::System &system, const RunStats &stats)
{
    Outcome out;
    out.stats = stats;
    for (unsigned r = 0; r < numRegs; ++r) {
        out.regs[r] = system.cpu().reg(r);
        out.shadow[r] = system.cpu().shadowReg(r);
    }
    out.memory = system.memory().checksum();
    out.replayed = system.cpu().replayedFills();
    return out;
}

void
expectSame(const Outcome &got, const Outcome &want, const std::string &label)
{
    const RunStats &a = got.stats;
    const RunStats &b = want.stats;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.userInsns, b.userInsns) << label;
    EXPECT_EQ(a.handlerInsns, b.handlerInsns) << label;
    EXPECT_EQ(a.icacheAccesses, b.icacheAccesses) << label;
    EXPECT_EQ(a.icacheMisses, b.icacheMisses) << label;
    EXPECT_EQ(a.compressedMisses, b.compressedMisses) << label;
    EXPECT_EQ(a.dcacheAccesses, b.dcacheAccesses) << label;
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.branchLookups, b.branchLookups) << label;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << label;
    EXPECT_EQ(a.loadUseStalls, b.loadUseStalls) << label;
    EXPECT_EQ(a.exceptions, b.exceptions) << label;
    EXPECT_EQ(a.procFaults, b.procFaults) << label;
    EXPECT_EQ(a.dmemFaults, b.dmemFaults) << label;
    EXPECT_EQ(a.dmemEvictions, b.dmemEvictions) << label;
    EXPECT_EQ(a.dmemSpills, b.dmemSpills) << label;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.machineChecks, b.machineChecks) << label;
    EXPECT_EQ(a.integrityRetries, b.integrityRetries) << label;
    EXPECT_EQ(a.machineCheckHalt, b.machineCheckHalt) << label;
    EXPECT_EQ(a.faultKind, b.faultKind) << label;
    EXPECT_EQ(a.faultAddr, b.faultAddr) << label;
    EXPECT_EQ(a.halted, b.halted) << label;
    EXPECT_EQ(a.timedOut, b.timedOut) << label;
    EXPECT_EQ(a.resultValue, b.resultValue) << label;
    EXPECT_EQ(got.regs, want.regs) << label;
    EXPECT_EQ(got.shadow, want.shadow) << label;
    EXPECT_EQ(got.memory, want.memory) << label;
}

/** The machine both engines run: a 256 B direct-mapped I-cache. */
core::SystemConfig
smallCacheConfig(Scheme scheme, bool rf)
{
    core::SystemConfig config;
    config.scheme = scheme;
    config.secondRegFile = rf;
    config.cpu.icache = {256, 32, 1};
    config.cpu.maxUserInsns = 20'000'000;
    return config;
}

void
useLegacy(core::SystemConfig &config)
{
    config.cpu.predecode = false;
    config.cpu.blockExec = false;
    config.cpu.superblockExec = false;
}

Outcome
runOn(const std::shared_ptr<const core::BuiltImage> &built,
      core::SystemConfig config, bool legacy)
{
    if (legacy)
        useLegacy(config);
    core::System system(built, config);
    RunStats stats = system.run().stats;
    return outcomeOf(system, stats);
}

/**
 * The offset program. main plants @p sentinels in r8-r15, learns the
 * address of procedure B by calling it once, then for @p rounds rounds
 * enters B's body at every word offset of one 64-byte-aligned span —
 * after calling F, whose straight-line code evicts the whole I-cache,
 * so every entry misses and fills the span's unit from that offset.
 */
Program
offsetProgram(const std::array<uint32_t, 8> &sentinels, int rounds)
{
    constexpr int32_t kMain = 0, kB = 1, kQ = 2, kF = 3;
    constexpr uint32_t kSpan = 64;
    Program program;

    ProcedureBuilder m("main");
    for (unsigned i = 0; i < 8; ++i)
        m.li32(static_cast<uint8_t>(8 + i), sentinels[i]);
    m.jal(kB);  // v1 = B + 8
    // s0 = first 64-byte boundary at or after B's body (B + 16).
    m.addiu(S0, V1, 8 + kSpan - 1);
    m.li32(S1, ~(kSpan - 1));
    m.and_(S0, S0, S1);
    m.addu(S2, Zero, Zero);  // byte offset within the span
    m.addiu(S3, Zero, static_cast<int16_t>(rounds * kSpan / 4));
    Label loop = m.newLabel();
    m.bind(loop);
    m.jal(kF);
    m.addu(S4, S0, S2);
    m.jalr(Ra, S4);
    m.addiu(S2, S2, 4);
    m.andi(S2, S2, kSpan - 1);
    m.addiu(S3, S3, -1);
    m.bne(S3, Zero, loop);
    m.addu(V0, S0, S2);
    m.halt(0);

    // B: a probe entry that returns B + 8 in v1, then a body of nops
    // long enough to hold a full aligned span, then a return.
    ProcedureBuilder b("B");
    b.addu(T8, Ra, Zero);
    b.jal(kQ);
    b.addu(Ra, T8, Zero);
    b.jr(Ra);
    for (uint32_t i = 0; i < 3 * kSpan / 4; ++i)
        b.nop();
    b.jr(Ra);

    ProcedureBuilder q("Q");
    q.addu(V1, Ra, Zero);
    q.jr(Ra);

    ProcedureBuilder f("F");
    for (int i = 0; i < 96; ++i)
        f.nop();
    f.jr(Ra);

    program.procs.push_back(m.take());
    program.procs.push_back(b.take());
    program.procs.push_back(q.take());
    program.procs.push_back(f.take());
    program.entry = kMain;
    program.name = "offsets";
    return program;
}

std::array<uint32_t, 8>
randomSentinels(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::array<uint32_t, 8> out{};
    for (uint32_t &v : out)
        v = static_cast<uint32_t>(rng());
    return out;
}

struct Case
{
    const char *name;
    Scheme scheme;
    bool rf;
};

constexpr Case kCases[] = {
    {"dictionary", Scheme::Dictionary, false},
    {"dictionary+RF", Scheme::Dictionary, true},
    {"codepack", Scheme::CodePack, false},
    {"codepack+RF", Scheme::CodePack, true},
    {"huffman", Scheme::HuffmanLine, false},
};

TEST(HandlerReplay, EveryCodeHandlerProvesReplayable)
{
    // The analysis derives the key granularity from the handler text:
    // CodePack's group, the line for the others.
    for (const Case &c : kCases) {
        runtime::HandlerBuild handler =
            runtime::buildHandler(c.scheme, c.rf, 32);
        mem::HandlerRam ram;
        ram.load(handler.code);
        ReplayPlan plan = analyzeHandler(ram, ram.entry());
        ASSERT_TRUE(plan.ok) << c.name;
        EXPECT_EQ(plan.unitBytes, c.scheme == Scheme::CodePack ? 64u : 32u)
            << c.name;
        // The non-RF handlers spill to the user stack; the RF ones
        // never touch it.
        EXPECT_EQ(plan.usesSp, !c.rf) << c.name;
    }
}

TEST(HandlerReplay, EveryWordOffsetMatchesLegacy)
{
    uint64_t seed = 1;
    for (const Case &c : kCases) {
        std::array<uint32_t, 8> sentinels = randomSentinels(seed++);
        Program program = offsetProgram(sentinels, 3);
        core::SystemConfig config = smallCacheConfig(c.scheme, c.rf);
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        Outcome replay = runOn(built, config, false);
        Outcome legacy = runOn(built, config, true);
        EXPECT_TRUE(replay.stats.halted) << c.name;
        expectSame(replay, legacy, c.name);
        EXPECT_EQ(legacy.replayed, 0u) << c.name;
        // 48 entries into the span; only each unit's first fill runs.
        EXPECT_GE(replay.replayed, 40u) << c.name;
        // The handlers are transparent to the planted registers.
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(replay.regs[8 + i], sentinels[i]) << c.name;
    }
}

TEST(HandlerReplay, GeneratedWorkloadMatchesLegacy)
{
    workload::WorkloadGenerator gen(workload::tinySpec());
    Program program = gen.generate();
    for (const Case &c : kCases) {
        core::SystemConfig config = smallCacheConfig(c.scheme, c.rf);
        config.cpu.icache = {4096, 32, 2};
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        Outcome replay = runOn(built, config, false);
        Outcome legacy = runOn(built, config, true);
        EXPECT_TRUE(replay.stats.halted) << c.name;
        expectSame(replay, legacy, c.name);
        EXPECT_GT(replay.replayed, 0u) << c.name;
        EXPECT_LT(replay.replayed, replay.stats.compressedMisses) << c.name;
    }
}

TEST(HandlerReplay, ParallelSystemsOnOneBuiltImage)
{
    // The trace store is per Cpu: two Systems replaying concurrently
    // over one shared BuiltImage must each match the serial result
    // (and TSan must see no shared writes).
    workload::WorkloadGenerator gen(workload::tinySpec());
    Program program = gen.generate();
    core::SystemConfig config = smallCacheConfig(Scheme::CodePack, false);
    config.cpu.icache = {1024, 32, 2};
    auto built = std::make_shared<const core::BuiltImage>(
        core::buildImage(program, config));
    Outcome serial = runOn(built, config, false);
    Outcome outs[2];
    std::thread threads[2];
    for (int t = 0; t < 2; ++t) {
        threads[t] = std::thread(
            [&, t] { outs[t] = runOn(built, config, false); });
    }
    for (std::thread &t : threads)
        t.join();
    for (const Outcome &out : outs) {
        expectSame(out, serial, "parallel");
        EXPECT_EQ(out.replayed, serial.replayed);
        EXPECT_GT(out.replayed, 0u);
    }
}

// ---------------------------------------------------------------------
// Fallbacks: runs under these rules replay nothing and still match.
// ---------------------------------------------------------------------

class ReplayFallback : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();
    }

    /** Run @p config on blocks and on legacy; expect no replay and
     *  identical outcomes. */
    Outcome
    expectNoReplay(const core::SystemConfig &config,
                   const std::string &label)
    {
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program_, config));
        Outcome blocks = runOn(built, config, false);
        Outcome legacy = runOn(built, config, true);
        expectSame(blocks, legacy, label);
        EXPECT_EQ(blocks.replayed, 0u) << label;
        return blocks;
    }

    Program program_;
};

TEST_F(ReplayFallback, ObserverAttached)
{
    core::SystemConfig config = smallCacheConfig(Scheme::CodePack, false);
    config.cpu.icache = {1024, 32, 2};
    config.observe.enabled = true;
    Outcome out = expectNoReplay(config, "observer");
    EXPECT_GT(out.stats.compressedMisses, 100u);
}

TEST_F(ReplayFallback, FaultPlanConfigured)
{
    for (uint64_t seed : {3u, 11u}) {
        core::SystemConfig config =
            smallCacheConfig(Scheme::Dictionary, false);
        config.cpu.icache = {1024, 32, 2};
        config.cpu.mcRetryLimit = 1;
        // Corrupted code may never halt; the cap bounds the run.
        config.cpu.maxUserInsns = 2'000'000;
        config.fault.plans.push_back({seed, fault::Site::Any, 1});
        expectNoReplay(config, "fault plan");
    }
}

TEST_F(ReplayFallback, HandlerBudgetBelowOneTrace)
{
    // The CodePack handler runs ~1,100 instructions per group; a budget
    // that ends with its entry block machine-checks the first fill, so
    // no trace is recorded. (The budget sits on a block boundary because
    // the block loop checks it per block and legacy per instruction.)
    runtime::HandlerBuild handler =
        runtime::buildHandler(Scheme::CodePack, false, 32);
    mem::HandlerRam ram;
    ram.load(handler.code);
    core::SystemConfig config = smallCacheConfig(Scheme::CodePack, false);
    config.cpu.icache = {1024, 32, 2};
    config.cpu.handlerInsnBudget = ram.blockMetaAt(ram.entry()).len;
    auto built = std::make_shared<const core::BuiltImage>(
        core::buildImage(program_, config));
    Outcome blocks = runOn(built, config, false);
    Outcome legacy = runOn(built, config, true);
    EXPECT_EQ(blocks.replayed, 0u);
    EXPECT_EQ(blocks.stats.faultKind, McKind::HandlerRunaway);
    // The run halts inside its first fill. The block engines count a
    // fetch when its block executes, so the halting fetch is the one
    // access legacy counts and they do not; everything else matches.
    EXPECT_EQ(blocks.stats.icacheAccesses + 1, legacy.stats.icacheAccesses);
    blocks.stats.icacheAccesses = legacy.stats.icacheAccesses;
    expectSame(blocks, legacy, "budget");
}

TEST_F(ReplayFallback, ProcedureCacheNeverReplays)
{
    core::SystemConfig config = smallCacheConfig(Scheme::ProcLzrw1, false);
    config.procCache.capacityBytes = 4 * 1024;
    Outcome out = expectNoReplay(config, "proc-lzrw1");
    EXPECT_GT(out.stats.procFaults, 0u);
}

TEST_F(ReplayFallback, DataMissHandlerNeverReplays)
{
    // Data-only: every handler run is a D-miss fill.
    core::SystemConfig data_only = smallCacheConfig(Scheme::None, false);
    data_only.dataCompression = core::DataCompression::DataOnly;
    data_only.dmem.stagingPages = 2;
    Outcome out = expectNoReplay(data_only, "data-only");
    EXPECT_GT(out.stats.dmemFaults, 0u);

    // Both: code fills still replay, D-miss fills do not — the I-side
    // miss stream is independent of the D-side, so the replay count
    // equals the code-only run's exactly.
    core::SystemConfig code_only = smallCacheConfig(Scheme::Dictionary, false);
    code_only.cpu.icache = {1024, 32, 2};
    core::SystemConfig both = code_only;
    both.dataCompression = core::DataCompression::Both;
    both.dmem.stagingPages = 2;
    auto built_code = std::make_shared<const core::BuiltImage>(
        core::buildImage(program_, code_only));
    auto built_both = std::make_shared<const core::BuiltImage>(
        core::buildImage(program_, both));
    Outcome code = runOn(built_code, code_only, false);
    Outcome blocks = runOn(built_both, both, false);
    Outcome legacy = runOn(built_both, both, true);
    expectSame(blocks, legacy, "both");
    EXPECT_GT(blocks.stats.dmemFaults, 0u);
    EXPECT_GT(blocks.replayed, 0u);
    EXPECT_EQ(blocks.stats.compressedMisses, code.stats.compressedMisses);
    EXPECT_EQ(blocks.replayed, code.replayed);
}

TEST_F(ReplayFallback, CancellationStillStops)
{
    // Replay advances the cancellation poll counter exactly as the
    // executed handler would, so a raised flag still stops the run.
    std::atomic<bool> cancel{true};
    core::SystemConfig config = smallCacheConfig(Scheme::CodePack, false);
    config.cpu.cancel = &cancel;
    core::System system(program_, config);
    RunStats stats = system.run().stats;
    EXPECT_TRUE(stats.cancelled);
    EXPECT_FALSE(stats.halted);
}

} // namespace
} // namespace rtd::cpu
