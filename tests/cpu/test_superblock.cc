/**
 * @file
 * Superblock-execution engine guardrails.
 *
 * The superblock engine (CpuConfig::superblockExec) trace-links
 * straight-line blocks across predicted-taken and unconditional
 * branches and dispatches whole traces through a threaded
 * (computed-goto) executor. Like the blocks engine it is pure
 * host-side memoization: RunStats must be *identical* with the flag on
 * or off, for every scheme, under swic installs into linked lines,
 * under eviction pressure, and when budgets or cancellation expire in
 * the middle of a trace. Below: SuperblockCache unit tests, the
 * generation-stamp relink predicate at cache level (swic into a linked
 * successor's line, eviction-by-allocation mid-trace), and end-to-end
 * parity including handler machine checks under the engine.
 */

#include <atomic>
#include <cstring>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/system.h"
#include "isa/blocks.h"
#include "isa/predecode.h"
#include "isa/superblock.h"
#include "obs/observer.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;

uint32_t
addiuWord(uint8_t rs, uint8_t rt, uint16_t imm)
{
    return isa::encodeI(isa::Op::Addiu, rs, rt, imm);
}

// ---------------------------------------------------------------------
// SuperblockCache: slots, trace lifecycle, counters.
// ---------------------------------------------------------------------

TEST(SuperblockCache, SlotIsDeterministicAndTraceLifecycleResets)
{
    isa::SuperblockCache sc(/*entries_log2=*/4);
    EXPECT_EQ(sc.numEntries(), 16u);

    isa::Superblock &a = sc.slot(0x1000);
    EXPECT_EQ(&a, &sc.slot(0x1000));
    EXPECT_FALSE(a.valid);

    sc.startTrace(a, 0x1000);
    EXPECT_TRUE(a.valid);
    EXPECT_TRUE(a.open);
    EXPECT_EQ(a.entryPc, 0x1000u);
    EXPECT_EQ(a.nseg, 0u);
    EXPECT_EQ(sc.builds(), 1u);

    // Restarting the same slot (conflict or rebuild) resets the trace.
    a.nseg = 3;
    a.open = false;
    sc.startTrace(a, 0x2000);
    EXPECT_EQ(a.entryPc, 0x2000u);
    EXPECT_EQ(a.nseg, 0u);
    EXPECT_TRUE(a.open);
    EXPECT_EQ(sc.builds(), 2u);

    EXPECT_EQ(sc.relinks(), 0u);
    sc.noteRelink();
    EXPECT_EQ(sc.relinks(), 1u);
}

TEST(SuperblockCache, TotalLenSumsRecordedSegments)
{
    isa::Superblock sb;
    EXPECT_EQ(sb.totalLen(), 0u);
    sb.segs[0].meta.len = 5;
    sb.segs[1].meta.len = 3;
    sb.nseg = 2;
    EXPECT_EQ(sb.totalLen(), 8u);
}

// ---------------------------------------------------------------------
// The relink predicate: a trace is only as live as every linked
// segment's generation stamp. These mirror the engine's chained-arrival
// check (Cpu::runSuperblocks) at cache level.
// ---------------------------------------------------------------------

class SbCacheGen : public ::testing::Test
{
  protected:
    SbCacheGen() : icache_("icache", {1024, 32, 2})
    {
        icache_.enablePredecode();
    }

    void
    fillWith(uint32_t addr, uint32_t word)
    {
        uint8_t line[32];
        for (int w = 0; w < 8; ++w)
            std::memcpy(line + w * 4, &word, 4);
        icache_.fillLine(addr, line);
    }

    /** Record one trace segment from the line at @p addr. */
    void
    link(isa::Superblock &sb, uint32_t addr)
    {
        cache::FetchLine line;
        ASSERT_TRUE(icache_.accessFetchLine(addr, line));
        isa::SbSegment &seg = sb.segs[sb.nseg++];
        seg.insts = line.decoded;
        seg.pc = addr;
        seg.frame = line.frame;
        seg.gen = line.gen;
        seg.meta = isa::scanBlock(line.decoded, 8);
    }

    bool
    segLive(const isa::Superblock &sb, uint32_t i)
    {
        return icache_.frameGen(sb.segs[i].frame) == sb.segs[i].gen;
    }

    cache::Cache icache_;
};

TEST_F(SbCacheGen, SwicIntoLinkedSuccessorLineUnlinksOnlyThatSegment)
{
    // Two lines linked into one trace; a swic lands in the line owned
    // by the *linked successor* (segment 1), not the entry. The entry
    // stays live — the engine truncates at segment 1 and reopens,
    // rather than discarding the whole trace.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    fillWith(0x1020, addiuWord(0, isa::T1, 2));
    isa::Superblock sb;
    sb.entryPc = 0x1000;
    sb.valid = true;
    link(sb, 0x1000);
    link(sb, 0x1020);
    ASSERT_EQ(sb.nseg, 2u);
    EXPECT_TRUE(segLive(sb, 0));
    EXPECT_TRUE(segLive(sb, 1));

    icache_.swicWrite(0x1028, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    EXPECT_TRUE(segLive(sb, 0));
    EXPECT_FALSE(segLive(sb, 1));

    // Relinking against the bumped stamp sees the installed terminator.
    sb.nseg = 1;
    link(sb, 0x1020);
    EXPECT_TRUE(segLive(sb, 1));
    EXPECT_EQ(sb.segs[1].meta.len, 3u);
}

TEST_F(SbCacheGen, EvictionByAllocationMidTraceUnlinks)
{
    // 1KB/32B/2-way = 16 sets: 0x1000/0x1400/0x1800 share a set. The
    // trace links 0x1000; allocating a third conflicting line reuses
    // its frame for a different address, so the stamp moves and the
    // linked segment dies even though 0x1000's bytes never changed.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    isa::Superblock sb;
    sb.entryPc = 0x1000;
    sb.valid = true;
    link(sb, 0x1000);
    ASSERT_TRUE(segLive(sb, 0));

    fillWith(0x1400, isa::nopWord());
    fillWith(0x1800, isa::nopWord());  // evicts 0x1000 (LRU)
    EXPECT_FALSE(icache_.probe(0x1000));
    EXPECT_FALSE(segLive(sb, 0));

    // Even re-installing identical bytes must not resurrect the link:
    // stamps come from a cache-wide clock.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    EXPECT_FALSE(segLive(sb, 0));
}

// ---------------------------------------------------------------------
// End-to-end parity: RunStats must not depend on superblockExec.
// ---------------------------------------------------------------------

/** Field-by-field RunStats equality with a labelled failure message. */
void
expectIdenticalStats(const RunStats &on, const RunStats &off,
                     const std::string &label)
{
    EXPECT_EQ(on.cycles, off.cycles) << label;
    EXPECT_EQ(on.userInsns, off.userInsns) << label;
    EXPECT_EQ(on.handlerInsns, off.handlerInsns) << label;
    EXPECT_EQ(on.icacheAccesses, off.icacheAccesses) << label;
    EXPECT_EQ(on.icacheMisses, off.icacheMisses) << label;
    EXPECT_EQ(on.compressedMisses, off.compressedMisses) << label;
    EXPECT_EQ(on.nativeMisses, off.nativeMisses) << label;
    EXPECT_EQ(on.dcacheAccesses, off.dcacheAccesses) << label;
    EXPECT_EQ(on.dcacheMisses, off.dcacheMisses) << label;
    EXPECT_EQ(on.writebacks, off.writebacks) << label;
    EXPECT_EQ(on.branchLookups, off.branchLookups) << label;
    EXPECT_EQ(on.branchMispredicts, off.branchMispredicts) << label;
    EXPECT_EQ(on.loadUseStalls, off.loadUseStalls) << label;
    EXPECT_EQ(on.exceptions, off.exceptions) << label;
    EXPECT_EQ(on.procFaults, off.procFaults) << label;
    EXPECT_EQ(on.procEvictions, off.procEvictions) << label;
    EXPECT_EQ(on.procCompactedBytes, off.procCompactedBytes) << label;
    EXPECT_EQ(on.procDecompressedBytes, off.procDecompressedBytes)
        << label;
    EXPECT_EQ(on.machineChecks, off.machineChecks) << label;
    EXPECT_EQ(on.integrityRetries, off.integrityRetries) << label;
    EXPECT_EQ(on.machineCheckHalt, off.machineCheckHalt) << label;
    EXPECT_EQ(on.cancelled, off.cancelled) << label;
    EXPECT_EQ(on.faultKind, off.faultKind) << label;
    EXPECT_EQ(on.faultAddr, off.faultAddr) << label;
    EXPECT_EQ(on.halted, off.halted) << label;
    EXPECT_EQ(on.timedOut, off.timedOut) << label;
    EXPECT_EQ(on.exitCode, off.exitCode) << label;
    EXPECT_EQ(on.resultValue, off.resultValue) << label;
}

class SuperblockParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();
    }

    /** Superblocks @p sb_exec over the blocks engine (always on). */
    RunStats
    runWith(Scheme scheme, bool sb_exec, bool rf = false)
    {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = true;
        config.cpu.superblockExec = sb_exec;
        config.scheme = scheme;
        config.secondRegFile = rf;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    }

    prog::Program program_;
};

TEST_F(SuperblockParity, NativeRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::None, true),
                         runWith(Scheme::None, false), "native");
}

TEST_F(SuperblockParity, DictionaryRunIsIdentical)
{
    // The decompression handler swic-installs words into lines whose
    // segments are linked into live traces: every stamp bump must
    // truncate exactly the stale suffix or these counters diverge.
    expectIdenticalStats(runWith(Scheme::Dictionary, true),
                         runWith(Scheme::Dictionary, false),
                         "dictionary");
    expectIdenticalStats(runWith(Scheme::Dictionary, true, true),
                         runWith(Scheme::Dictionary, false, true),
                         "dictionary+RF");
}

TEST_F(SuperblockParity, CodePackRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::CodePack, true),
                         runWith(Scheme::CodePack, false), "codepack");
}

TEST_F(SuperblockParity, HuffmanRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::HuffmanLine, true),
                         runWith(Scheme::HuffmanLine, false), "huffman");
}

TEST_F(SuperblockParity, ProcCacheRunFallsBackIdentically)
{
    // The procedure-cache baseline disables block dispatch for user
    // code; superblockExec must ride the same fallback untouched.
    auto run = [&](bool sb_exec) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.superblockExec = sb_exec;
        config.scheme = Scheme::ProcLzrw1;
        config.procCache.capacityBytes = 4 * 1024;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    };
    RunStats on = run(true);
    RunStats off = run(false);
    EXPECT_GT(on.procFaults, 0u);
    expectIdenticalStats(on, off, "proccache");
}

TEST_F(SuperblockParity, EvictionPressureIsIdenticalAndRelinks)
{
    // A 1KB I-cache forces constant eviction, so linked successors die
    // by frame reassignment mid-trace all run long.
    auto run = [&](Scheme scheme, bool sb_exec, bool observe) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.superblockExec = sb_exec;
        config.cpu.icache.sizeBytes = 1024;
        config.scheme = scheme;
        config.observe.enabled = observe;
        core::System system(program_, config);
        core::SystemResult result = system.run();
        EXPECT_TRUE(result.stats.halted);
        if (observe) {
            const obs::Counter *relinks =
                system.observer()->registry().findCounter(
                    "superblock_relinks");
            EXPECT_NE(relinks, nullptr);
            if (relinks) {
                EXPECT_GT(relinks->value, 0u);
            }
        }
        return result.stats;
    };
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary}) {
        RunStats on = run(scheme, true, false);
        RunStats off = run(scheme, false, false);
        EXPECT_GT(on.icacheMisses, 1000u);
        expectIdenticalStats(on, off, "eviction pressure");
        // Observed rerun: the engine actually took the relink path.
        expectIdenticalStats(run(scheme, true, true), on,
                             "eviction pressure observed");
    }
}

TEST_F(SuperblockParity, MidSuperblockTimeoutIsIdentical)
{
    // A budget that expires in the middle of a linked trace must stop
    // on exactly the same instruction, cycle and stall counts.
    for (uint64_t budget : {1u, 1000u, 12'345u, 54'321u}) {
        auto run = [&](bool sb_exec) {
            core::SystemConfig config;
            config.cpu.maxUserInsns = budget;
            config.cpu.superblockExec = sb_exec;
            config.scheme = Scheme::Dictionary;
            core::System system(program_, config);
            return system.run().stats;
        };
        RunStats on = run(true);
        RunStats off = run(false);
        EXPECT_TRUE(on.timedOut) << budget;
        EXPECT_EQ(on.userInsns, budget);
        expectIdenticalStats(on, off, "timeout");
    }
}

TEST_F(SuperblockParity, CancelExpiresMidSuperblock)
{
    // Cancellation raised before the run starts: the superblock engine
    // must stop at its first rate-limited poll (one per segment, the
    // blocks engine's cadence), never run to completion.
    std::atomic<bool> cancel{true};
    core::SystemConfig config;
    config.cpu.cancel = &cancel;
    config.scheme = Scheme::Dictionary;
    core::System system(program_, config);
    RunStats stats = system.run().stats;
    EXPECT_TRUE(stats.cancelled);
    EXPECT_FALSE(stats.halted);
}

TEST_F(SuperblockParity, HandlerBudgetChecksLatchInsideChainedTraces)
{
    // A tight handler instruction budget expires inside the handler's
    // install loop: handlers run on the block loop under both engines,
    // so the HandlerRunaway must latch at exactly the same handler
    // instruction either way.
    for (uint64_t budget : {7u, 64u}) {
        auto run = [&](bool sb_exec) {
            core::SystemConfig config;
            config.cpu.maxUserInsns = 20'000'000;
            config.cpu.superblockExec = sb_exec;
            config.cpu.handlerInsnBudget = budget;
            config.scheme = Scheme::Dictionary;
            core::System system(program_, config);
            return system.run().stats;
        };
        RunStats on = run(true);
        RunStats off = run(false);
        EXPECT_GT(on.machineChecks, 0u) << budget;
        EXPECT_EQ(on.faultKind, McKind::HandlerRunaway) << budget;
        expectIdenticalStats(on, off, "handler budget");
    }
}

} // namespace
} // namespace rtd::cpu
