/**
 * @file
 * Block-execution engine guardrails.
 *
 * The block engine (CpuConfig::blockExec) dispatches straight-line runs
 * of predecoded instructions with one I-cache tag check and one batched
 * stats add per block. It is pure host-side memoization: a run with
 * blocks on must produce *identical* RunStats — cycles, misses,
 * interlock stalls, everything — to the same run with blocks off, for
 * every compression scheme, including while decompression handlers
 * swic-install words into lines whose blocks are live in the block
 * cache. Below: scanBlock unit tests (terminators, line caps, interlock
 * masks), BlockCache build/validate behaviour, the I-cache generation
 * invariants that make cached blocks coherent, and end-to-end RunStats
 * parity across schemes, eviction pressure, and mid-block timeouts.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/system.h"
#include "isa/blocks.h"
#include "isa/predecode.h"
#include "mem/handler_ram.h"
#include "runtime/handlers.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;

isa::DecodedInst
di(uint32_t word)
{
    return isa::predecode(word);
}

uint32_t
addiuWord(uint8_t rs, uint8_t rt, uint16_t imm)
{
    return isa::encodeI(isa::Op::Addiu, rs, rt, imm);
}

// ---------------------------------------------------------------------
// scanBlock: boundaries, interlock accounting, invalid words.
// ---------------------------------------------------------------------

TEST(ScanBlock, ControlTransfersTerminate)
{
    const uint32_t words[] = {
        addiuWord(0, isa::T0, 1),
        addiuWord(0, isa::T1, 2),
        isa::encodeI(isa::Op::Beq, isa::T0, isa::T1, 8),
        addiuWord(0, isa::T2, 3),  // must not be reached by the scan
    };
    isa::DecodedInst insts[4];
    for (int i = 0; i < 4; ++i)
        insts[i] = di(words[i]);
    isa::BlockMeta m = isa::scanBlock(insts, 4);
    EXPECT_EQ(m.len, 3u);  // block includes its terminating branch
    EXPECT_FALSE(m.startsInvalid);

    isa::DecodedInst jr[2] = {di(isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0)),
                              di(addiuWord(0, isa::T0, 1))};
    EXPECT_EQ(isa::scanBlock(jr, 2).len, 1u);

    isa::DecodedInst j[2] = {di(isa::encodeJ(isa::Op::J, 0x100)),
                             di(addiuWord(0, isa::T0, 1))};
    EXPECT_EQ(isa::scanBlock(j, 2).len, 1u);
}

TEST(ScanBlock, SwicTerminatesIcacheBlocksOnly)
{
    // swic must end a block fetched from the I-cache (it can overwrite
    // the very words the block is executing) but not a handler-RAM
    // block (handler text is immutable).
    isa::DecodedInst insts[3] = {
        di(isa::encodeI(isa::Op::Swic, isa::T0, isa::T1, 0)),
        di(addiuWord(0, isa::T2, 1)),
        di(addiuWord(0, isa::T3, 2)),
    };
    EXPECT_EQ(isa::scanBlock(insts, 3).len, 1u);
    EXPECT_EQ(isa::scanBlock(insts, 3, /*swic_ends=*/false).len, 3u);
}

TEST(ScanBlock, LineBoundaryCapsLength)
{
    isa::DecodedInst insts[8];
    for (int i = 0; i < 8; ++i)
        insts[i] = di(addiuWord(0, isa::T0, static_cast<uint16_t>(i)));
    // No terminator: the window (a line's remaining words) caps the
    // block.
    EXPECT_EQ(isa::scanBlock(insts, 8).len, 8u);
    EXPECT_EQ(isa::scanBlock(insts, 3).len, 3u);
    EXPECT_EQ(isa::scanBlock(insts, 1).len, 1u);
}

TEST(ScanBlock, StallMaskCountsInBlockLoadUse)
{
    isa::DecodedInst insts[4] = {
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T1, 0)),
        di(isa::encodeR(isa::Op::Addu, isa::T1, isa::T0, isa::T2)),
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T3, 4)),
        di(addiuWord(isa::T0, isa::T4, 1)),  // does not consume t3
    };
    isa::BlockMeta m = isa::scanBlock(insts, 4);
    EXPECT_EQ(m.len, 4u);
    // Only instruction 1 consumes the destination of the load right
    // before it; bit 0 is reserved for the dynamic dispatch-time check.
    EXPECT_EQ(m.stallMask, 0b0010u);
    EXPECT_EQ(m.internalStalls, 1u);
    // The block ends on a non-load, so no interlock state leaves it.
    EXPECT_EQ(m.lastLoadDest, 0u);
}

TEST(ScanBlock, LastLoadDestCarriesOut)
{
    isa::DecodedInst insts[2] = {
        di(addiuWord(0, isa::T0, 1)),
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T5, 0)),
    };
    isa::BlockMeta m = isa::scanBlock(insts, 2);
    EXPECT_EQ(m.len, 2u);
    EXPECT_EQ(m.lastLoadDest, isa::T5);
}

TEST(ScanBlock, InvalidWordStartsItsOwnBlock)
{
    isa::DecodedInst bad = di(0x3eu << 26);  // unassigned primary opcode
    ASSERT_FALSE(bad.inst.valid());

    // First word invalid: one-instruction block flagged startsInvalid.
    isa::BlockMeta m = isa::scanBlock(&bad, 4);
    EXPECT_EQ(m.len, 1u);
    EXPECT_TRUE(m.startsInvalid);

    // Later word invalid: the block ends *before* it, so the faulting
    // word is dispatched (and faults) at its own PC, exactly like the
    // per-instruction path.
    isa::DecodedInst insts[3] = {di(addiuWord(0, isa::T0, 1)),
                                 di(addiuWord(0, isa::T1, 2)), bad};
    isa::BlockMeta m2 = isa::scanBlock(insts, 3);
    EXPECT_EQ(m2.len, 2u);
    EXPECT_FALSE(m2.startsInvalid);
}

// ---------------------------------------------------------------------
// BlockCache: build, validation, generation mismatch.
// ---------------------------------------------------------------------

TEST(BlockCache, BuildValidateRebuild)
{
    isa::BlockCache bc(32);
    EXPECT_EQ(bc.wordsPerBlock(), 8u);

    isa::DecodedInst line[8];
    for (int i = 0; i < 8; ++i)
        line[i] = di(addiuWord(0, isa::T0, static_cast<uint16_t>(i)));

    const uint32_t pc = 0x1008;  // word 2 of its line
    isa::DecodedBlock &b = bc.slot(pc);
    EXPECT_FALSE(b.matches(pc, 7));

    bc.build(b, pc, /*gen=*/7, line + 2, /*words_left=*/6);
    EXPECT_EQ(bc.builds(), 1u);
    EXPECT_EQ(b.meta.len, 6u);
    EXPECT_TRUE(b.matches(pc, 7));
    // Stale generation and foreign PCs both fail validation.
    EXPECT_FALSE(b.matches(pc, 8));
    EXPECT_FALSE(b.matches(0x2008, 7));

    // A rebuild against the new generation revalidates.
    bc.build(b, pc, /*gen=*/8, line + 2, 6);
    EXPECT_EQ(bc.builds(), 2u);
    EXPECT_TRUE(b.matches(pc, 8));
    EXPECT_FALSE(b.matches(pc, 7));
}

// ---------------------------------------------------------------------
// I-cache generation stamps: every content change must invalidate.
// ---------------------------------------------------------------------

class CacheGen : public ::testing::Test
{
  protected:
    CacheGen() : icache_("icache", {1024, 32, 2})
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

    cache::Cache icache_;
};

TEST_F(CacheGen, FillAndRefillBump)
{
    fillWith(0x1000, isa::nopWord());
    uint64_t g1 = icache_.lineGen(0x1000);
    // In-place refill of the same line: contents may differ, so the
    // generation must move even though tag and frame are unchanged.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    uint64_t g2 = icache_.lineGen(0x1000);
    EXPECT_NE(g1, g2);
}

TEST_F(CacheGen, SwicOverwriteBumps)
{
    fillWith(0x1000, isa::nopWord());
    uint64_t g1 = icache_.lineGen(0x1000);
    icache_.swicWrite(0x1008, addiuWord(0, isa::T1, 3));
    EXPECT_NE(icache_.lineGen(0x1000), g1);
    // The decoded mirror followed the overwrite (predecode invariant).
    EXPECT_EQ(icache_.decodedAt(0x1008).inst.op, isa::Op::Addiu);
}

TEST_F(CacheGen, EvictionReuseGetsFreshGen)
{
    // 1KB/32B/2-way = 16 sets: addresses 1024 bytes apart share a set.
    fillWith(0x1000, isa::nopWord());
    uint64_t g1 = icache_.lineGen(0x1000);
    fillWith(0x1400, isa::nopWord());
    fillWith(0x1800, isa::nopWord());  // evicts 0x1000 (LRU)
    EXPECT_FALSE(icache_.probe(0x1000));
    // Re-install: same tag, same bytes — but stamps are drawn from a
    // cache-wide clock, so the (addr, gen) pair can never be confused
    // with the evicted incarnation.
    fillWith(0x1000, isa::nopWord());
    EXPECT_NE(icache_.lineGen(0x1000), g1);
}

TEST_F(CacheGen, WritePathsBump)
{
    fillWith(0x1000, isa::nopWord());
    uint64_t g1 = icache_.lineGen(0x1000);
    icache_.write32(0x1004, addiuWord(0, isa::T2, 9));
    uint64_t g2 = icache_.lineGen(0x1000);
    EXPECT_NE(g1, g2);
    ASSERT_TRUE(icache_.accessWrite(0x1008, addiuWord(0, isa::T3, 9), 4));
    EXPECT_NE(icache_.lineGen(0x1000), g2);
}

TEST_F(CacheGen, AccessFetchLineCountsLikeAccess)
{
    fillWith(0x1000, isa::nopWord());
    uint64_t hits0 = icache_.hits(), misses0 = icache_.misses();

    cache::FetchLine line;
    EXPECT_FALSE(icache_.accessFetchLine(0x2000, line));
    EXPECT_EQ(icache_.misses(), misses0 + 1);

    ASSERT_TRUE(icache_.accessFetchLine(0x1010, line));
    EXPECT_EQ(icache_.hits(), hits0 + 1);
    // The mirror pointer is line-base-relative and matches decodedAt.
    EXPECT_EQ(line.decoded + 4, &icache_.decodedAt(0x1010));
    EXPECT_EQ(line.gen, icache_.lineGen(0x1010));

    // peekFetchLine: same answers, no statistics, no LRU touch.
    uint64_t hits1 = icache_.hits(), misses1 = icache_.misses();
    cache::FetchLine peeked;
    icache_.peekFetchLine(0x1010, peeked);
    EXPECT_EQ(peeked.decoded, line.decoded);
    EXPECT_EQ(peeked.gen, line.gen);
    EXPECT_EQ(icache_.hits(), hits1);
    EXPECT_EQ(icache_.misses(), misses1);

    // creditFetchHits: the batched stand-in for the k-1 fetches a block
    // dispatch collapsed away.
    icache_.creditFetchHits(5);
    EXPECT_EQ(icache_.hits(), hits1 + 5);
}

TEST_F(CacheGen, SwicInvalidatesCachedBlock)
{
    // The coherence story end-to-end at cache level: a block built
    // against a line generation must fail validation after a swic lands
    // in that line, and the rebuild must see the new instruction.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    cache::FetchLine line;
    ASSERT_TRUE(icache_.accessFetchLine(0x1000, line));

    isa::BlockCache bc(32);
    isa::DecodedBlock &b = bc.slot(0x1000);
    bc.build(b, 0x1000, line.gen, line.decoded, 8);
    EXPECT_EQ(b.meta.len, 8u);
    EXPECT_TRUE(b.matches(0x1000, line.gen));

    icache_.swicWrite(0x1008, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    cache::FetchLine after;
    ASSERT_TRUE(icache_.accessFetchLine(0x1000, after));
    EXPECT_FALSE(b.matches(0x1000, after.gen));
    bc.build(b, 0x1000, after.gen, after.decoded, 8);
    EXPECT_EQ(b.meta.len, 3u);  // now terminated by the installed jr
    EXPECT_TRUE(b.matches(0x1000, after.gen));
}

// ---------------------------------------------------------------------
// Handler-RAM blocks: precomputed at load, swic does not split them.
// ---------------------------------------------------------------------

TEST(HandlerBlocks, LoadPrecomputesConsistentBlocks)
{
    runtime::HandlerBuild handler =
        runtime::buildHandler(Scheme::Dictionary, false, 32);
    mem::HandlerRam ram;
    ram.load(handler.code);

    bool saw_interior_swic = false;
    for (uint32_t i = 0; i < handler.staticInsns(); ++i) {
        uint32_t addr = mem::HandlerRam::base + i * 4;
        const isa::DecodedInst *insts = nullptr;
        const isa::BlockMeta &m = ram.blockAt(addr, insts);
        EXPECT_EQ(insts, ram.decodedFrom(addr));
        EXPECT_EQ(&m, &ram.blockMetaAt(addr));
        ASSERT_GE(m.len, 1u);
        // Recompute from scratch: the load-time scan must agree with
        // scanBlock over the remaining window, swic non-terminating.
        isa::BlockMeta ref = isa::scanBlock(
            insts, handler.staticInsns() - i, /*swic_ends=*/false);
        EXPECT_EQ(m.len, ref.len);
        EXPECT_EQ(m.stallMask, ref.stallMask);
        EXPECT_EQ(m.internalStalls, ref.internalStalls);
        EXPECT_EQ(m.lastLoadDest, ref.lastLoadDest);
        for (uint32_t w = 0; w + 1 < m.len; ++w) {
            if (insts[w].inst.op == isa::Op::Swic)
                saw_interior_swic = true;
        }
    }
    // The dictionary handler's install loop swics mid-block; if this
    // ever fails the swic_ends=false load-time scan regressed.
    EXPECT_TRUE(saw_interior_swic);
}

// ---------------------------------------------------------------------
// End-to-end parity: RunStats must not depend on blockExec.
// ---------------------------------------------------------------------

class BlockParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();
    }

    RunStats
    runWith(Scheme scheme, bool block_exec, bool rf = false)
    {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
        config.scheme = scheme;
        config.secondRegFile = rf;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    }

    /** Same run with block_exec on and off: identical RunStats. */
    void
    expectParity(Scheme scheme, bool rf = false)
    {
        EXPECT_EQ(serve::runStatsDiff(runWith(scheme, true, rf),
                                      runWith(scheme, false, rf)),
                  "");
    }

    prog::Program program_;
};

TEST_F(BlockParity, NativeRunIsIdentical)
{
    expectParity(Scheme::None);
}

TEST_F(BlockParity, DictionaryRunIsIdentical)
{
    // The decompression handler swic-installs words into lines whose
    // blocks are hot in the block cache: the generation bumps must
    // resync every such block or these counters diverge.
    expectParity(Scheme::Dictionary);
    expectParity(Scheme::Dictionary, true);
}

TEST_F(BlockParity, CodePackRunIsIdentical)
{
    expectParity(Scheme::CodePack);
}

TEST_F(BlockParity, HuffmanRunIsIdentical)
{
    expectParity(Scheme::HuffmanLine);
}

TEST_F(BlockParity, ProcCacheRunFallsBackIdentically)
{
    // The procedure-cache baseline invalidates I-lines on faults, so
    // user dispatch falls back to per-instruction stepping; the config
    // flag must still be safe to leave on.
    auto run = [&](bool block_exec) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
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
    EXPECT_EQ(serve::runStatsDiff(on, off), "") << "proccache";
}

TEST_F(BlockParity, EvictionPressureIsIdentical)
{
    // A 1KB I-cache forces constant eviction and refill, exercising
    // line replacement under blocks that were built against evicted
    // generations (line eviction mid-run).
    auto run = [&](Scheme scheme, bool block_exec) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
        config.cpu.icache.sizeBytes = 1024;
        config.scheme = scheme;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    };
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary}) {
        RunStats on = run(scheme, true);
        RunStats off = run(scheme, false);
        EXPECT_GT(on.icacheMisses, 1000u);
        EXPECT_EQ(serve::runStatsDiff(on, off), "") << "eviction pressure";
    }
}

TEST_F(BlockParity, MidBlockTimeoutIsIdentical)
{
    // A budget that expires mid-block must stop on exactly the same
    // instruction, cycle and stall counts as per-instruction stepping.
    for (uint64_t budget : {1u, 1000u, 12'345u, 54'321u}) {
        auto run = [&](bool block_exec) {
            core::SystemConfig config;
            config.cpu.maxUserInsns = budget;
            config.cpu.blockExec = block_exec;
                config.scheme = Scheme::Dictionary;
            core::System system(program_, config);
            return system.run().stats;
        };
        RunStats on = run(true);
        RunStats off = run(false);
        EXPECT_TRUE(on.timedOut) << budget;
        EXPECT_EQ(on.userInsns, budget);
        EXPECT_EQ(serve::runStatsDiff(on, off), "") << "timeout";
    }
}

} // namespace
} // namespace rtd::cpu
