/**
 * @file
 * Block-execution engine guardrails.
 *
 * The Blocks engine (CpuConfig::engine) dispatches straight-line runs
 * of predecoded instructions with one I-cache tag check and one batched
 * stats add per block. It is pure host-side memoization: a Blocks run
 * must produce *identical* RunStats — cycles, misses, interlock stalls,
 * everything — and profile vectors to the same run on the Oracle, for
 * every compression scheme, including while decompression handlers
 * swic-install words into lines whose blocks are live in the block
 * cache. Below: scanBlock unit tests (terminators, line caps, interlock
 * masks), BlockCache build/validate behaviour, the I-cache generation
 * invariants that make cached blocks coherent, the decoded mirrors
 * blocks execute from, and end-to-end parity across schemes, the
 * procedure cache, profiling, eviction pressure, and mid-block
 * timeouts.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/system.h"
#include "isa/blocks.h"
#include "isa/decode.h"
#include "isa/predecode.h"
#include "mem/handler_ram.h"
#include "program/builder.h"
#include "runtime/handlers.h"
#include "serve/wire.h"
#include "support/logging.h"
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
    cache::FetchLine line;
    icache_.peekFetchLine(0x1008, line);
    EXPECT_EQ(line.decoded[2].inst.op, isa::Op::Addiu);
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
    // The mirror pointer is line-base-relative.
    EXPECT_EQ(line.decoded[4].word, icache_.read32(0x1010));
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

/** @p d mirrors @p word: it agrees with the ISA's own queries on it. */
void
expectMirrors(const isa::DecodedInst &d, uint32_t word)
{
    EXPECT_EQ(d.word, word);
    EXPECT_EQ(d.inst.op, isa::decode(word).op);
    uint8_t srcs[2];
    EXPECT_EQ(d.nsrc, isa::srcRegs(d.inst, srcs));
    EXPECT_EQ(d.isLoad, isa::isLoad(d.inst.op));
    EXPECT_EQ(d.isCondBranch, isa::isCondBranch(d.inst.op));
    EXPECT_EQ(d.dest, isa::destReg(d.inst));
}

/** The mirror entry of the (present) word at @p addr. */
const isa::DecodedInst &
mirrorAt(const cache::Cache &icache, uint32_t addr)
{
    cache::FetchLine line;
    icache.peekFetchLine(addr, line);
    return line.decoded[(addr - icache.lineAddr(addr)) / 4];
}

// ---------------------------------------------------------------------
// Decoded mirrors (the I-cache's decoded lines, the predecoded handler
// RAM): each entry equals isa::predecode of the raw word it mirrors,
// including across swic overwrites and re-fills.
// ---------------------------------------------------------------------

TEST(PredecodeCache, FillDecodesWholeLine)
{
    cache::Cache icache("icache", {1024, 32, 2});
    icache.enablePredecode();

    uint8_t line[32];
    for (uint32_t w = 0; w < 8; ++w) {
        uint32_t word = isa::encodeI(isa::Op::Addiu, 0, isa::T0,
                                     static_cast<uint16_t>(w));
        std::memcpy(line + w * 4, &word, 4);
    }
    icache.fillLine(0x1000, line);
    for (uint32_t w = 0; w < 8; ++w) {
        const isa::DecodedInst &d = mirrorAt(icache, 0x1000 + w * 4);
        EXPECT_EQ(d.inst.op, isa::Op::Addiu);
        EXPECT_EQ(d.inst.imm, w);
        EXPECT_EQ(d.dest, isa::T0);
        EXPECT_FALSE(d.isLoad);
    }
}

TEST(PredecodeCache, SwicOverwriteInvalidatesDecodedEntry)
{
    cache::Cache icache("icache", {1024, 32, 2});
    icache.enablePredecode();

    // Install a line of nops, then overwrite one cached word with a
    // different instruction via swic: the decoded entry must follow.
    uint8_t line[32];
    uint32_t nop = isa::nopWord();
    for (uint32_t w = 0; w < 8; ++w)
        std::memcpy(line + w * 4, &nop, 4);
    icache.fillLine(0x2000, line);
    ASSERT_EQ(mirrorAt(icache, 0x2008).inst.op, isa::Op::Sll);

    uint32_t lw = isa::encodeI(isa::Op::Lw, isa::Sp, isa::T1, 16);
    icache.swicWrite(0x2008, lw);
    const isa::DecodedInst &d = mirrorAt(icache, 0x2008);
    EXPECT_EQ(d.inst.op, isa::Op::Lw);
    EXPECT_TRUE(d.isLoad);
    EXPECT_EQ(d.dest, isa::T1);
    // Neighbouring words keep their decode.
    EXPECT_EQ(mirrorAt(icache, 0x2004).inst.op, isa::Op::Sll);
    EXPECT_EQ(mirrorAt(icache, 0x200c).inst.op, isa::Op::Sll);
    // The raw data and the decoded mirror agree.
    EXPECT_EQ(icache.read32(0x2008), lw);
}

TEST(PredecodeCache, AccessFetchMatchesAccessReadAndDecode)
{
    cache::Cache a("a", {1024, 32, 2});
    cache::Cache b("b", {1024, 32, 2});
    a.enablePredecode();

    uint8_t line[32];
    for (uint32_t w = 0; w < 8; ++w) {
        uint32_t word = isa::encodeR(isa::Op::Addu, isa::T0, isa::T1,
                                     static_cast<uint8_t>(w));
        std::memcpy(line + w * 4, &word, 4);
    }
    a.fillLine(0x3000, line);
    b.fillLine(0x3000, line);

    // Miss: both combined entry points count one miss, read nothing.
    cache::FetchLine fetched;
    EXPECT_FALSE(a.accessFetchLine(0x4000, fetched));
    EXPECT_EQ(fetched.decoded, nullptr);
    uint32_t word = 0xdeadbeef;
    EXPECT_FALSE(b.accessRead(0x4000, word));
    EXPECT_EQ(word, 0xdeadbeefu);
    EXPECT_EQ(a.misses(), 1u);
    EXPECT_EQ(b.misses(), 1u);

    // Hit: one lookup yields the line's decoded mirror / the word.
    ASSERT_TRUE(a.accessFetchLine(0x3004, fetched));
    EXPECT_TRUE(b.accessRead(0x3004, word));
    const isa::DecodedInst &d = fetched.decoded[1];
    expectMirrors(d, word);
    EXPECT_EQ(d.dest, 1u);  // the entry of word 1, not of the line base
    EXPECT_EQ(a.hits(), 1u);
    EXPECT_EQ(b.hits(), 1u);
}

TEST(PredecodeHandlerRam, LoadPredecodesWholeHandler)
{
    runtime::HandlerBuild handler =
        runtime::buildHandler(Scheme::Dictionary, false, 32);
    mem::HandlerRam ram;
    ram.load(handler.code);
    for (uint32_t i = 0; i < handler.staticInsns(); ++i) {
        uint32_t addr = mem::HandlerRam::base + i * 4;
        expectMirrors(*ram.decodedFrom(addr), ram.fetch(addr));
    }
}

// ---------------------------------------------------------------------
// End-to-end parity: Blocks match the Oracle on RunStats and profiles.
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

    static core::SystemConfig
    configFor(Scheme scheme, bool rf = false)
    {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.scheme = scheme;
        config.secondRegFile = rf;
        return config;
    }

    /** @p config run on @p engine. A Blocks run must build blocks:
     *  one that fell back to the Oracle would pass parity vacuously. */
    core::SystemResult
    runOn(core::SystemConfig config, Engine engine)
    {
        config.cpu.engine = engine;
        core::System system(program_, config);
        core::SystemResult result = system.run();
        if (engine == Engine::Blocks) {
            const isa::BlockCache *blocks = system.cpu().blockCache();
            EXPECT_TRUE(blocks && blocks->builds() > 0);
        }
        return result;
    }

    /** @p config on both engines: identical RunStats and profile
     *  vectors. Returns the Blocks result. */
    core::SystemResult
    expectParity(const core::SystemConfig &config,
                 const std::string &label = "")
    {
        SCOPED_TRACE(label);
        core::SystemResult blocks = runOn(config, Engine::Blocks);
        core::SystemResult oracle = runOn(config, Engine::Oracle);
        EXPECT_EQ(serve::runStatsDiff(blocks.stats, oracle.stats), "");
        EXPECT_EQ(blocks.profile.execInsns, oracle.profile.execInsns);
        EXPECT_EQ(blocks.profile.missCounts, oracle.profile.missCounts);
        EXPECT_EQ(blocks.profile.transitions, oracle.profile.transitions);
        return blocks;
    }

    prog::Program program_;
};

TEST_F(BlockParity, NativeRunIsIdentical)
{
    EXPECT_TRUE(expectParity(configFor(Scheme::None)).stats.halted);
}

TEST_F(BlockParity, DictionaryRunIsIdentical)
{
    // The decompression handler swic-installs words into lines whose
    // blocks are hot in the block cache: the generation bumps must
    // resync every such block or these counters diverge.
    EXPECT_TRUE(expectParity(configFor(Scheme::Dictionary)).stats.halted);
    EXPECT_TRUE(
        expectParity(configFor(Scheme::Dictionary, true)).stats.halted);
}

TEST_F(BlockParity, CodePackRunIsIdentical)
{
    EXPECT_TRUE(expectParity(configFor(Scheme::CodePack)).stats.halted);
}

TEST_F(BlockParity, HuffmanRunIsIdentical)
{
    EXPECT_TRUE(expectParity(configFor(Scheme::HuffmanLine)).stats.halted);
}

TEST_F(BlockParity, ProcCacheRunIsIdentical)
{
    // A 4 KB procedure cache forces faults, evictions and compaction:
    // each fault invalidates I-lines, and Blocks check residency once
    // per block, at entry.
    core::SystemConfig config = configFor(Scheme::ProcLzrw1);
    config.procCache.capacityBytes = 4 * 1024;
    core::SystemResult blocks = expectParity(config, "proccache");
    EXPECT_TRUE(blocks.stats.halted);
    EXPECT_GT(blocks.stats.procFaults, 0u);
    EXPECT_GT(blocks.stats.procEvictions, 0u);
}

TEST_F(BlockParity, ProcCacheRunFallsBackIdentically)
{
    // Tracing is the one case where a Blocks config runs on the Oracle:
    // the traced run builds no block and matches the untraced one.
    core::SystemConfig config = configFor(Scheme::ProcLzrw1);
    config.procCache.capacityBytes = 4 * 1024;
    config.cpu.traceInsns = 1;
    core::System traced(program_, config);
    RunStats stats = traced.run().stats;
    const isa::BlockCache *built = traced.cpu().blockCache();
    EXPECT_TRUE(!built || built->builds() == 0);
    EXPECT_TRUE(stats.halted);
    config.cpu.traceInsns = 0;
    EXPECT_EQ(serve::runStatsDiff(stats, runOn(config, Engine::Blocks).stats),
              "");
}

TEST_F(BlockParity, ProfilesAreIdentical)
{
    // Blocks note the procedure once per block and credit the rest of
    // the block after it runs; the Oracle notes every instruction.
    for (Scheme scheme :
         {Scheme::None, Scheme::Dictionary, Scheme::CodePack}) {
        for (uint32_t icache_bytes : {16u * 1024, 1024u}) {
            core::SystemConfig config = configFor(scheme);
            config.cpu.icache.sizeBytes = icache_bytes;
            config.profiling = true;
            SCOPED_TRACE(std::string(compress::schemeName(scheme)) + " " +
                         std::to_string(icache_bytes));
            core::SystemResult blocks = expectParity(config);
            EXPECT_TRUE(blocks.stats.halted);
            // Every user instruction and miss lands on a procedure.
            EXPECT_EQ(blocks.profile.totalExec(), blocks.stats.userInsns);
            EXPECT_EQ(blocks.profile.totalMisses(),
                      blocks.stats.icacheMisses);
            EXPECT_FALSE(blocks.profile.transitions.empty());
        }
    }
}

TEST_F(BlockParity, FallThroughProcedureIsRejected)
{
    // Blocks rely on every procedure's last word ending a block; one
    // that falls through into the next is refused where profiling or
    // the procedure cache is switched on.
    prog::ProcedureBuilder a("A");
    a.addiu(isa::T0, isa::Zero, 1);
    prog::ProcedureBuilder b("B");
    b.addu(isa::V0, isa::T0, isa::Zero);
    b.halt(0);
    prog::Program program;
    program.procs.push_back(a.take());
    program.procs.push_back(b.take());
    program.entry = 0;
    program.name = "fallthrough";

    core::SystemConfig profiled = configFor(Scheme::None);
    core::System plain(program, profiled);
    EXPECT_EQ(plain.run().stats.resultValue, 1u);
    profiled.profiling = true;
    core::SystemConfig proc = configFor(Scheme::ProcLzrw1);
    ScopedErrorTrap trap;
    EXPECT_THROW(core::System(program, profiled), SimError);
    EXPECT_THROW(core::System(program, proc), SimError);
}

TEST_F(BlockParity, EvictionPressureIsIdentical)
{
    // A 1KB I-cache forces constant eviction and refill, exercising
    // line replacement under blocks that were built against evicted
    // generations (line eviction mid-run).
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary}) {
        core::SystemConfig config = configFor(scheme);
        config.cpu.icache.sizeBytes = 1024;
        core::SystemResult blocks =
            expectParity(config, "eviction pressure");
        EXPECT_TRUE(blocks.stats.halted);
        EXPECT_GT(blocks.stats.icacheMisses, 1000u);
    }
}

TEST_F(BlockParity, MidBlockTimeoutIsIdentical)
{
    // A budget that expires mid-block must stop on exactly the same
    // instruction, cycle and stall counts as per-instruction stepping.
    for (uint64_t budget : {1u, 1000u, 12'345u, 54'321u}) {
        core::SystemConfig config = configFor(Scheme::Dictionary);
        config.cpu.maxUserInsns = budget;
        core::SystemResult blocks = expectParity(config, "timeout");
        EXPECT_TRUE(blocks.stats.timedOut) << budget;
        EXPECT_EQ(blocks.stats.userInsns, budget);
    }
}

/** Blocks execute from the I-cache's decoded mirror: after a whole run
 *  (fills, swic installs, evictions, procedure-cache invalidations)
 *  every text word still cached is mirrored by its raw word's decode.
 *  Stats parity of the same runs is BlockParity's. */
class PredecodeParity : public BlockParity
{
  protected:
    void
    expectMirrorCoherent(const core::SystemConfig &config)
    {
        core::System system(program_, config);
        EXPECT_TRUE(system.run().stats.halted);
        const cache::Cache &icache = system.cpu().icache();
        uint32_t checked = 0;
        for (const prog::LinkedProc &lp : system.image().procs) {
            for (uint32_t a = lp.base; a < lp.base + lp.size; a += 4) {
                if (!icache.probe(a))
                    continue;
                SCOPED_TRACE(a);
                expectMirrors(mirrorAt(icache, a), icache.read32(a));
                ++checked;
            }
        }
        EXPECT_GT(checked, 0u);
    }
};

TEST_F(PredecodeParity, NativeRunIsIdentical)
{
    expectMirrorCoherent(configFor(Scheme::None));
}

TEST_F(PredecodeParity, DictionaryRunIsIdentical)
{
    // The handler swic-installs each word into the cached line.
    expectMirrorCoherent(configFor(Scheme::Dictionary));
    expectMirrorCoherent(configFor(Scheme::Dictionary, true));
}

TEST_F(PredecodeParity, CodePackRunIsIdentical)
{
    expectMirrorCoherent(configFor(Scheme::CodePack));
}

TEST_F(PredecodeParity, HuffmanRunIsIdentical)
{
    expectMirrorCoherent(configFor(Scheme::HuffmanLine));
}

TEST_F(PredecodeParity, ProcCacheRunIsIdentical)
{
    core::SystemConfig config = configFor(Scheme::ProcLzrw1);
    config.procCache.capacityBytes = 4 * 1024;
    expectMirrorCoherent(config);
}

} // namespace
} // namespace rtd::cpu
