#include "cpu/cpu.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "obs/observer.h"
#include "support/bitops.h"
#include "support/crc32.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cpu {

const char *
mcKindName(McKind kind)
{
    switch (kind) {
      case McKind::None:               return "none";
      case McKind::InvalidInst:        return "invalid-inst";
      case McKind::MisalignedFetch:    return "misaligned-fetch";
      case McKind::MisalignedData:     return "misaligned-data";
      case McKind::PrivilegedOp:       return "privileged-op";
      case McKind::SwicRange:          return "swic-range";
      case McKind::HandlerRunaway:     return "handler-runaway";
      case McKind::LineFillIncomplete: return "line-fill-incomplete";
      case McKind::IntegrityFail:      return "integrity-fail";
      case McKind::DmemRange:          return "dmem-range";
    }
    return "?";
}

const char *
engineName(Engine engine)
{
    return engine == Engine::Blocks ? "blocks" : "oracle";
}

using isa::Instruction;
using isa::Op;

namespace {

/**
 * Execute @p inst when its only architectural effect is a register /
 * hi / lo write: the straight-line ALU subset, shared between the full
 * interpreter switch (execute()) and the block-dispatch loops, which
 * inline it to run ALU stretches without the out-of-line call. Ops that
 * touch memory, control flow, coprocessor state or statistics return
 * false and take the full path.
 */
[[gnu::always_inline]] inline bool
executeAlu(const Instruction &inst, uint32_t *regs, uint32_t &hi,
           uint32_t &lo)
{
    auto rd = [&](unsigned r) -> uint32_t { return r == 0 ? 0 : regs[r]; };
    auto wr = [&](unsigned r, uint32_t v) {
        if (r != 0)
            regs[r] = v;
    };
    auto rs = [&] { return rd(inst.rs); };
    auto rt = [&] { return rd(inst.rt); };
    auto wr_rd = [&](uint32_t v) { wr(inst.rd, v); };
    auto wr_rt = [&](uint32_t v) { wr(inst.rt, v); };
    int32_t simm = static_cast<int16_t>(inst.imm);
    uint32_t uimm = inst.imm;

    switch (inst.op) {
      case Op::Sll: wr_rd(rt() << inst.shamt); return true;
      case Op::Srl: wr_rd(rt() >> inst.shamt); return true;
      case Op::Sra:
        wr_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >>
                                    inst.shamt));
        return true;
      case Op::Sllv: wr_rd(rt() << (rs() & 31)); return true;
      case Op::Srlv: wr_rd(rt() >> (rs() & 31)); return true;
      case Op::Srav:
        wr_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >>
                                    (rs() & 31)));
        return true;
      case Op::Add: case Op::Addu: wr_rd(rs() + rt()); return true;
      case Op::Sub: case Op::Subu: wr_rd(rs() - rt()); return true;
      case Op::And: wr_rd(rs() & rt()); return true;
      case Op::Or: wr_rd(rs() | rt()); return true;
      case Op::Xor: wr_rd(rs() ^ rt()); return true;
      case Op::Nor: wr_rd(~(rs() | rt())); return true;
      case Op::Slt:
        wr_rd(static_cast<int32_t>(rs()) < static_cast<int32_t>(rt()));
        return true;
      case Op::Sltu: wr_rd(rs() < rt()); return true;
      case Op::Mult: {
        int64_t prod = static_cast<int64_t>(static_cast<int32_t>(rs())) *
                       static_cast<int32_t>(rt());
        lo = static_cast<uint32_t>(prod);
        hi = static_cast<uint32_t>(prod >> 32);
        return true;
      }
      case Op::Multu: {
        uint64_t prod = static_cast<uint64_t>(rs()) * rt();
        lo = static_cast<uint32_t>(prod);
        hi = static_cast<uint32_t>(prod >> 32);
        return true;
      }
      case Op::Div: {
        int32_t a = static_cast<int32_t>(rs());
        int32_t b = static_cast<int32_t>(rt());
        if (b != 0 && !(a == INT32_MIN && b == -1)) {
            lo = static_cast<uint32_t>(a / b);
            hi = static_cast<uint32_t>(a % b);
        }
        return true;
      }
      case Op::Divu:
        if (rt() != 0) {
            lo = rs() / rt();
            hi = rs() % rt();
        }
        return true;
      case Op::Mfhi: wr_rd(hi); return true;
      case Op::Mflo: wr_rd(lo); return true;
      case Op::Mthi: hi = rs(); return true;
      case Op::Mtlo: lo = rs(); return true;

      case Op::Addi: case Op::Addiu:
        wr_rt(rs() + static_cast<uint32_t>(simm));
        return true;
      case Op::Slti:
        wr_rt(static_cast<int32_t>(rs()) < simm);
        return true;
      case Op::Sltiu:
        wr_rt(rs() < static_cast<uint32_t>(simm));
        return true;
      case Op::Andi: wr_rt(rs() & uimm); return true;
      case Op::Ori: wr_rt(rs() | uimm); return true;
      case Op::Xori: wr_rt(rs() ^ uimm); return true;
      case Op::Lui: wr_rt(uimm << 16); return true;

      default:
        return false;
    }
}

/** Load-use stalls among instructions [@p from, @p to) of block @p m. */
uint64_t
stallsIn(const isa::BlockMeta &m, uint64_t from, uint64_t to)
{
    auto below = [](uint64_t n) { return n >= 32 ? ~0u : (1u << n) - 1; };
    return static_cast<uint64_t>(
        std::popcount(m.stallMask & below(to) & ~below(from)));
}

} // namespace

double
RunStats::icacheMissRatio() const
{
    return ratio(icacheMisses, icacheAccesses);
}

double
RunStats::dcacheMissRatio() const
{
    return ratio(dcacheMisses, dcacheAccesses);
}

double
RunStats::cpi() const
{
    return ratio(cycles, userInsns);
}

Cpu::Cpu(const CpuConfig &config, mem::MainMemory &memory,
         const prog::LoadedImage &image)
    : config_(config), memory_(memory), image_(image),
      icache_("icache", config.icache), dcache_("dcache", config.dcache),
      predictor_(config.predictorEntries, config.predictorKind)
{
    pc_ = image.entry;
    regs_[isa::Sp] = image.stackTop;
    // A return from the entry procedure without halt lands on an invalid
    // address and is caught by the fetch path.
    regs_[isa::Ra] = 0;
    lineBuf_.resize(std::max(config.icache.lineBytes,
                             config.dcache.lineBytes));
    wbBuf_.resize(lineBuf_.size());
    if (config_.engine == Engine::Blocks)
        icache_.enablePredecode();
    if (config_.l2.enabled)
        l2_.configure(config_.l2);
}

void
Cpu::attachDecompressor(const compress::CompressedImage &cimage,
                        const runtime::HandlerBuild &handler,
                        uint32_t region_bytes, bool faulted)
{
    RTDC_ASSERT(!image_.decompText.empty(),
                "attachDecompressor on an image with no compressed region");
    handlerRam_.load(handler.code);
    config_.secondRegFile = handler.usesShadowRegs;
    for (size_t i = 0; i < cimage.c0.size(); ++i)
        c0_[i] = cimage.c0[i];
    compressedLo_ = image_.decompBase;
    compressedHi_ = image_.decompBase + region_bytes;
    integrityUnitBytes_ = cimage.crcUnitBytes;
    unitCrcs_ = cimage.unitCrcs;
    decompressorAttached_ = true;

    // Handler replay: prove the handler replayable once, here (its text
    // is immutable), and size the per-unit trace index.
    imageFaulted_ = faulted;
    replayPlan_ = analyzeHandler(handlerRam_, handlerRam_.entry());
    tableRanges_.clear();
    for (const compress::CompressedSegment &seg : cimage.segments) {
        tableRanges_.emplace_back(
            seg.base, seg.base + static_cast<uint32_t>(seg.bytes.size()));
    }
    if (replayPlan_.ok && region_bytes > 0) {
        replayUnitBase_ = compressedLo_ >> replayPlan_.unitShift;
        traces_.reset(((compressedHi_ - 1) >> replayPlan_.unitShift) -
                      replayUnitBase_ + 1);
    }
}

void
Cpu::raiseMc(McKind kind, uint32_t addr, bool handler)
{
    if (handler) {
        // Latched, first fault wins; surfaced (and counted) by the
        // servicing boundary so a retried fill counts once per attempt.
        if (pendingFault_ == McKind::None) {
            pendingFault_ = kind;
            pendingFaultAddr_ = addr;
        }
        return;
    }
    if (stats_.machineCheckHalt)
        return;
    ++stats_.machineChecks;
    if (config_.observer) [[unlikely]] {
        config_.observer->machineCheck(static_cast<uint8_t>(kind), addr,
                                       stats_.cycles);
    }
    stats_.machineCheckHalt = true;
    stats_.faultKind = kind;
    stats_.faultAddr = addr;
}

bool
Cpu::cancelPoll()
{
    if (!config_.cancel)
        return false;
    if ((++cancelTick_ & 0xFFFu) != 0)
        return false;
    if (!config_.cancel->load(std::memory_order_relaxed))
        return false;
    stats_.cancelled = true;
    return true;
}

McKind
Cpu::checkIntegrity(uint32_t addr)
{
    if (unitCrcs_.empty())
        return McKind::None;
    uint32_t unit = integrityUnitBytes_;
    uint32_t base = addr & ~(unit - 1);
    uint32_t end = std::min(base + unit, compressedHi_);
    // The CRC covers the whole unit; only check once every line of it
    // is resident (the CodePack handler installs both lines of a group,
    // so in practice the unit containing the miss is always complete).
    for (uint32_t a = base; a < end; a += config_.icache.lineBytes) {
        if (!icache_.probe(a))
            return McKind::LineFillIncomplete;
    }
    size_t idx = (base - compressedLo_) / unit;
    if (idx >= unitCrcs_.size())
        return McKind::IntegrityFail;
    Crc32 crc;
    for (uint32_t a = base; a < end; a += 4)
        crc.updateWord(icache_.read32(a));
    return crc.value() == unitCrcs_[idx] ? McKind::None
                                         : McKind::IntegrityFail;
}

void
Cpu::attachProcDecompressor(const proccache::ProcCompressedImage &pimage,
                            const runtime::HandlerBuild &handler,
                            const proccache::ProcCacheConfig &config)
{
    RTDC_ASSERT(!decompressorAttached_,
                "line and procedure decompression are mutually "
                "exclusive");
    RTDC_ASSERT(pimage.entries.size() == image_.procs.size(),
                "procedure image does not match the linked program");
    checkProcEnds();
    handlerRam_.load(handler.code);
    config_.secondRegFile = handler.usesShadowRegs;
    procImage_ = &pimage;
    procConfig_ = config;
    procMgr_ = std::make_unique<proccache::ProcCacheManager>(
        config.capacityBytes, image_.procs.size());
}

void
Cpu::attachDataDecompressor(const dmem::DataRegion &region,
                            const runtime::HandlerBuild &handler,
                            uint32_t entry_offset, uint32_t staging_pages)
{
    RTDC_ASSERT(region.scheme != dmem::DataScheme::None &&
                    region.numPages > 0,
                "attachDataDecompressor with an empty data region");
    // In "both" mode the code decompressor already loaded the combined
    // handler image; data-only mode loads it here.
    if (!handlerRam_.loaded()) {
        handlerRam_.load(handler.code);
        config_.secondRegFile = handler.usesShadowRegs;
    }
    RTDC_ASSERT(entry_offset + 4 <= handlerRam_.sizeBytes(),
                "data handler entry outside the handler RAM");
    dregion_ = &region;
    dmemLo_ = region.base;
    dmemPageBytes_ = region.pageBytes;
    dmemPageShift_ = static_cast<uint8_t>(floorLog2(region.pageBytes));
    dmemSpan_ = region.numPages * region.pageBytes;
    dmemEntry_ = mem::HandlerRam::base + entry_offset;
    dmemStagingPages_ = staging_pages;
    dmemState_.assign(region.numPages, kPageCompressed);
    dmemFifo_.clear();
    dmemCrcs_ = region.pageCrcs;
    const compress::CompressedSegment *stream =
        region.segment(".dstream");
    RTDC_ASSERT(stream, "data region has no .dstream segment");
    c0_[isa::C0DataBase] = region.base;
    c0_[isa::C0DataStream] = stream->base;
    if (const compress::CompressedSegment *map = region.segment(".dmap"))
        c0_[isa::C0DataMap] = map->base;
    if (const compress::CompressedSegment *dict =
            region.segment(".ddict"))
        c0_[isa::C0DataDict] = dict->base;
}

void
Cpu::checkProcEnds() const
{
    for (const prog::LinkedProc &lp : image_.procs) {
        uint32_t last = lp.base + lp.size - 4;
        RTDC_ASSERT(isa::endsBlock(isa::predecode(image_.textWordAt(last))),
                    "procedure %s falls through at 0x%08x",
                    lp.name.c_str(), last);
    }
}

void
Cpu::enableProfiling()
{
    checkProcEnds();
    profiling_ = true;
    procExecInsns_.assign(image_.procs.size(), 0);
    procMisses_.assign(image_.procs.size(), 0);
}

void
Cpu::noteUserPc(uint32_t pc)
{
    if (pc >= curProcLo_ && pc < curProcHi_) {
        if (curProc_ >= 0)
            ++procExecInsns_[curProc_];
        return;
    }
    int32_t prev = curProc_;
    curProc_ = image_.procAt(pc);
    if (curProc_ >= 0) {
        const prog::LinkedProc &lp = image_.procs[curProc_];
        curProcLo_ = lp.base;
        curProcHi_ = lp.base + lp.size;
        ++procExecInsns_[curProc_];
        if (prev >= 0) {
            // Inter-procedure transfer (call, return, or fallthrough):
            // the affinity signal code placement optimizes.
            ++procTransitions_[
                static_cast<uint64_t>(static_cast<uint32_t>(prev)) << 32 |
                static_cast<uint32_t>(curProc_)];
        }
    } else {
        curProcLo_ = 1;
        curProcHi_ = 0;
    }
}

RunStats
Cpu::run()
{
    stats_ = RunStats{};
    // Tracing prints every instruction, so it runs on the Oracle.
    blocks_ = config_.engine == Engine::Blocks && config_.traceInsns == 0;
    if (blocks_) {
        runBlocks();
    } else {
        while (true) {
            step();
            if (stats_.halted || stats_.machineCheckHalt ||
                stats_.cancelled) {
                break;
            }
            if (config_.maxUserInsns &&
                stats_.userInsns >= config_.maxUserInsns) {
                stats_.timedOut = true;
                break;
            }
            if (cancelPoll())
                break;
        }
    }
    // Fold component statistics in.
    stats_.branchLookups = predictor_.lookups();
    stats_.branchMispredicts = predictor_.mispredicts();
    if (procMgr_) {
        stats_.procFaults = procMgr_->faults();
        stats_.procEvictions = procMgr_->evictions();
        stats_.procCompactedBytes = procMgr_->bytesCompacted();
    }
    return stats_;
}

void
Cpu::ensureProcResident(uint32_t pc)
{
    if (pc >= procCurLo_ && pc < procCurHi_)
        return;
    int32_t proc = image_.procAt(pc);
    RTDC_ASSERT(proc >= 0, "fetch outside any procedure: 0x%08x", pc);
    if (!procMgr_->resident(proc)) {
        procFault(pc, proc);
        if (stats_.machineCheckHalt || stats_.cancelled)
            return;
    } else {
        procMgr_->touch(proc);
    }
    procCurLo_ = image_.procs[proc].base;
    procCurHi_ = procCurLo_ + image_.procs[proc].size;
}

// Zero block for clearing evicted procedures' backing bytes, hoisted to
// file scope so procFault never re-runs a local-static guard per call.
constexpr uint32_t kZeroChunkBytes = 4096;
const uint8_t kZeros[kZeroChunkBytes] = {};

void
Cpu::procFault(uint32_t addr, int32_t proc)
{
    const proccache::ProcEntry &entry =
        procImage_->entries[static_cast<size_t>(proc)];
    ++stats_.exceptions;
    stats_.cycles +=
        config_.exceptionEntryPenalty + procConfig_.dispatchCycles;
    obs::Observer *obs = config_.observer;
    uint64_t obs_cycles0 = 0;
    if (obs) [[unlikely]] {
        obs->procFaultBegin(addr, stats_.cycles);
        obs_cycles0 = stats_.cycles;
    }

    // Allocate procedure-cache space: LRU eviction + compaction.
    proccache::AllocResult alloc =
        procMgr_->allocate(proc, entry.origBytes);
    for (int32_t victim : alloc.evicted) {
        const proccache::ProcEntry &ve =
            procImage_->entries[static_cast<size_t>(victim)];
        // The decompressed copy is gone: clear its backing bytes (so a
        // stale fetch fails loudly) and invalidate its I-cache lines.
        for (uint32_t off = 0; off < ve.origBytes;) {
            uint32_t chunk =
                std::min(kZeroChunkBytes, ve.origBytes - off);
            memory_.writeBlock(ve.vaBase + off, kZeros, chunk);
            off += chunk;
        }
        icache_.invalidateRange(ve.vaBase, ve.origBytes);
    }
    // Compaction copies resident procedures inside the cache: charge
    // read+write bursts per 64-byte chunk moved.
    if (alloc.bytesCompacted) {
        uint64_t chunks = (alloc.bytesCompacted + 63) / 64;
        stats_.cycles += chunks * 2 * memory_.timing().burstCycles(64);
    }

    // Run the LZRW1 runtime over the whole procedure.
    c0_[isa::C0Scratch0] = entry.streamAddr;
    c0_[isa::C0Scratch1] = entry.vaBase;
    c0_[isa::C0MapBase] = entry.origBytes;
    McKind fault = runHandler(addr, handlerRam_.entry());
    stats_.procDecompressedBytes += entry.origBytes;
    // As with serviceUserMiss: every exit reports one procFaultEnd, so
    // traced fault-begin spans always close and the
    // proc_fault_service_cycles histogram count == proc_faults.
    auto obs_fault_end = [&] {
        if (obs) [[unlikely]] {
            obs->procFaultEnd(addr, stats_.cycles,
                              stats_.cycles - obs_cycles0);
        }
    };
    if (stats_.cancelled) {
        obs_fault_end();
        return;
    }
    if (fault != McKind::None) {
        // Whole-procedure fills are not retried (the procedure cache is
        // the paper's comparison baseline, not the hardened mechanism):
        // halt with the diagnostic.
        ++stats_.machineChecks;
        if (obs) [[unlikely]] {
            obs->machineCheck(static_cast<uint8_t>(fault),
                              pendingFaultAddr_, stats_.cycles);
        }
        stats_.machineCheckHalt = true;
        stats_.faultKind = fault;
        stats_.faultAddr = pendingFaultAddr_;
        obs_fault_end();
        return;
    }

    // Coherence flush: the handler wrote code through the D-cache; the
    // I-side fetches from memory, so write the dirty lines back...
    dcache_.flushRange(
        entry.vaBase, entry.origBytes,
        [this](uint32_t line_addr, const uint8_t *data) {
            memory_.writeBlock(line_addr, data, config_.dcache.lineBytes);
            stats_.cycles +=
                memory_.timing().burstCycles(config_.dcache.lineBytes);
            ++stats_.writebacks;
        });
    // ...and invalidate I-cache lines over the written range: a line
    // straddling a procedure boundary may be validly cached for the
    // neighbouring procedure but stale for this one.
    icache_.invalidateRange(entry.vaBase, entry.origBytes);
    stats_.cycles += config_.exceptionReturnPenalty;
    obs_fault_end();

    // Verify the decompressed procedure against the linked image. This
    // is O(procedure bytes) of simulator self-checking on every fault,
    // so wall-clock benches switch it off (no effect on RunStats).
    if (config_.verifyDecompression) {
        for (uint32_t off = 0; off < entry.origBytes; off += 4) {
            uint32_t got = memory_.read32(entry.vaBase + off);
            uint32_t expect = image_.textWordAt(entry.vaBase + off);
            if (got != expect) {
                panic("lzrw1 runtime produced wrong word at 0x%08x: "
                      "0x%08x != 0x%08x", entry.vaBase + off, got,
                      expect);
            }
        }
    }
}

void
Cpu::serviceUserMiss()
{
    ++stats_.icacheMisses;
    if (profiling_ && curProc_ >= 0)
        ++procMisses_[curProc_];
    obs::Observer *obs = config_.observer;
    if (decompressorAttached_ && pc_ >= compressedLo_ &&
        pc_ < compressedHi_) {
        // Software-managed miss: flush the pipeline (swic requires a
        // non-speculative state) and run the decompressor. A machine
        // check during the fill (handler fault, unfilled line, CRC
        // mismatch) invalidates the unit and retries up to mcRetryLimit
        // times, then halts with the diagnostic.
        ++stats_.compressedMisses;
        uint64_t obs_cycles0 = 0;
        uint64_t obs_hinsns0 = 0;
        if (obs) [[unlikely]] {
            obs->missBegin(pc_, stats_.cycles, true);
            obs_cycles0 = stats_.cycles;
            obs_hinsns0 = stats_.handlerInsns;
        }
        unsigned attempt = 0;
        // Every exit from the retry loop — success, cancellation, or a
        // machine-check halt — reports one missEnd, keeping the
        // miss_service_cycles histogram count == compressedMisses and
        // every traced miss-begin paired with an end.
        auto obs_miss_end = [&] {
            if (obs) [[unlikely]] {
                obs->missEnd(pc_, stats_.cycles,
                             stats_.cycles - obs_cycles0,
                             stats_.handlerInsns - obs_hinsns0, attempt,
                             true);
            }
        };
        while (true) {
            ++stats_.exceptions;
            stats_.cycles += config_.exceptionEntryPenalty;
            McKind fault = runHandler(pc_, handlerRam_.entry(), true);
            stats_.cycles += config_.exceptionReturnPenalty;
            if (stats_.cancelled) {
                obs_miss_end();
                return;
            }
            uint32_t faddr =
                fault != McKind::None ? pendingFaultAddr_ : pc_;
            if (fault == McKind::None && !icache_.probe(pc_))
                fault = McKind::LineFillIncomplete;
            if (fault == McKind::None)
                fault = checkIntegrity(pc_);
            if (fault == McKind::None) {
                obs_miss_end();
                return;
            }
            ++stats_.machineChecks;
            if (obs) [[unlikely]] {
                obs->machineCheck(static_cast<uint8_t>(fault), faddr,
                                  stats_.cycles);
            }
            // Drop whatever the failed fill installed.
            uint32_t unit = integrityUnitBytes_
                                ? integrityUnitBytes_
                                : config_.icache.lineBytes;
            icache_.invalidateRange(pc_ & ~(unit - 1), unit);
            if (attempt++ < config_.mcRetryLimit) {
                ++stats_.integrityRetries;
                continue;
            }
            stats_.machineCheckHalt = true;
            stats_.faultKind = fault;
            stats_.faultAddr = faddr;
            obs_miss_end();
            return;
        }
    } else {
        // Hardware fill from main memory.
        ++stats_.nativeMisses;
        uint32_t line = icache_.lineAddr(pc_);
        uint64_t burst =
            memory_.timing().burstCycles(config_.icache.lineBytes);
        if (obs) [[unlikely]]
            obs->missBegin(pc_, stats_.cycles, false);
        stats_.cycles += burst;
        memory_.readBlock(line, lineBuf_.data(),
                          config_.icache.lineBytes);
        icache_.fillLine(line, lineBuf_.data());
        if (obs) [[unlikely]]
            obs->missEnd(pc_, stats_.cycles, burst, 0, 0, false);
    }
}

void
Cpu::serviceDMiss(uint32_t addr)
{
    uint32_t page = (addr - dmemLo_) >> dmemPageShift_;
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    ++stats_.dmemFaults;
    obs::Observer *obs = config_.observer;
    uint64_t obs_cycles0 = 0;
    if (obs) [[unlikely]] {
        obs->dmissBegin(addr, stats_.cycles);
        obs_cycles0 = stats_.cycles;
    }
    // Make room in the staging pool before materializing a new page.
    if (dmemStagingPages_ && dmemFifo_.size() >= dmemStagingPages_)
        evictDmemPage();

    // runHandler() resumes at c0[Epc] (== the faulting *data* address
    // here, which is what the handler needs in BadVa); the interrupted
    // user instruction's pc is unaffected by a data fault. The
    // load-use interlock state is restored too: Blocks precompute
    // in-block stalls before any instruction runs, so the Oracle must
    // charge the faulting load's consumer stall as if the fault
    // service never intervened, or RunStats diverge.
    uint32_t saved_pc = pc_;
    uint8_t saved_load_dest = lastLoadDest_;
    inDmemFault_ = true;
    dmemFaultLo_ = page_va;
    dmemFaultHi_ = page_va + dmemPageBytes_;
    unsigned attempt = 0;
    // As in serviceUserMiss(): every exit — success, cancellation, or a
    // machine-check halt — reports one dmissEnd, keeping the
    // dmiss_service_cycles histogram count == dmemFaults.
    while (true) {
        ++stats_.exceptions;
        stats_.cycles += config_.exceptionEntryPenalty;
        McKind fault = runHandler(addr, dmemEntry_);
        pc_ = saved_pc;
        stats_.cycles += config_.exceptionReturnPenalty;
        if (stats_.cancelled)
            break;
        // Coherence: the handler wrote the page through the D-cache;
        // push the bytes to backing memory, where the CRC check and any
        // later hardware refill of an evicted line read them.
        if (!config_.handlerDataUncached) {
            dcache_.flushRange(
                page_va, dmemPageBytes_,
                [this](uint32_t line_addr, const uint8_t *data) {
                    memory_.writeBlock(line_addr, data,
                                       config_.dcache.lineBytes);
                    stats_.cycles += memory_.timing().burstCycles(
                        config_.dcache.lineBytes);
                    ++stats_.writebacks;
                });
        }
        uint32_t faddr =
            fault != McKind::None ? pendingFaultAddr_ : addr;
        if (fault == McKind::None)
            fault = checkDmemPage(page);
        if (fault == McKind::None) {
            if (config_.verifyDecompression)
                verifyDmemPage(page);
            dmemState_[page] = kPageResident;
            dmemFifo_.push_back(page);
            stats_.dmemDecompressedBytes += dmemPageBytes_;
            break;
        }
        ++stats_.machineChecks;
        if (obs) [[unlikely]] {
            obs->machineCheck(static_cast<uint8_t>(fault), faddr,
                              stats_.cycles);
        }
        // Drop the failed materialization: invalidate the page's lines
        // and re-zero its backing bytes so a retry starts clean.
        dcache_.invalidateRange(page_va, dmemPageBytes_);
        for (uint32_t off = 0; off < dmemPageBytes_;) {
            uint32_t chunk =
                std::min(kZeroChunkBytes, dmemPageBytes_ - off);
            memory_.writeBlock(page_va + off, kZeros, chunk);
            off += chunk;
        }
        if (attempt++ < config_.mcRetryLimit) {
            ++stats_.integrityRetries;
            continue;
        }
        stats_.machineCheckHalt = true;
        stats_.faultKind = fault;
        stats_.faultAddr = faddr;
        break;
    }
    inDmemFault_ = false;
    dmemFaultLo_ = 0;
    dmemFaultHi_ = 0;
    lastLoadDest_ = saved_load_dest;
    if (obs) [[unlikely]] {
        obs->dmissEnd(addr, stats_.cycles, stats_.cycles - obs_cycles0);
    }
}

void
Cpu::evictDmemPage()
{
    if (dmemFifo_.empty())
        return;
    uint32_t page = dmemFifo_.front();
    dmemFifo_.erase(dmemFifo_.begin());
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    if (dmemState_[page] == kPageDirty) {
        // Written-to pages cannot be discarded: write the cached lines
        // back and keep the page uncompressed from here on (the image's
        // compressed copy is stale).
        dcache_.flushRange(
            page_va, dmemPageBytes_,
            [this](uint32_t line_addr, const uint8_t *data) {
                memory_.writeBlock(line_addr, data,
                                   config_.dcache.lineBytes);
                stats_.cycles += memory_.timing().burstCycles(
                    config_.dcache.lineBytes);
                ++stats_.writebacks;
            });
        dmemState_[page] = kPageSpilled;
        ++stats_.dmemSpills;
        return;
    }
    // Clean: discard the cached lines and re-zero the backing bytes so
    // a stale access faults (and re-decompresses) instead of silently
    // reading the old copy.
    dcache_.invalidateRange(page_va, dmemPageBytes_);
    for (uint32_t off = 0; off < dmemPageBytes_;) {
        uint32_t chunk = std::min(kZeroChunkBytes, dmemPageBytes_ - off);
        memory_.writeBlock(page_va + off, kZeros, chunk);
        off += chunk;
    }
    dmemState_[page] = kPageCompressed;
    ++stats_.dmemEvictions;
}

McKind
Cpu::checkDmemPage(uint32_t page)
{
    if (dmemCrcs_.empty())
        return McKind::None;
    if (page >= dmemCrcs_.size())
        return McKind::IntegrityFail;
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    Crc32 crc;
    for (uint32_t off = 0; off < dmemPageBytes_; off += 4)
        crc.updateWord(memory_.read32(page_va + off));
    return crc.value() == dmemCrcs_[page] ? McKind::None
                                          : McKind::IntegrityFail;
}

void
Cpu::verifyDmemPage(uint32_t page) const
{
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    for (uint32_t off = 0; off < dmemPageBytes_; ++off) {
        uint32_t va = page_va + off;
        size_t idx = va - image_.dataBase;
        uint8_t expect =
            idx < image_.data.size() ? image_.data[idx] : 0;
        uint8_t got = memory_.read8(va);
        if (got != expect) {
            panic("data handler produced wrong byte at 0x%08x: "
                  "0x%02x != 0x%02x", va, got, expect);
        }
    }
}

void
Cpu::markDmemDirty(uint32_t addr)
{
    uint32_t page = (addr - dmemLo_) >> dmemPageShift_;
    if (dmemState_[page] == kPageResident)
        dmemState_[page] = kPageDirty;
}

void
Cpu::accountInterlock(const isa::DecodedInst &d)
{
    if (lastLoadDest_ != 0) {
        for (unsigned i = 0; i < d.nsrc; ++i) {
            if (d.srcs[i] == lastLoadDest_) {
                ++stats_.cycles;
                ++stats_.loadUseStalls;
                break;
            }
        }
    }
    lastLoadDest_ = d.isLoad ? d.dest : 0;
}

void
Cpu::step()
{
    // Track the current procedure before the fetch so an I-miss is
    // attributed to the procedure being entered, not the one left.
    if (profiling_)
        noteUserPc(pc_);
    if ((pc_ & 3) != 0) [[unlikely]] {
        raiseMc(McKind::MisalignedFetch, pc_, false);
        return;
    }
    if (procMgr_) {
        ensureProcResident(pc_);
        if (stats_.machineCheckHalt || stats_.cancelled)
            return;
    }
    ++stats_.icacheAccesses;
    uint32_t word;
    if (!icache_.accessRead(pc_, word)) {
        serviceUserMiss();
        if (stats_.machineCheckHalt || stats_.cancelled)
            return;
        word = icache_.read32(pc_);
    }
    const isa::DecodedInst d = isa::predecode(word);
    if (!d.inst.valid()) {
        raiseMc(McKind::InvalidInst, pc_, false);
        return;
    }

    accountInterlock(d);

    ++stats_.cycles;
    ++stats_.userInsns;
    if (config_.traceInsns &&
        stats_.userInsns + stats_.handlerInsns <= config_.traceInsns) {
        std::fprintf(stderr, "U %08x: %s\n", pc_,
                     isa::disassemble(d.inst, pc_).c_str());
    }

    pc_ = execute(d, pc_, regs_.data(), false);
}

void
Cpu::runBlocks()
{
    if (!blockCache_) {
        blockCache_ =
            std::make_unique<isa::BlockCache>(config_.icache.lineBytes);
    }
    const uint32_t line_mask = config_.icache.lineBytes - 1;
    const uint32_t line_words = config_.icache.lineBytes / 4;
    while (true) {
        // One tag check validates the whole line-resident block:
        // residency (hit/miss exactly where the per-instruction path
        // would miss — a block never crosses a line boundary, and
        // nothing inside a block can touch the I-cache) and content
        // (the frame generation, bumped by every fill/swic/write/
        // invalidation, keyed against the block). Execution then reads
        // the validated frame's decoded mirror directly — blocks carry
        // accounting, not instruction copies. Profiling and the
        // procedure cache act once, at entry and in the Oracle's order:
        // no block spans two procedures (checkProcEnds()), so their
        // per-instruction calls inside a block would change nothing
        // but the count, credited after the block runs.
        if (profiling_) [[unlikely]]
            noteUserPc(pc_);
        if ((pc_ & 3) != 0) [[unlikely]] {
            raiseMc(McKind::MisalignedFetch, pc_, false);
            break;
        }
        if (procMgr_) [[unlikely]] {
            ensureProcResident(pc_);
            if (stats_.machineCheckHalt || stats_.cancelled)
                break;
        }
        cache::FetchLine line;
        if (!icache_.accessFetchLine(pc_, line)) {
            serviceUserMiss();
            if (stats_.machineCheckHalt || stats_.cancelled) {
                // The Oracle counts the halting fetch: a counted miss
                // is an access.
                ++stats_.icacheAccesses;
                break;
            }
            icache_.peekFetchLine(pc_, line);
        }
        uint32_t off_words = (pc_ & line_mask) / 4;
        const isa::DecodedInst *insts = line.decoded + off_words;
        isa::DecodedBlock &b = blockCache_->slot(pc_);
        if (!b.matches(pc_, line.gen)) {
            blockCache_->build(b, pc_, line.gen, insts,
                               line_words - off_words);
            if (config_.observer) [[unlikely]]
                config_.observer->blockBuilt(b.meta.len);
        }
        uint64_t k = b.meta.len;
        if (config_.maxUserInsns) {
            // Never run past the instruction budget: the per-block adds
            // must land on exactly the counts the per-instruction loop
            // stops at.
            uint64_t remaining = config_.maxUserInsns - stats_.userInsns;
            if (k > remaining)
                k = remaining;
        }
        uint64_t ran = executeBlock(b.meta, insts, k);
        if (profiling_ && curProc_ >= 0 && ran > 0) [[unlikely]]
            procExecInsns_[curProc_] += ran - 1;
        if (stats_.halted || stats_.machineCheckHalt || stats_.cancelled)
            break;
        if (config_.maxUserInsns &&
            stats_.userInsns >= config_.maxUserInsns) {
            stats_.timedOut = true;
            break;
        }
        if (cancelPoll())
            break;
    }
}

uint64_t
Cpu::executeBlock(const isa::BlockMeta &meta,
                  const isa::DecodedInst *insts, uint64_t k)
{
    if (meta.startsInvalid) {
        raiseMc(McKind::InvalidInst, pc_, false);
        return 0;
    }
    // Batched fetch accounting: the single dispatch lookup stood in for
    // k per-instruction fetches (each a hit — see runBlocks()).
    stats_.icacheAccesses += k;
    // The first instruction's interlock depends on state carried in
    // from before the block; the in-block stalls are precomputed.
    if (lastLoadDest_ != 0) {
        const isa::DecodedInst &d0 = insts[0];
        for (unsigned s = 0; s < d0.nsrc; ++s) {
            if (d0.srcs[s] == lastLoadDest_) {
                ++stats_.cycles;
                ++stats_.loadUseStalls;
                break;
            }
        }
    }
    uint64_t stalls = k == meta.len ? meta.internalStalls
                                    : stallsIn(meta, 0, k);
    stats_.cycles += k + stalls;
    stats_.loadUseStalls += stalls;
    stats_.userInsns += k;
    lastLoadDest_ = insts[k - 1].isLoad ? insts[k - 1].dest : 0;

    // Architectural effects, plus the paths that stay per-instruction:
    // D-cache traffic, predictor updates, control-flow penalties. The
    // ALU subset runs inline (identical semantics — execute() consults
    // the same helper first); only loads, stores, control transfers and
    // system ops pay the out-of-line interpreter call.
    uint32_t pc = pc_;
    uint32_t *regs = regs_.data();
    uint64_t ran = k;
    for (uint64_t i = 0; i < k; ++i) {
        const isa::DecodedInst &d = insts[i];
        if (executeAlu(d.inst, regs, hi_, lo_)) {
            pc += 4;
        } else {
            pc = executeSlow(d, pc, regs, false);
            if (stats_.machineCheckHalt) [[unlikely]] {
                // Stop at the faulting instruction, which counts, as
                // in the Oracle; take back the tail it never ran.
                ran = i + 1;
                uint64_t tail = unchargeTail(meta, ran, k);
                stats_.userInsns -= tail;
                stats_.icacheAccesses -= tail;
                break;
            }
        }
    }
    icache_.creditFetchHits(ran - 1);
    pc_ = pc;
    return ran;
}

uint64_t
Cpu::unchargeTail(const isa::BlockMeta &m, uint64_t ran, uint64_t k)
{
    uint64_t tail = k - ran;
    uint64_t stalls = stallsIn(m, ran, k);
    stats_.cycles -= tail + stalls;
    stats_.loadUseStalls -= stalls;
    return tail;
}

McKind
Cpu::runHandler(uint32_t addr, uint32_t entry, bool code_fill)
{
    RTDC_ASSERT(handlerRam_.loaded(), "miss exception with no handler");
    pendingFault_ = McKind::None;
    pendingFaultAddr_ = 0;
    c0_[isa::C0BadVa] = addr;
    c0_[isa::C0Epc] = addr;

    obs::Observer *obs = config_.observer;
    uint64_t obs_hinsns0 = 0;
    if (obs) [[unlikely]] {
        obs->handlerEnter(addr, stats_.cycles);
        obs_hinsns0 = stats_.handlerInsns;
    }

    uint32_t *regs =
        config_.secondRegFile ? shadowRegs_.data() : regs_.data();
    // The shadow file shares sp with the user file so that a non-RF
    // handler can spill to the user stack; the RF handlers never use sp.
    uint32_t hpc = entry;
    const uint64_t budget_end =
        config_.handlerInsnBudget
            ? stats_.handlerInsns + config_.handlerInsnBudget
            : 0;
    // Interlock state does not carry across the pipeline flush.
    lastLoadDest_ = 0;
    if (blocks_) {
        // Handler replay's fallback rules (DESIGN.md section 19): only
        // code-miss fills, never with an observer watching, on a
        // fault-injected image, or once a machine check has happened.
        if (code_fill && !traces_.empty() && !obs && !imageFaulted_ &&
            stats_.machineChecks == 0) {
            runCodeFill(addr, regs, budget_end);
        } else {
            runHandlerBlocks<false>(hpc, regs, budget_end);
        }
        lastLoadDest_ = 0;
        pc_ = c0_[isa::C0Epc];
        if (obs) [[unlikely]] {
            obs->handlerIret(stats_.cycles,
                             stats_.handlerInsns - obs_hinsns0);
        }
        return pendingFault_;
    }
    while (true) {
        // Corrupted tables can steer a computed handler jump out of the
        // RAM; machine-check it instead of tripping the fetch asserts.
        if ((hpc & 3) != 0 || !handlerRam_.contains(hpc)) [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            break;
        }
        const isa::DecodedInst d = isa::predecode(handlerRam_.fetch(hpc));
        RTDC_ASSERT(d.inst.valid(),
                    "invalid handler instruction at 0x%08x", hpc);

        accountInterlock(d);

        ++stats_.cycles;
        ++stats_.handlerInsns;
        if (config_.traceInsns &&
            stats_.userInsns + stats_.handlerInsns <=
                config_.traceInsns) {
            std::fprintf(stderr, "H %08x: %s\n", hpc,
                         isa::disassemble(d.inst, hpc).c_str());
        }

        if (d.inst.op == Op::Iret)
            break;
        hpc = execute(d, hpc, regs, true);
        if (pendingFault_ != McKind::None) [[unlikely]]
            break;
        if (budget_end && stats_.handlerInsns >= budget_end)
            [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            break;
        }
        if (cancelPoll()) [[unlikely]]
            break;
    }
    lastLoadDest_ = 0;
    // Resume at the missed instruction (c0[Epc]).
    pc_ = c0_[isa::C0Epc];
    if (obs) [[unlikely]] {
        obs->handlerIret(stats_.cycles,
                         stats_.handlerInsns - obs_hinsns0);
    }
    return pendingFault_;
}

template <bool kRecord>
uint32_t
Cpu::runHandlerBlocks(uint32_t hpc, uint32_t *regs, uint64_t budget_end)
{
    // Handler RAM is immutable after load(), so its blocks were scanned
    // once there and need no residency or generation checks: dispatch
    // is an array read plus one batched stats add per block. Recording
    // adds nothing to the ALU path: only the out-of-line ops (memory,
    // control, swic) and the per-block poll count are hooked.
    while (true) {
        if ((hpc & 3) != 0 || !handlerRam_.contains(hpc)) [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            return hpc;
        }
        if (budget_end && stats_.handlerInsns >= budget_end)
            [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            return hpc;
        }
        if constexpr (kRecord)
            ++rec_.polls;
        if (cancelPoll()) [[unlikely]]
            return hpc;
        const isa::DecodedInst *insts;
        const isa::BlockMeta &m = handlerRam_.blockAt(hpc, insts);
        RTDC_ASSERT(!m.startsInvalid,
                    "invalid handler instruction at 0x%08x", hpc);
        if (lastLoadDest_ != 0) {
            const isa::DecodedInst &d0 = insts[0];
            for (unsigned s = 0; s < d0.nsrc; ++s) {
                if (d0.srcs[s] == lastLoadDest_) {
                    ++stats_.cycles;
                    ++stats_.loadUseStalls;
                    break;
                }
            }
        }
        // Clamp at the budget, as executeBlock() clamps at maxUserInsns:
        // the next pass raises the runaway on the Oracle's instruction.
        uint64_t k = m.len;
        uint64_t stalls = m.internalStalls;
        if (budget_end && k > budget_end - stats_.handlerInsns)
            [[unlikely]] {
            k = budget_end - stats_.handlerInsns;
            stalls = stallsIn(m, 0, k);
        }
        stats_.cycles += k + stalls;
        stats_.loadUseStalls += stalls;
        stats_.handlerInsns += k;
        lastLoadDest_ = m.lastLoadDest;

        uint32_t pc = hpc;
        for (uint64_t i = 0; i < k; ++i) {
            const isa::DecodedInst &d = insts[i];
            // iret is counted (cycle + instruction + interlock) but not
            // executed, exactly as the per-instruction loop breaks.
            if (d.inst.op == Op::Iret)
                return pc;
            if (executeAlu(d.inst, regs, hi_, lo_)) {
                pc += 4;
            } else {
                pc = executeSlow<kRecord>(d, pc, regs, true);
                if (pendingFault_ != McKind::None) [[unlikely]] {
                    stats_.handlerInsns -= unchargeTail(m, i + 1, k);
                    return pc;
                }
            }
        }
        hpc = pc;
    }
}

void
Cpu::runCodeFill(uint32_t addr, uint32_t *regs, uint64_t budget_end)
{
    const size_t unit = (addr >> replayPlan_.unitShift) - replayUnitBase_;
    if (const uint32_t *t = traces_.find(unit)) {
        if (!replayFill(t, addr & ~(replayPlan_.unitBytes - 1), regs))
            runHandlerBlocks<false>(handlerRam_.entry(), regs, budget_end);
        return;
    }

    // First fill of this unit: execute while recording.
    Recording &r = rec_;
    r.taken.clear();
    r.branches = 0;
    r.metas.clear();
    r.addrs.clear();
    r.values.clear();
    r.swics.clear();
    r.redirects = 0;
    r.polls = 0;
    const uint64_t insns0 = stats_.handlerInsns;
    const uint64_t stalls0 = stats_.loadUseStalls;
    runHandlerBlocks<true>(handlerRam_.entry(), regs, budget_end);
    if (pendingFault_ != McKind::None || stats_.cancelled)
        return;
    // The analysis treats table words as immutable and the stack
    // window as private: keep the trace only when this run's absolute
    // loads all hit the compressed tables and its sp window missed them.
    if (replayPlan_.usesSp && !spWindowOk(regs[isa::Sp]))
        return;
    for (size_t k = 0; k < r.metas.size(); ++k) {
        if (r.metas[k] & kAccSpRel)
            continue;
        uint32_t lo = r.addrs[k];
        uint32_t hi = lo + (1u << (r.metas[k] & kAccLog2Size));
        bool inside = false;
        for (const auto &range : tableRanges_)
            inside |= lo >= range.first && hi <= range.second;
        if (!inside)
            return;
    }

    std::vector<uint32_t> &w = r.words;
    w.assign(kTrHeaderWords, 0);
    w[kTrInsns] = static_cast<uint32_t>(stats_.handlerInsns - insns0);
    w[kTrStalls] = static_cast<uint32_t>(stats_.loadUseStalls - stalls0);
    w[kTrRedirects] = r.redirects;
    w[kTrBranches] = r.branches;
    w[kTrAccesses] = static_cast<uint32_t>(r.metas.size());
    w[kTrStores] = static_cast<uint32_t>(r.values.size());
    // A fill that installs the unit's words in order, each equal to the
    // linked ground truth, stores no swic payload: replay regenerates
    // it from the image (checked here, word by word, once).
    const uint32_t nswic = static_cast<uint32_t>(r.swics.size() / 2);
    const uint32_t unit_base = addr & ~(replayPlan_.unitBytes - 1);
    bool truth = true;
    for (uint32_t k = 0; k < nswic && truth; ++k) {
        uint32_t a = r.swics[2 * k];
        truth = a == unit_base + 4 * k &&
                r.swics[2 * k + 1] == groundTruthWord(a);
    }
    w[kTrSwics] = nswic | (truth ? kSwicTruth : 0);
    w[kTrPolls] = r.polls;
    w.insert(w.end(), r.taken.begin(), r.taken.end());
    size_t meta_at = w.size();
    w.resize(meta_at + (r.metas.size() + 3) / 4, 0);
    std::memcpy(w.data() + meta_at, r.metas.data(), r.metas.size());
    w.insert(w.end(), r.addrs.begin(), r.addrs.end());
    w.insert(w.end(), r.values.begin(), r.values.end());
    if (!truth)
        w.insert(w.end(), r.swics.begin(), r.swics.end());
    for (uint8_t reg : replayPlan_.effectRegs)
        w.push_back(regs[reg]);
    traces_.commit(unit, w);
}

void
Cpu::recordAccess(uint32_t pc, uint32_t addr, uint32_t sp,
                  unsigned log2_bytes, bool store, uint32_t value)
{
    Recording &r = rec_;
    const size_t word = (pc - mem::HandlerRam::base) / 4;
    uint8_t meta =
        static_cast<uint8_t>(log2_bytes | (store ? kAccStore : 0));
    if (replayPlan_.memKind[word] == kMemSpRel) {
        meta |= kAccSpRel;
        addr -= sp;
    }
    r.addrs.push_back(addr);
    if (store) {
        uint8_t src = replayPlan_.storeSrc[word];
        if (src != 0)
            meta |= kAccEntryReg;
        r.values.push_back(src != 0 ? src : value);
    }
    r.metas.push_back(meta);
}

bool
Cpu::spWindowOk(uint32_t sp) const
{
    if ((sp & 3) != 0)
        return false;
    int64_t lo = static_cast<int64_t>(sp) + replayPlan_.spLo;
    int64_t hi = static_cast<int64_t>(sp) + replayPlan_.spHi;
    if (lo < 0 || hi > (int64_t{1} << 32))
        return false;
    auto overlaps = [&](uint64_t a, uint64_t b) {
        return lo < static_cast<int64_t>(b) && static_cast<int64_t>(a) < hi;
    };
    for (const auto &range : tableRanges_) {
        if (overlaps(range.first, range.second))
            return false;
    }
    return dmemSpan_ == 0 ||
           !overlaps(dmemLo_, uint64_t{dmemLo_} + dmemSpan_);
}

bool
Cpu::replayFill(const uint32_t *t, uint32_t unit_base, uint32_t *regs)
{
    // Fallbacks that depend on this fill: the handler budget would
    // expire inside it, its stack window moved onto the tables, or the
    // cancellation flag it would poll is already raised.
    const uint32_t insns = t[kTrInsns];
    if (config_.handlerInsnBudget && insns >= config_.handlerInsnBudget)
        return false;
    const uint32_t sp = regs[isa::Sp];
    if (replayPlan_.usesSp && !spWindowOk(sp))
        return false;
    if (config_.cancel) {
        // Execution polls once per block and reads the flag on every
        // 4096th poll (cancelPoll()); advance the same counter.
        if ((cancelTick_ & 0xFFFu) + t[kTrPolls] >= 0x1000u &&
            config_.cancel->load(std::memory_order_relaxed))
            return false;
        cancelTick_ += t[kTrPolls];
    }

    stats_.cycles += insns + t[kTrStalls] +
                     uint64_t{t[kTrRedirects]} * config_.redirectPenalty;
    stats_.handlerInsns += insns;
    stats_.loadUseStalls += t[kTrStalls];
    const uint32_t *p = t + kTrHeaderWords;

    // The predictor sees each branch pc, recovered by walking the
    // handler's static branch map with the recorded taken bits.
    const uint32_t nbr = t[kTrBranches];
    uint32_t b = handlerRam_.condBranchFrom(handlerRam_.entry());
    for (uint32_t k = 0; k < nbr; ++k) {
        RTDC_ASSERT(b != mem::HandlerRam::kNoBranch,
                    "replay walked off the handler branch map");
        bool taken = (p[k / 32] >> (k % 32)) & 1;
        stats_.cycles += condBranchCycles(
            predictor_.update(mem::HandlerRam::base + b * 4, taken), taken);
        b = handlerRam_.condBranchSucc(b)[taken];
    }
    p += (nbr + 31) / 32;

    // D-side accesses in order, through the same load/store paths (and
    // so the same D-cache, L2 and writeback state) as execution.
    const uint32_t nacc = t[kTrAccesses];
    const uint8_t *metas = reinterpret_cast<const uint8_t *>(p);
    p += (nacc + 3) / 4;
    const uint32_t *addrs = p;
    p += nacc;
    const uint32_t *values = p;
    p += t[kTrStores];
    for (uint32_t k = 0; k < nacc; ++k) {
        uint8_t meta = metas[k];
        uint32_t addr = (meta & kAccSpRel) ? sp + addrs[k] : addrs[k];
        unsigned bytes = 1u << (meta & kAccLog2Size);
        if (meta & kAccStore) {
            uint32_t value = *values++;
            storeData(addr, (meta & kAccEntryReg) ? regs[value] : value,
                      bytes, true);
        } else {
            loadData(addr, bytes, false, true);
        }
    }

    const uint32_t nswic = t[kTrSwics] & ~kSwicTruth;
    if (t[kTrSwics] & kSwicTruth) {
        for (uint32_t k = 0; k < nswic; ++k) {
            uint32_t a = unit_base + 4 * k;
            icache_.swicWrite(a, groundTruthWord(a));
        }
    } else {
        for (uint32_t k = 0; k < nswic; ++k, p += 2) {
            if (config_.verifyDecompression)
                verifySwic(p[0], p[1]);
            icache_.swicWrite(p[0], p[1]);
        }
    }
    for (uint8_t reg : replayPlan_.effectRegs)
        regs[reg] = *p++;
    ++replayedFills_;
    return true;
}

void
Cpu::accountControl(const isa::DecodedInst &d, uint32_t pc, bool taken)
{
    if (d.isCondBranch) {
        stats_.cycles +=
            condBranchCycles(predictor_.update(pc, taken), taken);
    } else {
        // Unconditional transfers redirect fetch at decode.
        stats_.cycles += config_.redirectPenalty;
    }
}

void
Cpu::dataMissFill(uint32_t addr, bool handler)
{
    if ((addr - dmemLo_) < dmemSpan_) [[unlikely]] {
        if (handler) {
            // The D-miss handler may only touch its active fault page;
            // anything else in the compressed data region (e.g. an
            // LZRW1 copy item running past the page end) is
            // machine-checked rather than silently materialized.
            if (addr < dmemFaultLo_ || addr >= dmemFaultHi_)
                raiseMc(McKind::DmemRange, addr, true);
        } else if (dmemState_[(addr - dmemLo_) >> dmemPageShift_] ==
                   kPageCompressed) {
            serviceDMiss(addr);
        }
        // Fall through and fill even after a fault: the callers read or
        // write the line unconditionally after a miss, and the fill is
        // deterministic (a failed page's backing bytes were zeroed).
    }
    ++stats_.dcacheMisses;
    uint32_t line = dcache_.lineAddr(addr);
    bool l2_hit = false;
    if (config_.l2.enabled) [[unlikely]] {
        l2_hit = l2_.access(line);
        if (l2_hit)
            ++stats_.l2Hits;
        else
            ++stats_.l2Misses;
    }
    if (l2_hit) {
        stats_.cycles += config_.l2.hitCycles;
    } else {
        stats_.cycles +=
            memory_.timing().burstCycles(config_.dcache.lineBytes);
        // An L2 miss that fills from the compressed data region pays
        // the hardware line decompressor on the memory→L2 path.
        if (config_.l2.enabled && (line - dmemLo_) < dmemSpan_)
            [[unlikely]]
            stats_.cycles += config_.l2.decompressCycles;
    }
    memory_.readBlock(line, lineBuf_.data(), config_.dcache.lineBytes);
    cache::Eviction ev =
        dcache_.fillLine(line, lineBuf_.data(), wbBuf_.data());
    if (ev.valid && ev.dirty) {
        ++stats_.writebacks;
        stats_.cycles +=
            memory_.timing().burstCycles(config_.dcache.lineBytes);
        memory_.writeBlock(ev.addr, wbBuf_.data(),
                           config_.dcache.lineBytes);
    }
}

void
Cpu::dataAccess(uint32_t addr, bool is_store, bool handler)
{
    if (handler && config_.handlerDataUncached) {
        // Ablation: decompressor tables bypass the D-cache; every access
        // pays one bus transaction.
        stats_.cycles += memory_.timing().burstCycles(
            memory_.timing().busBytes);
        return;
    }
    (void)is_store;
    ++stats_.dcacheAccesses;
    if (dcache_.access(addr))
        return;
    dataMissFill(addr, handler);
}

uint32_t
Cpu::loadData(uint32_t addr, unsigned bytes, bool sign_extend, bool handler)
{
    uint32_t raw;
    if (handler && config_.handlerDataUncached) {
        dataAccess(addr, false, handler);
        switch (bytes) {
          case 1: raw = memory_.read8(addr); break;
          case 2: raw = memory_.read16(addr); break;
          default: raw = memory_.read32(addr); break;
        }
    } else {
        // Hot path: one combined tag lookup covers the hit/miss decision
        // and the data read, where dataAccess() + readN() paid findWay()
        // twice. Statistics and LRU update are identical.
        ++stats_.dcacheAccesses;
        if (!dcache_.accessReadBytes(addr, bytes, raw)) {
            dataMissFill(addr, handler);
            switch (bytes) {
              case 1: raw = dcache_.read8(addr); break;
              case 2: raw = dcache_.read16(addr); break;
              default: raw = dcache_.read32(addr); break;
            }
        }
    }
    if (sign_extend && bytes < 4)
        return static_cast<uint32_t>(signExtend(raw, bytes * 8));
    return raw;
}

void
Cpu::storeData(uint32_t addr, uint32_t value, unsigned bytes, bool handler)
{
    if (handler && config_.handlerDataUncached) {
        dataAccess(addr, true, handler);
        switch (bytes) {
          case 1: memory_.write8(addr, static_cast<uint8_t>(value)); break;
          case 2:
            memory_.write16(addr, static_cast<uint16_t>(value));
            break;
          default: memory_.write32(addr, value); break;
        }
        return;
    }
    // Same combined-lookup structure as loadData's hot path.
    ++stats_.dcacheAccesses;
    if (!dcache_.accessWrite(addr, value, bytes)) {
        dataMissFill(addr, handler);
        switch (bytes) {
          case 1:
            dcache_.write8(addr, static_cast<uint8_t>(value));
            break;
          case 2:
            dcache_.write16(addr, static_cast<uint16_t>(value));
            break;
          default:
            dcache_.write32(addr, value);
            break;
        }
    }
    if (!handler && (addr - dmemLo_) < dmemSpan_) [[unlikely]]
        markDmemDirty(addr);
}

uint32_t
Cpu::groundTruthWord(uint32_t addr) const
{
    size_t idx = (addr - image_.decompBase) / 4;
    return idx < image_.decompText.size() ? image_.decompText[idx]
                                          : isa::nopWord();  // padding
}

void
Cpu::verifySwic(uint32_t addr, uint32_t word) const
{
    if (image_.decompText.empty())
        return;
    uint32_t base = image_.decompBase;
    if (addr < base || addr >= compressedHi_)
        panic("swic outside the compressed region: 0x%08x", addr);
    uint32_t expect = groundTruthWord(addr);
    if (word != expect) {
        panic("decompressor produced wrong word at 0x%08x: got 0x%08x "
              "(%s), expected 0x%08x (%s)", addr, word,
              isa::disassembleWord(word).c_str(), expect,
              isa::disassembleWord(expect).c_str());
    }
}

uint32_t
Cpu::execute(const isa::DecodedInst &d, uint32_t pc, uint32_t *regs,
             bool handler)
{
    if (executeAlu(d.inst, regs, hi_, lo_))
        return pc + 4;
    return executeSlow(d, pc, regs, handler);
}

template <bool kRecord>
uint32_t
Cpu::executeSlow(const isa::DecodedInst &d, uint32_t pc, uint32_t *regs,
                 bool handler)
{
    const Instruction &inst = d.inst;
    auto rs = [&] { return readReg(regs, inst.rs); };
    auto rt = [&] { return readReg(regs, inst.rt); };
    auto wr_rd = [&](uint32_t v) { writeReg(regs, inst.rd, v); };
    auto wr_rt = [&](uint32_t v) { writeReg(regs, inst.rt, v); };
    int32_t simm = static_cast<int16_t>(inst.imm);
    uint32_t next = pc + 4;

    auto branch = [&](bool taken) {
        if constexpr (kRecord) {
            if (rec_.branches % 32 == 0)
                rec_.taken.push_back(0);
            rec_.taken.back() |= static_cast<uint32_t>(taken)
                                 << (rec_.branches % 32);
            ++rec_.branches;
        }
        accountControl(d, pc, taken);
        if (taken)
            next = pc + 4 + (static_cast<uint32_t>(simm) << 2);
    };
    // Natural-alignment check for loads/stores: corrupted code (or a
    // handler fed corrupted tables) computes wild addresses; misaligned
    // ones become a machine check instead of tripping cache asserts.
    auto aligned = [&](uint32_t addr, unsigned bytes) {
        if ((addr & (bytes - 1)) != 0) [[unlikely]] {
            raiseMc(McKind::MisalignedData, addr, handler);
            return false;
        }
        return true;
    };
    // Replay recording: note the access before it runs (a faulting run
    // is discarded whole, so partial records never survive).
    auto note = [&](uint32_t addr, unsigned log2_bytes, bool store) {
        if constexpr (kRecord)
            recordAccess(pc, addr, regs[isa::Sp], log2_bytes, store, rt());
    };

    switch (inst.op) {
      case Op::J:
        if constexpr (kRecord)
            ++rec_.redirects;
        accountControl(d, pc, true);
        next = (pc & 0xf0000000u) | (inst.target << 2);
        break;
      case Op::Jal:
        if constexpr (kRecord)
            ++rec_.redirects;
        accountControl(d, pc, true);
        writeReg(regs, isa::Ra, pc + 4);
        next = (pc & 0xf0000000u) | (inst.target << 2);
        break;
      case Op::Jr:
        accountControl(d, pc, true);
        next = rs();
        break;
      case Op::Jalr:
        accountControl(d, pc, true);
        wr_rd(pc + 4);
        next = rs();
        break;

      case Op::Beq: branch(rs() == rt()); break;
      case Op::Bne: branch(rs() != rt()); break;
      case Op::Blez: branch(static_cast<int32_t>(rs()) <= 0); break;
      case Op::Bgtz: branch(static_cast<int32_t>(rs()) > 0); break;
      case Op::Bltz: branch(static_cast<int32_t>(rs()) < 0); break;
      case Op::Bgez: branch(static_cast<int32_t>(rs()) >= 0); break;

      case Op::Lb: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 0, false);
        wr_rt(loadData(addr, 1, true, handler));
        break;
      }
      case Op::Lbu: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 0, false);
        wr_rt(loadData(addr, 1, false, handler));
        break;
      }
      case Op::Lh: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 1, false);
        if (aligned(addr, 2))
            wr_rt(loadData(addr, 2, true, handler));
        break;
      }
      case Op::Lhu: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 1, false);
        if (aligned(addr, 2))
            wr_rt(loadData(addr, 2, false, handler));
        break;
      }
      case Op::Lw: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 2, false);
        if (aligned(addr, 4))
            wr_rt(loadData(addr, 4, false, handler));
        break;
      }
      case Op::Lwx: {
        uint32_t addr = rs() + rt();
        note(addr, 2, false);
        if (aligned(addr, 4))
            wr_rd(loadData(addr, 4, false, handler));
        break;
      }
      case Op::Sb: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 0, true);
        storeData(addr, rt(), 1, handler);
        break;
      }
      case Op::Sh: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 1, true);
        if (aligned(addr, 2))
            storeData(addr, rt(), 2, handler);
        break;
      }
      case Op::Sw: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        note(addr, 2, true);
        if (aligned(addr, 4))
            storeData(addr, rt(), 4, handler);
        break;
      }

      case Op::Swic: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        // Hardened output cursor: the install address must be word
        // aligned, and a decompression handler may only install lines
        // of the compressed region it services (a corrupted index
        // would otherwise overwrite unrelated cached code).
        if ((addr & 3) != 0 ||
            (handler && (!decompressorAttached_ ||
                         addr < compressedLo_ ||
                         addr >= compressedHi_))) [[unlikely]] {
            raiseMc(McKind::SwicRange, addr, handler);
            break;
        }
        if (handler && config_.verifyDecompression)
            verifySwic(addr, rt());
        if constexpr (kRecord) {
            rec_.swics.push_back(addr);
            rec_.swics.push_back(rt());
        }
        icache_.swicWrite(addr, rt());
        if (config_.observer) [[unlikely]]
            config_.observer->swicWrite(addr, stats_.cycles);
        break;
      }
      case Op::Mfc0:
        if (inst.rd >= isa::numC0Regs) [[unlikely]] {
            raiseMc(McKind::PrivilegedOp, pc, handler);
            break;
        }
        wr_rt(c0_[inst.rd]);
        break;
      case Op::Mtc0:
        if (inst.rd >= isa::numC0Regs) [[unlikely]] {
            raiseMc(McKind::PrivilegedOp, pc, handler);
            break;
        }
        c0_[inst.rd] = rt();
        // Recorded handler traces assumed the c0 inputs they read.
        if (!traces_.empty())
            traces_.clear();
        break;
      case Op::Iret:
        // Reached only from user context (the handler loops break on
        // iret before executing it): corrupted code, machine-check it.
        raiseMc(McKind::PrivilegedOp, pc, handler);
        break;

      case Op::Syscall:
      case Op::Break:
        break;  // no OS services are modeled
      case Op::Halt:
        stats_.halted = true;
        stats_.exitCode = simm;
        stats_.resultValue = readReg(regs, isa::V0);
        break;

      default:
        // The ALU subset was consumed by executeAlu() above; anything
        // else here is an invalid encoding reaching execution.
        panic("executing invalid instruction at 0x%08x", pc);
    }
    return next;
}

} // namespace rtd::cpu
