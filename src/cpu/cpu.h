/**
 * @file
 * The processor model: a 1-wide, in-order, 5-stage scalar matching the
 * paper's Table 1 configuration, with the cache-miss-exception /
 * swic-based software decompression mechanism of section 4.
 *
 * Timing model (documented simplifications in DESIGN.md section 5):
 * every instruction costs one cycle, plus
 *  - a 1-cycle load-use interlock when an instruction consumes the
 *    result of the immediately preceding load,
 *  - a 1-cycle fetch-redirect bubble for every taken control transfer,
 *    replaced by the full misprediction penalty (3 cycles) when the
 *    bimodal predictor is wrong about a conditional branch,
 *  - full memory-system latency for cache misses: hardware line fills
 *    and dirty writebacks cost burst time on the 64-bit bus, and
 *    compressed-region I-misses run the software decompressor
 *    instruction by instruction (including its own D-cache traffic).
 *
 * The decompressor executes from the on-chip HandlerRam at one cycle per
 * fetch and, per the paper, is entered only from a non-speculative state:
 * exception entry charges a pipeline-flush penalty.
 */

#ifndef RTDC_CPU_CPU_H
#define RTDC_CPU_CPU_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "compress/compressed_image.h"
#include "dmem/data_region.h"
#include "cpu/handler_replay.h"
#include "cpu/predictor.h"
#include "isa/blocks.h"
#include "isa/isa.h"
#include "isa/predecode.h"
#include "mem/handler_ram.h"
#include "mem/main_memory.h"
#include "proccache/manager.h"
#include "proccache/proc_image.h"
#include "program/linker.h"
#include "runtime/handlers.h"

namespace rtd::obs {
class Observer;
}

namespace rtd::cpu {

/**
 * Machine-check causes (DESIGN.md section 12). A machine check is the
 * structured "this program's code image is corrupt" outcome: instead of
 * crashing the simulator, the Cpu stops (or retries the line fill, see
 * CpuConfig::mcRetryLimit) and reports the cause in RunStats.
 */
enum class McKind : uint8_t
{
    None,
    InvalidInst,        ///< fetched word does not decode
    MisalignedFetch,    ///< pc not word-aligned
    MisalignedData,     ///< load/store not naturally aligned
    PrivilegedOp,      ///< bad c0 index, or iret outside the handler
    SwicRange,          ///< swic outside the compressed region/misaligned
    HandlerRunaway,     ///< handler exceeded its instruction budget
    LineFillIncomplete, ///< handler returned without filling the line
    IntegrityFail,      ///< decompressed unit failed its CRC-32 check
    DmemRange,          ///< data access escaped the compressed data page
};

const char *mcKindName(McKind kind);

/**
 * How Cpu::run executes instructions (DESIGN.md section 11). RunStats
 * are identical on both (tests/cpu/test_blocks.cc and the
 * engine_parity_smoke ctest assert it), so the engine is not part of a
 * job's wire encoding.
 */
enum class Engine : uint8_t
{
    /** The reference: decode at every fetch, one instruction at a time,
     *  no handler replay, no decoded mirror. */
    Oracle,
    /** Straight-line blocks from the decoded I-cache mirror and handler
     *  RAM, plus handler replay (section 19). */
    Blocks,
};

const char *engineName(Engine engine);

/** Machine configuration (defaults = the paper's Table 1). */
struct CpuConfig
{
    cache::CacheConfig icache{16 * 1024, 32, 2};
    cache::CacheConfig dcache{8 * 1024, 16, 2};
    unsigned predictorEntries = 2048;
    unsigned mispredictPenalty = 3;     ///< wrong conditional direction
    unsigned redirectPenalty = 1;       ///< taken-control fetch bubble
    unsigned exceptionEntryPenalty = 3; ///< pipeline flush before handler
    unsigned exceptionReturnPenalty = 3;///< refill after iret
    bool secondRegFile = false;         ///< handler uses shadow registers
    bool handlerDataUncached = false;   ///< ablation: bypass D-cache
    Engine engine = Engine::Blocks;     ///< host-side only, see Engine
    /**
     * Verify every decompressed word against the linked ground truth
     * (each handler swic, plus a whole-procedure sweep after each
     * procedure-cache fault). Simulator self-checking with no effect on
     * RunStats; on by default, switched off by wall-clock benches.
     */
    bool verifyDecompression = true;
    mem::MemoryTiming memTiming{};
    uint64_t maxUserInsns = 0;          ///< safety stop; 0 = unlimited

    /// @name Fault tolerance (DESIGN.md section 12; all off by default)
    /// @{
    /**
     * On a machine check during a decompression line fill, invalidate
     * the affected lines and retry the fill up to this many times
     * before halting with a diagnostic (RunStats::machineCheckHalt).
     * Retries recover from transient faults; persistent image
     * corruption deterministically re-fails and halts.
     */
    unsigned mcRetryLimit = 0;
    /**
     * Handler instruction budget per exception; exceeding it raises a
     * HandlerRunaway machine check. Protects against corrupted decode
     * tables sending a bit-serial handler loop into an unbounded walk.
     * 0 = unlimited (trusted image).
     */
    uint64_t handlerInsnBudget = 0;
    /**
     * Cooperative cancellation: when non-null and set, run() stops at
     * the next poll point with RunStats::cancelled. Lets a sweep
     * harness watchdog stop a wedged job without killing the process.
     */
    const std::atomic<bool> *cancel = nullptr;
    /// @}

    /**
     * Observability sink (src/obs/): when non-null the Cpu reports
     * miss-service spans, handler invocations, swic installs, machine
     * checks and block builds to it. Default null = zero overhead: every
     * hook site is one never-taken branch, and no hook mutates simulator
     * state, so RunStats are byte-identical either way (tests/obs/
     * asserts it). Normally set by core::System from
     * SystemConfig::observe, not by hand.
     */
    obs::Observer *observer = nullptr;
};

/** Everything a run produces. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t userInsns = 0;     ///< committed program instructions
    uint64_t handlerInsns = 0;  ///< decompressor instructions executed

    uint64_t icacheAccesses = 0;  ///< user fetches only
    uint64_t icacheMisses = 0;    ///< user fetch misses (non-speculative)
    uint64_t compressedMisses = 0;///< misses serviced by the decompressor
    uint64_t nativeMisses = 0;    ///< misses serviced by the hardware

    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t writebacks = 0;

    uint64_t branchLookups = 0;
    uint64_t branchMispredicts = 0;
    uint64_t loadUseStalls = 0;
    uint64_t exceptions = 0;

    /// @name Procedure-cache (Kirovski baseline) counters
    /// @{
    uint64_t procFaults = 0;       ///< whole-procedure decompressions
    uint64_t procEvictions = 0;
    uint64_t procCompactedBytes = 0;
    uint64_t procDecompressedBytes = 0;
    /// @}

    /// @name Compressed data region (DESIGN.md section 18)
    /// @{
    uint64_t dmemFaults = 0;    ///< D-miss page decompressions
    uint64_t dmemEvictions = 0; ///< clean staged pages re-compressed
    uint64_t dmemSpills = 0;    ///< dirty pages written back uncompressed
    uint64_t dmemDecompressedBytes = 0;
    /// @}

    /// @name Fault detection and recovery (DESIGN.md section 12)
    /// @{
    uint64_t machineChecks = 0;    ///< detected corruption events
    uint64_t integrityRetries = 0; ///< line fills retried after a check
    bool machineCheckHalt = false; ///< stopped by an unrecovered check
    bool cancelled = false;        ///< stopped by CpuConfig::cancel
    McKind faultKind = McKind::None; ///< cause of machineCheckHalt
    uint32_t faultAddr = 0;        ///< faulting address (pc or data)
    /// @}

    bool halted = false;     ///< program executed halt
    bool timedOut = false;   ///< stopped by maxUserInsns
    int32_t exitCode = 0;    ///< halt immediate
    uint32_t resultValue = 0;///< v0 at halt (program checksum in tests)

    double icacheMissRatio() const;
    double dcacheMissRatio() const;
    double cpi() const;
};

/** The simulated processor. */
class Cpu
{
  public:
    Cpu(const CpuConfig &config, mem::MainMemory &memory,
        const prog::LoadedImage &image);

    /**
     * Attach a software decompressor: the handler is loaded into the
     * on-chip RAM, the c0 registers are initialized from the compressed
     * image, and I-misses inside [decomp_base, decomp_base +
     * region_bytes) raise the decompression exception.
     *
     * @param cimage       compressed image (c0 register values; the
     *                     segments themselves must already be in memory)
     * @param handler      assembled exception handler
     * @param region_bytes size of the compressed region including any
     *                     group padding
     * @param faulted      @p cimage carries injected faults
     *                     (src/fault/); such runs never replay handlers
     */
    void attachDecompressor(const compress::CompressedImage &cimage,
                            const runtime::HandlerBuild &handler,
                            uint32_t region_bytes, bool faulted = false);

    /**
     * Attach the procedure-based decompression baseline (Kirovski et
     * al.): the LZRW1 runtime is loaded into the handler RAM and whole
     * procedures are decompressed into a software-managed procedure
     * cache on first use. Mutually exclusive with attachDecompressor().
     *
     * @param pimage  per-procedure compressed image (segments must
     *                already be in memory)
     * @param handler the LZRW1 runtime (buildLzrw1Handler())
     * @param config  procedure-cache capacity and dispatch cost
     * Panics when a procedure falls through (checkProcEnds()).
     */
    void attachProcDecompressor(
        const proccache::ProcCompressedImage &pimage,
        const runtime::HandlerBuild &handler,
        const proccache::ProcCacheConfig &config);

    /**
     * Attach the data-side decompressor (src/dmem/): D-cache misses
     * into a still-compressed page of @p region raise a data fault and
     * run the D-miss handler, which materializes the page into the
     * uncompressed data region. Composes with attachDecompressor()
     * ("both" mode): @p handler is the combined handler image for the
     * on-chip RAM — loaded here only when no code decompressor already
     * loaded it — and @p entry_offset is the data handler's byte offset
     * inside it.
     *
     * @param region        compressed data region (segments must
     *                      already be in memory)
     * @param handler       combined handler image
     * @param entry_offset  data handler entry offset within the RAM
     * @param staging_pages cap on concurrently resident pages
     *                      (0 = unlimited); when full, the oldest
     *                      resident page is evicted — discarded if
     *                      clean, written back uncompressed if dirty
     */
    void attachDataDecompressor(const dmem::DataRegion &region,
                                const runtime::HandlerBuild &handler,
                                uint32_t entry_offset,
                                uint32_t staging_pages);

    /**
     * Enable per-procedure profiling: dynamic instruction and
     * non-speculative I-miss counts per LinkedProc (indexed as in
     * image.procs). Panics when a procedure falls through (checkProcEnds()).
     */
    void enableProfiling();

    /** Run until halt (or maxUserInsns). */
    RunStats run();

    /// @name Post-run inspection
    /// @{
    const cache::Cache &icache() const { return icache_; }
    const cache::Cache &dcache() const { return dcache_; }
    const BimodalPredictor &predictor() const { return predictor_; }
    const std::vector<uint64_t> &procExecInsns() const
    {
        return procExecInsns_;
    }
    const std::vector<uint64_t> &procMisses() const { return procMisses_; }
    /** Inter-procedure transition counts (linked-index keyed). */
    const std::unordered_map<uint64_t, uint64_t> &procTransitions() const
    {
        return procTransitions_;
    }
    uint32_t reg(unsigned r) const { return regs_[r]; }
    uint32_t shadowReg(unsigned r) const { return shadowRegs_[r]; }
    /** Procedure-cache manager (nullptr unless attached). */
    const proccache::ProcCacheManager *procCache() const
    {
        return procMgr_.get();
    }
    /// @}

    /** Block cache (nullptr until the first block-mode run()). */
    const isa::BlockCache *blockCache() const { return blockCache_.get(); }

    /**
     * Code-miss fills serviced by handler replay instead of execution
     * (DESIGN.md section 19). Host-side only: kept out of RunStats so
     * result bytes never depend on it.
     */
    uint64_t replayedFills() const { return replayedFills_; }

    /**
     * Start this Cpu's trace store from @p base, the traces a finished
     * run of the same compressed image recorded (DESIGN.md section 19).
     * Call after attachDecompressor() and before run(). Ignored
     * (returns false) when this Cpu has no replayable handler or @p base
     * was recorded under another fingerprint (handler words, c0 inputs,
     * compressed range, fill unit), so a wrong base only loses sharing.
     */
    bool seedTraces(std::shared_ptr<const FrozenTraces> base);

    /**
     * An exact-size, read-only copy of every trace this run can replay
     * (its own and its base's), for later runs of the same image to
     * seed from. Null unless the run was on Blocks with no fault plan
     * and no observer, ended with no machine check and uncancelled,
     * never cleared its store (mtc0, a store into the compressed
     * tables), and holds at least one trace.
     */
    std::shared_ptr<const FrozenTraces> freezeTraces() const;

  private:
    /** Oracle: execute one user instruction (fetch, servicing any miss,
     *  decode, execute, retire). */
    void step();
    /**
     * Blocks main loop: per block, one I-cache tag check validates
     * residency and generation for the whole line-resident block,
     * servicing a miss and/or rebuilding the block when needed, then
     * executes it from the frame's decoded mirror. Profiling and the
     * procedure cache hook in once per block, at entry: no block spans
     * two procedures (checkProcEnds()).
     */
    void runBlocks();
    /**
     * Execute the first @p k instructions of the block described by
     * @p meta at @p insts (k < len only when maxUserInsns expires
     * mid-block): batched fetch/cycle/instruction accounting, then
     * per-instruction execution for the architectural effects and the
     * per-instruction timing paths (D-cache, predictor, memory).
     * @return instructions run: @p k, fewer when one machine-checks
     *         (it counts; the un-run tail is taken back), 0 when the
     *         first word does not decode.
     */
    uint64_t executeBlock(const isa::BlockMeta &meta,
                          const isa::DecodedInst *insts, uint64_t k);
    /** Take back the cycles and stalls charged up front for
     *  instructions [@p ran, @p k) of block @p m, which a machine check
     *  kept from running. @return the tail's length. */
    uint64_t unchargeTail(const isa::BlockMeta &m, uint64_t ran,
                          uint64_t k);
    /**
     * runHandler()'s dispatch loop over the handler RAM's blocks. A
     * block is clamped at @p budget_end and un-charged past a machine
     * check, so both stop on the Oracle's instruction.
     * @param budget_end handlerInsns bound (0 = unlimited).
     * @tparam kRecord also record a replay trace into rec_ (DESIGN.md
     *                 section 19).
     */
    template <bool kRecord>
    uint32_t runHandlerBlocks(uint32_t hpc, uint32_t *regs,
                              uint64_t budget_end);
    /** Service a code-miss fill at @p addr by replay, recording its
     *  trace first when the unit has none (DESIGN.md section 19). */
    void runCodeFill(uint32_t addr, uint32_t *regs, uint64_t budget_end);
    /** Replay trace @p t of the unit at @p unit_base on @p regs; false
     *  (nothing applied) when a fallback rule says this fill must
     *  execute. */
    bool replayFill(const uint32_t *t, uint32_t unit_base, uint32_t *regs);
    /** Record one D-side access of the handler word at @p pc. */
    void recordAccess(uint32_t pc, uint32_t addr, uint32_t sp,
                      unsigned log2_bytes, bool store, uint32_t value);
    /** True when the sp-relative window at @p sp touches neither the
     *  handler tables nor the compressed data region. */
    bool spWindowOk(uint32_t sp) const;
    /** Service a user I-miss at pc_ (decompressor or hardware fill). */
    void serviceUserMiss();
    /**
     * Run the decompression exception handler at @p entry for a miss at
     * @p addr (the code handler entry for I-misses, dmemEntry_ for data
     * faults). @p code_fill marks a code-miss fill, the only kind
     * handler replay may service.
     * @return the first machine check the handler raised (None = clean).
     */
    McKind runHandler(uint32_t addr, uint32_t entry,
                      bool code_fill = false);
    /**
     * Service a D-cache miss that landed in a still-compressed data
     * page: raise the data fault, run the D-miss handler to materialize
     * the page, CRC-check the result, and mark the page resident —
     * retrying per mcRetryLimit on a machine check (DESIGN.md
     * section 18). Engine-independent: reached only through
     * dataMissFill(), the single D-miss choke point of both
     * execution engines.
     */
    void serviceDMiss(uint32_t addr);
    /** Evict the oldest resident page when the staging cap is reached:
     *  clean pages are discarded (re-faulted on next touch), dirty pages
     *  are written back and stay uncompressed from then on. */
    void evictDmemPage();
    /** CRC-32 of the materialized page vs the region's table. */
    McKind checkDmemPage(uint32_t page);
    /** Verify a materialized page against the linked data image. */
    void verifyDmemPage(uint32_t page) const;
    /** Store hook: a user store into a resident page marks it dirty. */
    void markDmemDirty(uint32_t addr);
    /**
     * Procedure-cache path: ensure the procedure containing @p pc is
     * resident, running the whole-procedure fault flow when not.
     */
    void ensureProcResident(uint32_t pc);
    /** Whole-procedure decompression fault (Kirovski baseline). */
    void procFault(uint32_t addr, int32_t proc);
    /**
     * Execute one instruction on register file @p regs.
     * @param d        predecoded instruction
     * @param pc       its address
     * @param regs     active register file
     * @param handler  true when executing decompressor code
     * @return the next PC
     */
    uint32_t execute(const isa::DecodedInst &d, uint32_t pc,
                     uint32_t *regs, bool handler);
    /** execute() for the non-ALU ops (memory, control, system): the
     *  slow half behind the inlined ALU dispatch of the block loops.
     *  @tparam kRecord also record the op into rec_ (handler replay). */
    template <bool kRecord = false>
    uint32_t executeSlow(const isa::DecodedInst &d, uint32_t pc,
                         uint32_t *regs, bool handler);
    /** Timing + data for one D-cache access of @p bytes at @p addr. */
    void dataAccess(uint32_t addr, bool is_store, bool handler);
    /**
     * D-cache miss service: fill from memory, write back a dirty
     * victim. The single D-miss choke point of both execution
     * engines: a user miss into a still-compressed data page runs
     * serviceDMiss() first, a handler miss outside its active fault
     * page machine-checks.
     */
    void dataMissFill(uint32_t addr, bool handler);
    /** Memory read/write helpers routed through the D-cache. */
    uint32_t loadData(uint32_t addr, unsigned bytes, bool sign_extend,
                      bool handler);
    void storeData(uint32_t addr, uint32_t value, unsigned bytes,
                   bool handler);
    /** A user store of @p bytes at @p addr landed in the compressed
     *  tables' span: drop every trace if it hit a table segment. */
    void tableStore(uint32_t addr, unsigned bytes);
    /** Apply control-flow timing for a resolved branch/jump. */
    void accountControl(const isa::DecodedInst &d, uint32_t pc,
                        bool taken);
    /**
     * Cycles a resolved conditional branch adds: the mispredict penalty,
     * else the redirect bubble when taken. Arithmetic rather than a
     * branch: the direction is data-dependent (the handlers test
     * compressed bits), so a host branch on it would mispredict.
     */
    uint64_t
    condBranchCycles(bool correct, bool taken) const
    {
        uint64_t mispredict = config_.mispredictPenalty;
        uint64_t redirect = taken ? config_.redirectPenalty : 0;
        return mispredict + correct * (redirect - mispredict);
    }
    /** Load-use interlock accounting + producer tracking for @p d. */
    void accountInterlock(const isa::DecodedInst &d);
    /** Verify a handler swic against the linked ground truth. */
    void verifySwic(uint32_t addr, uint32_t word) const;
    /** The linked word at @p addr of the compressed region (a nop in
     *  the group padding past the text). */
    uint32_t groundTruthWord(uint32_t addr) const;
    /** Track current procedure for profiling. */
    void noteUserPc(uint32_t pc);
    /**
     * Assert that every procedure's last word ends a block, so a block
     * never spans two procedures and the per-block profiling and
     * procedure-cache hooks see what per-instruction ones would.
     */
    void checkProcEnds() const;
    /**
     * Raise a machine check. In handler context the fault is latched
     * (first one wins) and surfaced by runHandler(); in user context it
     * halts the run immediately with a diagnostic RunStats.
     */
    void raiseMc(McKind kind, uint32_t addr, bool handler);
    /**
     * CRC-32 check of the decompressed integrity unit containing
     * @p addr against the attached image's unitCrcs (None when the
     * image carries no integrity metadata). Models the hardened
     * handler's epilogue check at zero simulated cost (the cost
     * question belongs to the compression-ratio/CPI trade-off study,
     * not the fault model; see DESIGN.md section 12).
     */
    McKind checkIntegrity(uint32_t addr);
    /** Poll CpuConfig::cancel (rate-limited); true = stop the run. */
    bool cancelPoll();

    uint32_t readReg(const uint32_t *regs, unsigned r) const
    {
        return r == 0 ? 0 : regs[r];
    }
    static void
    writeReg(uint32_t *regs, unsigned r, uint32_t value)
    {
        if (r != 0)
            regs[r] = value;
    }

    CpuConfig config_;
    mem::MainMemory &memory_;
    const prog::LoadedImage &image_;

    cache::Cache icache_;
    cache::Cache dcache_;
    BimodalPredictor predictor_;
    mem::HandlerRam handlerRam_;

    std::array<uint32_t, isa::numRegs> regs_{};
    std::array<uint32_t, isa::numRegs> shadowRegs_{};
    uint32_t hi_ = 0;
    uint32_t lo_ = 0;
    std::array<uint32_t, isa::numC0Regs> c0_{};
    uint32_t pc_ = 0;

    bool decompressorAttached_ = false;
    uint32_t compressedLo_ = 0;
    uint32_t compressedHi_ = 0;

    // Compressed data region state (src/dmem/). dmemSpan_ == 0 when no
    // data decompressor is attached, which turns every hot-path hook
    // into a single never-taken unsigned compare.
    const dmem::DataRegion *dregion_ = nullptr;
    uint32_t dmemLo_ = 0;
    uint32_t dmemSpan_ = 0;
    uint32_t dmemPageBytes_ = 0;
    uint8_t dmemPageShift_ = 0;
    uint32_t dmemEntry_ = 0;        ///< D-miss handler entry VA
    uint32_t dmemStagingPages_ = 0; ///< resident cap; 0 = unlimited
    /** Per-page state. */
    enum : uint8_t
    {
        kPageCompressed = 0, ///< absent; next D-miss faults
        kPageResident = 1,   ///< materialized, clean
        kPageDirty = 2,      ///< materialized, stored into
        kPageSpilled = 3,    ///< written back; uncompressed for good
    };
    std::vector<uint8_t> dmemState_;
    std::vector<uint32_t> dmemFifo_; ///< resident pages, oldest first
    std::vector<uint32_t> dmemCrcs_; ///< from DataRegion::pageCrcs
    bool inDmemFault_ = false;       ///< a data fault is being serviced
    uint32_t dmemFaultLo_ = 0;       ///< active fault page bounds
    uint32_t dmemFaultHi_ = 0;

    // Machine-check state: a fault raised inside the handler is latched
    // here and handled at the servicing boundary (retry or halt).
    McKind pendingFault_ = McKind::None;
    uint32_t pendingFaultAddr_ = 0;
    uint64_t cancelTick_ = 0;  ///< rate limiter for cancelPoll()
    // Integrity metadata copied from the attached compressed image.
    uint32_t integrityUnitBytes_ = 0;
    std::vector<uint32_t> unitCrcs_;

    // Procedure-cache (Kirovski baseline) state.
    const proccache::ProcCompressedImage *procImage_ = nullptr;
    std::unique_ptr<proccache::ProcCacheManager> procMgr_;
    proccache::ProcCacheConfig procConfig_;
    uint32_t procCurLo_ = 1;  ///< empty range forces first lookup
    uint32_t procCurHi_ = 0;

    // Load-use interlock state: destination of the previous instruction
    // when it was a load, else 0 (r0 never stalls).
    uint8_t lastLoadDest_ = 0;

    bool profiling_ = false;
    std::vector<uint64_t> procExecInsns_;
    std::vector<uint64_t> procMisses_;
    std::unordered_map<uint64_t, uint64_t> procTransitions_;
    int32_t curProc_ = -1;
    uint32_t curProcLo_ = 1;  ///< empty range forces first lookup
    uint32_t curProcHi_ = 0;

    RunStats stats_;
    std::vector<uint8_t> lineBuf_;  ///< scratch for fills/writebacks
    std::vector<uint8_t> wbBuf_;
    /** User-side block cache (created lazily by runBlocks()). */
    std::unique_ptr<isa::BlockCache> blockCache_;
    /** This run is on Blocks, handlers included (set by run()). */
    bool blocks_ = false;

    // Handler replay (DESIGN.md section 19). traces_ stays empty (and
    // replay off) unless the attached code handler's plan proved out.
    ReplayPlan replayPlan_;
    TraceStore traces_;
    uint32_t replayUnitBase_ = 0;   ///< compressedLo_ >> unitShift
    bool imageFaulted_ = false;     ///< fault plans: never replay
    /** Compressed-table segments, [base, end): absolute handler loads
     *  must fall inside, sp-relative windows outside. */
    std::vector<std::pair<uint32_t, uint32_t>> tableRanges_;
    /** Span covering every table segment, for one-compare store checks
     *  (tablesSpan_ == 0: no tables). */
    uint32_t tablesLo_ = 0;
    uint32_t tablesSpan_ = 0;
    /** traceFingerprint() of this Cpu's handler and image inputs. */
    uint64_t traceFingerprint_ = 0;
    uint64_t replayedFills_ = 0;
    /** Scratch for the trace being recorded (capacity reused). */
    struct Recording
    {
        std::vector<uint32_t> taken;   ///< branch outcome bits
        uint32_t branches = 0;
        std::vector<uint8_t> metas;    ///< per access, see TraceStore
        std::vector<uint32_t> addrs;
        std::vector<uint32_t> values;  ///< per store
        std::vector<uint32_t> swics;   ///< (address, word) pairs
        uint32_t redirects = 0;
        uint32_t polls = 0;
        std::vector<uint32_t> words;   ///< the assembled trace
    } rec_;
};

} // namespace rtd::cpu

#endif // RTDC_CPU_CPU_H
