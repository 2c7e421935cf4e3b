/**
 * @file
 * Handler replay (DESIGN.md section 19): the static analysis that
 * proves a code-miss handler's effects are a function of the missed
 * fill unit alone, the per-Cpu store of the traces recorded on each
 * unit's first fill, and the frozen, read-only form of such a store
 * that other Cpus running the same compressed image start from.
 *
 * A decompression handler re-runs the same instructions every time it
 * fills the same unit: its control flow and every value it computes
 * depend only on the miss address and the immutable compressed tables,
 * and its stack traffic is sp-relative. Only the cache and predictor
 * outcomes differ between runs. analyzeHandler() proves this for a
 * concrete handler by abstract interpretation over its (immutable)
 * text; the Cpu then records one trace per unit while executing and
 * replays it on later fills through the real predictor, D-cache and
 * I-cache, skipping decode and execution entirely.
 */

#ifndef RTDC_CPU_HANDLER_REPLAY_H
#define RTDC_CPU_HANDLER_REPLAY_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mem/handler_ram.h"

namespace rtd::cpu {

/** How a handler memory instruction appears in a recorded trace. */
enum ReplayMemKind : uint8_t
{
    kMemNone = 0,  ///< not a load or store
    kMemAbs = 1,   ///< address is a function of the fill unit
    kMemSpRel = 2, ///< address is entry sp + the instruction's offset
};

/**
 * What analyzeHandler() proved about one handler entry. When @c ok,
 * for every reachable path from the entry:
 *  - branch conditions, jump targets, swic addresses and words, and
 *    absolute load addresses depend only on the fill unit containing
 *    c0[BadVa] (never on the word offset within it, never on an entry
 *    register value), and loaded table words are treated as immutable;
 *  - every load/store is absolute (loads only) or sp-relative to the
 *    entry sp, and every sp-relative load reads a slot stored earlier
 *    in the same run;
 *  - stores write either a unit-determined value or the entry value of
 *    one register;
 *  - no instruction reads or writes hi/lo or writes c0, and no jr/jalr
 *    or halt is reachable;
 *  - at iret, each register either holds its own entry value or a
 *    unit-determined value (the latter listed in @c effectRegs).
 */
struct ReplayPlan
{
    bool ok = false;
    uint32_t unitBytes = 0;  ///< fill unit: the trace key granularity
    uint8_t unitShift = 0;   ///< log2(unitBytes)
    /** Registers whose final value a trace records, ascending. */
    std::vector<uint8_t> effectRegs;
    bool usesSp = false;     ///< any sp-relative access
    int32_t spLo = 0;        ///< sp-relative byte window [spLo, spHi)
    int32_t spHi = 0;
    /** Per handler word: ReplayMemKind of the instruction there. */
    std::vector<uint8_t> memKind;
    /** Per handler word (stores only): 0 = record the stored value,
     *  r = the stored value is the entry value of register r. */
    std::vector<uint8_t> storeSrc;
};

/**
 * Analyze the handler at @p entry. Tries fill units from 256 bytes
 * down to 8 and keeps the largest one under which the proof holds, so
 * the key granularity is derived from the handler text rather than
 * assumed per scheme (the CodePack handler proves 64 B groups, the
 * line handlers prove the I-line).
 */
ReplayPlan analyzeHandler(const mem::HandlerRam &ram, uint32_t entry);

/** Fixed words at the start of every recorded trace. */
enum TraceHeader : uint32_t
{
    kTrInsns,     ///< handler instructions (iret included)
    kTrStalls,    ///< load-use stalls inside the handler
    kTrRedirects, ///< executed j/jal
    kTrBranches,  ///< conditional branches (taken bits that follow)
    kTrAccesses,  ///< D-side accesses
    kTrStores,    ///< of which stores (one value word each)
    kTrSwics,     ///< swic installs; | kSwicTruth, see below
    kTrPolls,     ///< block dispatches (cancellation poll points)
    kTrHeaderWords,
};

/** Bits of one access's metadata byte in a trace. */
enum TraceAccess : uint8_t
{
    kAccLog2Size = 3,  ///< mask: log2 of the access size
    kAccStore = 4,     ///< a store (else a load)
    kAccSpRel = 8,     ///< address is an offset from the entry sp
    kAccEntryReg = 16, ///< stored value is an entry register's value
};

/**
 * Flag in the kTrSwics word: the fill installed the unit's words in
 * order from its base, each equal to the linked image, so the trace
 * carries no swic payload (replay reads the words from the image).
 */
constexpr uint32_t kSwicTruth = 1u << 31;

/**
 * What a recorded trace depends on besides the fill unit: the handler
 * words, the c0 inputs the compressed image sets, the compressed
 * range and the fill unit's size. Two Cpus with equal fingerprints
 * running the same linked image record identical traces, whatever
 * their caches, memory timing or predictor.
 */
uint64_t traceFingerprint(std::span<const uint32_t> handler_words,
                          std::span<const uint32_t> c0, uint32_t lo,
                          uint32_t hi, uint8_t unit_shift);

/**
 * An immutable, exact-size copy of a trace store: a per-unit index
 * into one word array. Built by Cpu::freezeTraces at the end of a
 * clean run and shared read-only (through shared_ptr<const>) by the
 * later runs of the same compressed image, which start from it instead
 * of recording every unit again.
 */
class FrozenTraces
{
  public:
    FrozenTraces(uint64_t fingerprint, std::vector<uint32_t> index,
                 std::vector<uint32_t> words)
        : fingerprint_(fingerprint), index_(std::move(index)),
          words_(std::move(words))
    {
    }

    uint64_t fingerprint() const { return fingerprint_; }
    /** Host bytes held (index plus words). */
    size_t bytes() const { return (index_.size() + words_.size()) * 4; }

    /** Trace recorded for @p unit, or nullptr. */
    const uint32_t *
    find(size_t unit) const
    {
        uint32_t at = index_[unit];
        return at ? words_.data() + (at - 1) : nullptr;
    }

  private:
    uint64_t fingerprint_;
    std::vector<uint32_t> index_;  ///< word offset + 1, 0 = no trace
    std::vector<uint32_t> words_;
};

/**
 * Per-Cpu trace store: an arena of fixed-size chunks of 32-bit words
 * plus a direct-indexed table from fill unit to trace position. Traces
 * are appended, never freed and never split across chunks, so the
 * store grows without copying and allocates once per chunk, not per
 * trace. A store may start from a FrozenTraces base (seed()): find()
 * falls back to it for units this store has not recorded.
 *
 * Trace layout after the header: taken bits (32 per word), access
 * metadata bytes (TraceAccess, 4 per word), access addresses
 * (sp-relative: the signed offset), store values (or register numbers),
 * swic (address, word) pairs unless kSwicTruth, then one final value
 * per effect register.
 */
class TraceStore
{
  public:
    static constexpr uint32_t kChunkShift = 16;
    static constexpr uint32_t kChunkWords = 1u << kChunkShift;

    /** Size the index for @p units fill units; drops all traces. */
    void
    reset(size_t units)
    {
        index_.assign(units, 0);
        chunks_.clear();
        used_ = kChunkWords;
        recorded_ = 0;
        base_.reset();
        cleared_ = false;
    }

    bool empty() const { return index_.empty(); }

    /** Start from @p base (sized for this store's units). */
    void seed(std::shared_ptr<const FrozenTraces> base)
    {
        base_ = std::move(base);
    }

    /** Trace recorded for @p unit, or nullptr. */
    const uint32_t *
    find(size_t unit) const
    {
        uint32_t at = index_[unit];
        if (at == 0)
            return base_ ? base_->find(unit) : nullptr;
        --at;
        return chunks_[at >> kChunkShift].get() + (at & (kChunkWords - 1));
    }

    /** Append @p words and key them to @p unit; false (nothing kept)
     *  when the trace is larger than a chunk. */
    bool
    commit(size_t unit, const std::vector<uint32_t> &words)
    {
        if (words.size() > kChunkWords)
            return false;
        if (used_ + words.size() > kChunkWords) {
            chunks_.push_back(
                std::make_unique_for_overwrite<uint32_t[]>(kChunkWords));
            used_ = 0;
        }
        std::copy(words.begin(), words.end(),
                  chunks_.back().get() + used_);
        index_[unit] = static_cast<uint32_t>(
            ((chunks_.size() - 1) << kChunkShift) + used_ + 1);
        used_ += static_cast<uint32_t>(words.size());
        ++recorded_;
        return true;
    }

    /** Forget every trace, the base's too (keeps the index size). The
     *  store remembers it was cleared: its traces no longer describe
     *  the image alone, so it is never frozen. */
    void
    clear()
    {
        reset(index_.size());
        cleared_ = true;
    }

    bool cleared() const { return cleared_; }
    /** Traces find() can return (recorded here or in the base). */
    bool hasTraces() const { return recorded_ != 0 || base_; }

    /** Exact-size copy of every trace find() returns. */
    std::shared_ptr<const FrozenTraces> freeze(uint64_t fingerprint,
                                               size_t effect_regs) const;

  private:
    std::vector<uint32_t> index_;  ///< chunk << kChunkShift | offset, + 1
    std::vector<std::unique_ptr<uint32_t[]>> chunks_;
    uint32_t used_ = kChunkWords;  ///< words used in the last chunk
    size_t recorded_ = 0;          ///< traces committed here
    std::shared_ptr<const FrozenTraces> base_;
    bool cleared_ = false;
};

} // namespace rtd::cpu

#endif // RTDC_CPU_HANDLER_REPLAY_H
