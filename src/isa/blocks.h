/**
 * @file
 * Block-structured execution: straight-line runs of predecoded
 * instructions executed with per-block (not per-instruction) fetch
 * checks and statistics.
 *
 * A DecodedBlock is a run of DecodedInsts starting at some PC and
 * ending at the first control-transfer instruction (or halt/iret/swic,
 * which also end dispatch regions) or at an I-cache line boundary —
 * whichever comes first. Because a block never crosses a line boundary,
 * one I-cache tag check at dispatch validates every fetch in the block,
 * and because nothing inside a block can redirect the PC or mutate the
 * I-cache, its per-instruction bookkeeping (instruction counts, the
 * one-cycle base cost, load-use interlock stalls between in-block
 * neighbours) is statically known and applied as one batched add.
 *
 * Blocks are host-side memoization only: RunStats are byte-identical
 * on the Blocks and Oracle engines (tests/cpu/test_blocks.cc asserts
 * it). The cache-coherence story is generation-based: every I-cache
 * line frame carries a generation stamp bumped whenever its bytes can
 * change (fill, swic, write, invalidation, eviction — see
 * cache/cache.h), a block records the stamp it was built against, and
 * dispatch re-checks it under the same tag lookup that validates
 * residency. A stale block is simply rebuilt from the line's decoded
 * mirror.
 */

#ifndef RTDC_ISA_BLOCKS_H
#define RTDC_ISA_BLOCKS_H

#include <cstdint>
#include <vector>

#include "isa/predecode.h"

namespace rtd::isa {

/** Upper bound on instructions per block (covers 128-byte lines). */
constexpr uint32_t kMaxBlockWords = 32;

/**
 * True when @p d must be the last instruction of its block: anything
 * that can redirect the PC (branches, jumps, iret), end the run (halt),
 * or mutate the I-cache (swic — executing past one could run stale
 * copies of the very words it just replaced).
 */
bool endsBlock(const DecodedInst &d);

/**
 * Static per-block accounting, computed once at build time.
 *
 * stallMask bit i (i >= 1) is set when instruction i consumes the
 * destination of a load at instruction i-1 — the in-block load-use
 * stalls, whose count is internalStalls. Bit 0 is never set: the first
 * instruction's interlock depends on the state carried in from before
 * the block and is checked dynamically at dispatch.
 */
struct BlockMeta
{
    uint16_t len = 0;           ///< instructions in the block (>= 1)
    uint32_t stallMask = 0;     ///< in-block load-use stalls, bit-per-inst
    uint8_t internalStalls = 0; ///< popcount of stallMask
    uint8_t lastLoadDest = 0;   ///< interlock state after the last inst
    bool startsInvalid = false; ///< first word does not decode
};

/**
 * Scan up to @p max_words predecoded instructions at @p insts for one
 * block: length, terminator, and interlock accounting. An undecodable
 * word ends the block *before* itself (the per-instruction path faults
 * at its own fetch, so it must start a block of its own); when the
 * first word is the undecodable one the result is a one-instruction
 * block flagged startsInvalid.
 *
 * @p swic_ends controls whether swic terminates a block. It must for
 * blocks fetched from the I-cache (a swic can overwrite the very words
 * the block copied), but handler-RAM blocks execute immutable text that
 * no swic can touch, so the decompressors' store-heavy inner loops stay
 * whole with swic_ends = false.
 */
BlockMeta scanBlock(const DecodedInst *insts, uint32_t max_words,
                    bool swic_ends = true);

/**
 * A cached block: entry PC, the line generation it was built against,
 * and its static accounting. The block carries no instruction storage
 * of its own — execution reads the I-cache frame's decoded mirror
 * directly, which is safe exactly when the dispatch-time generation
 * check passes: the mirror's per-frame storage never moves, and any
 * rewrite of its contents (fill, swic, write, invalidation) bumps the
 * frame generation and so invalidates the block.
 */
struct DecodedBlock
{
    uint32_t pc = 0;
    uint64_t gen = 0;
    BlockMeta meta;
    bool valid = false;

    bool
    matches(uint32_t want_pc, uint64_t want_gen) const
    {
        return valid && pc == want_pc && gen == want_gen;
    }
};

/**
 * Direct-mapped block cache keyed by entry PC, validated by (PC, line
 * generation) at dispatch. Collisions and stale generations rebuild in
 * place; capacity misses only ever cost a re-scan, never correctness.
 */
class BlockCache
{
  public:
    /**
     * @param line_bytes   I-cache line size (bounds block length)
     * @param entries_log2 log2 of the slot count
     */
    explicit BlockCache(uint32_t line_bytes, unsigned entries_log2 = 13);

    DecodedBlock &
    slot(uint32_t pc)
    {
        return entries_[(pc >> 2) * 0x9e3779b1u >> shift_];
    }

    /**
     * (Re)build @p e for a block entered at @p pc whose line carries
     * generation @p gen: scan @p src (the line's decoded entries at pc,
     * @p words_left of them remaining before the line boundary).
     */
    void
    build(DecodedBlock &e, uint32_t pc, uint64_t gen,
          const DecodedInst *src, uint32_t words_left)
    {
        e.meta = scanBlock(src, words_left < wordsPerBlock_
                                    ? words_left
                                    : wordsPerBlock_);
        e.pc = pc;
        e.gen = gen;
        e.valid = true;
        ++builds_;
    }

    uint32_t wordsPerBlock() const { return wordsPerBlock_; }
    size_t numEntries() const { return entries_.size(); }

    /// @name Statistics (host-side diagnostics only)
    /// @{
    uint64_t builds() const { return builds_; }
    /// @}

  private:
    uint32_t wordsPerBlock_;
    unsigned shift_;
    std::vector<DecodedBlock> entries_;
    uint64_t builds_ = 0;
};

} // namespace rtd::isa

#endif // RTDC_ISA_BLOCKS_H
