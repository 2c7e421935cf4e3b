/**
 * @file
 * The on-chip exception-handler RAM.
 *
 * Paper section 4.1: "our simulations put the exception handler in its own
 * small on-chip RAM accessed in parallel with the instruction cache", so
 * the decompressor can never replace itself and never misses. Fetches
 * from this RAM cost one cycle.
 */

#ifndef RTDC_MEM_HANDLER_RAM_H
#define RTDC_MEM_HANDLER_RAM_H

#include <array>
#include <cstdint>
#include <vector>

#include "isa/blocks.h"
#include "isa/predecode.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::mem {

/** Small instruction RAM holding the decompression exception handler. */
class HandlerRam
{
  public:
    /** Base VA of the handler RAM (top of the address space). */
    static constexpr uint32_t base = 0xfff00000;

    HandlerRam() = default;

    /**
     * Load the handler program (replaces any previous contents). The
     * whole handler is predecoded here, once: the RAM is immutable
     * until the next load(), so Blocks never touch a decoder here.
     */
    void load(const std::vector<uint32_t> &code);

    /** True when @p addr falls inside the loaded handler. Header-inline:
     *  the fetch-path asserts consult it per simulated instruction. */
    bool
    contains(uint32_t addr) const
    {
        return addr >= base && addr < base + sizeBytes();
    }

    // fetch() runs once per simulated handler instruction on the Oracle
    // (tens of millions of calls per run), so it stays in the header.

    /** Fetch the instruction word at @p addr (must be inside). */
    uint32_t
    fetch(uint32_t addr) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        return code_[(addr - base) / 4];
    }

    /**
     * Static accounting of the block entered at @p addr. Handler text
     * is immutable after load(), so blocks exist for every word index,
     * are computed once at load time, and never need invalidation — the
     * handler side of block execution has no generation checks at all.
     */
    const isa::BlockMeta &
    blockMetaAt(uint32_t addr) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        return blockMeta_[(addr - base) / 4];
    }

    /** Predecoded instructions starting at @p addr (must be inside). */
    const isa::DecodedInst *
    decodedFrom(uint32_t addr) const
    {
        return decoded_.data() + (addr - base) / 4;
    }

    /**
     * Block dispatch in one probe: blockMetaAt() + decodedFrom() with a
     * single bounds check and index computation, for the handler-block
     * loop that runs once per dispatched block.
     */
    const isa::BlockMeta &
    blockAt(uint32_t addr, const isa::DecodedInst *&insts) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        size_t idx = (addr - base) / 4;
        insts = decoded_.data() + idx;
        return blockMeta_[idx];
    }

    /** No conditional branch: condBranchFrom()/condBranchSucc() end. */
    static constexpr uint32_t kNoBranch = UINT32_MAX;

    /**
     * Word index of the conditional branch that straight-line execution
     * entered at @p addr reaches first, following fall-throughs and
     * in-RAM j/jal targets; kNoBranch when a jr/jalr, iret, halt,
     * undecodable word or the RAM end comes first. Handler text is
     * immutable, so this is computed once at load(). Handler replay
     * walks it to recover each recorded branch's pc from its taken bit.
     */
    uint32_t
    condBranchFrom(uint32_t addr) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        return condFrom_[(addr - base) / 4];
    }

    /**
     * For the conditional branch at word index @p b: the next
     * conditional branch (a word index, or kNoBranch) after it falls
     * through ([0]) or is taken ([1]).
     */
    const std::array<uint32_t, 2> &
    condBranchSucc(uint32_t b) const
    {
        return condSucc_[b];
    }

    /** Handler entry point (== base). */
    uint32_t entry() const { return base; }

    /** Size of the loaded handler in bytes. */
    uint32_t sizeBytes() const
    {
        return static_cast<uint32_t>(code_.size()) * 4;
    }

    bool loaded() const { return !code_.empty(); }

  private:
    std::vector<uint32_t> code_;
    std::vector<isa::DecodedInst> decoded_;  ///< one entry per word
    std::vector<isa::BlockMeta> blockMeta_;  ///< block starting per word
    std::vector<uint32_t> condFrom_;         ///< per word, see condBranchFrom
    std::vector<std::array<uint32_t, 2>> condSucc_; ///< per cond branch
};

} // namespace rtd::mem

#endif // RTDC_MEM_HANDLER_RAM_H
