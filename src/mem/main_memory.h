/**
 * @file
 * Main-memory model: sparse byte-addressable storage plus the paper's bus
 * timing (Table 1: 64-bit bus, first access 10 cycles, successive
 * accesses 2 cycles).
 */

#ifndef RTDC_MEM_MAIN_MEMORY_H
#define RTDC_MEM_MAIN_MEMORY_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/stats.h"

namespace rtd::mem {

/** Timing parameters of the memory system. */
struct MemoryTiming
{
    unsigned firstAccessCycles = 10;  ///< latency of the first beat
    unsigned burstRateCycles = 2;     ///< cycles per subsequent beat
    unsigned busBytes = 8;            ///< 64-bit bus

    /** Cycles to transfer @p bytes as one burst. */
    uint64_t
    burstCycles(uint32_t bytes) const
    {
        uint32_t beats = (bytes + busBytes - 1) / busBytes;
        if (beats == 0)
            return 0;
        return firstAccessCycles +
               static_cast<uint64_t>(beats - 1) * burstRateCycles;
    }
};

/**
 * Sparse main memory. Pages are allocated on first touch; reads of
 * untouched memory return zero (and are counted, to help tests catch
 * wild addresses).
 */
class MainMemory
{
  public:
    explicit MainMemory(MemoryTiming timing = MemoryTiming{});

    const MemoryTiming &timing() const { return timing_; }

    /// @name Functional access (no timing side effects)
    /// @{
    uint8_t read8(uint32_t addr) const;
    uint16_t read16(uint32_t addr) const;
    uint32_t read32(uint32_t addr) const;
    void write8(uint32_t addr, uint8_t value);
    void write16(uint32_t addr, uint16_t value);
    void write32(uint32_t addr, uint32_t value);
    /** Bulk copy into memory. */
    void writeBlock(uint32_t addr, const uint8_t *data, size_t size);
    /** Bulk copy out of memory. */
    void readBlock(uint32_t addr, uint8_t *data, size_t size) const;
    /// @}

    /** Number of distinct pages touched (memory footprint proxy). */
    size_t pagesAllocated() const { return pages_.size(); }

    /** Order-independent digest of every allocated page's address and
     *  contents (engine-parity tests compare whole memories with it). */
    uint64_t checksum() const;

  private:
    static constexpr uint32_t pageShift = 12;
    static constexpr uint32_t pageBytes = 1u << pageShift;

    using Page = std::vector<uint8_t>;

    Page *findPage(uint32_t addr) const;
    Page &touchPage(uint32_t addr);

    MemoryTiming timing_;
    mutable std::unordered_map<uint32_t, Page> pages_;
    // One-entry lookup memo for the hot scalar paths. Mapped values are
    // stable across rehash and pages are never erased, so a cached Page
    // pointer can only go stale by being absent-then-created — and every
    // creation goes through touchPage, which refreshes the memo.
    mutable uint32_t memoIndex_ = UINT32_MAX;
    mutable Page *memoPage_ = nullptr;
};

} // namespace rtd::mem

#endif // RTDC_MEM_MAIN_MEMORY_H
