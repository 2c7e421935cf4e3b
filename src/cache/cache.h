/**
 * @file
 * Set-associative cache with true LRU replacement and support for
 * software-managed line installation (the paper's `swic` instruction).
 *
 * The same class models both the I-cache (16 KB, 32 B lines, 2-way in the
 * paper's baseline) and the D-cache (8 KB, 16 B lines, 2-way,
 * write-back/write-allocate).
 *
 * The cache stores real data so that a compressed program's decompressed
 * region can "exist only in the cache" (Figure 3): the decompressor
 * installs reconstructed words with swicWrite() and the CPU subsequently
 * fetches them from the line storage.
 */

#ifndef RTDC_CACHE_CACHE_H
#define RTDC_CACHE_CACHE_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/predecode.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cache {

/** Geometry of one cache. */
struct CacheConfig
{
    uint32_t sizeBytes = 16 * 1024;
    uint32_t lineBytes = 32;
    unsigned assoc = 2;

    uint32_t numSets() const { return sizeBytes / (lineBytes * assoc); }
    void check() const;
};

/** Information about a line evicted by a fill or swic allocation. */
struct Eviction
{
    bool valid = false;   ///< an existing line was evicted
    bool dirty = false;   ///< it held unwritten-back stores
    uint32_t addr = 0;    ///< its line base address
};

/**
 * Result of a whole-line fetch probe (the block-dispatch entry point):
 * the present line's decoded mirror and its generation stamp.
 */
struct FetchLine
{
    const isa::DecodedInst *decoded = nullptr; ///< line-base decoded entries
    uint64_t gen = 0;                          ///< frame generation
    uint32_t frame = 0;                        ///< frame index (set*assoc+way)
};

/** Set-associative, true-LRU, data-carrying cache model. */
class Cache
{
  public:
    Cache(std::string name, CacheConfig config);

    const CacheConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

    /** Line base address containing @p addr. */
    uint32_t lineAddr(uint32_t addr) const
    {
        return addr & ~(config_.lineBytes - 1);
    }

    // The combined access entry points below run once per simulated
    // instruction or data access (tens of millions of calls per run), so
    // they live in the header and share one inline tag lookup.

    /**
     * Look up @p addr, updating LRU and hit/miss statistics.
     * @return true on hit.
     */
    bool
    access(uint32_t addr)
    {
        uint32_t set = setIndex(addr);
        int way = findWay(set, tagOf(addr));
        if (way < 0) {
            ++misses_;
            return false;
        }
        ++hits_;
        touchLru(set, static_cast<unsigned>(way));
        return true;
    }

    /**
     * Combined access() + read32(): one tag lookup services both the
     * hit/miss decision and the data read (the I-fetch hit path used to
     * pay findWay() twice). On a miss nothing is read and @p word is
     * untouched; statistics and LRU update exactly as access() would.
     * @return true on hit.
     */
    bool
    accessRead(uint32_t addr, uint32_t &word)
    {
        RTDC_ASSERT((addr & 3) == 0,
                    "misaligned cache accessRead at 0x%08x", addr);
        return accessReadBytes(addr, 4, word);
    }

    /**
     * accessRead() for a 1/2/4-byte load (@p bytes): one tag lookup, the
     * value is zero-extended into @p raw. The D-side load path uses this
     * the same way the I-side uses accessRead().
     * @return true on hit.
     */
    bool
    accessReadBytes(uint32_t addr, unsigned bytes, uint32_t &raw)
    {
        RTDC_ASSERT((addr & (bytes - 1)) == 0,
                    "misaligned cache accessReadBytes at 0x%08x", addr);
        uint32_t set = setIndex(addr);
        int way = findWay(set, tagOf(addr));
        if (way < 0) {
            ++misses_;
            return false;
        }
        ++hits_;
        unsigned w = static_cast<unsigned>(way);
        touchLru(set, w);
        const uint8_t *src =
            lineData(set, w) + (addr & (config_.lineBytes - 1));
        switch (bytes) {
          case 1: raw = *src; break;
          case 2: {
            uint16_t half;
            std::memcpy(&half, src, 2);
            raw = half;
            break;
          }
          default:
            std::memcpy(&raw, src, 4);
            break;
        }
        return true;
    }

    /**
     * Combined access() + write (1/2/4 @p bytes): one tag lookup services
     * the hit/miss decision and, on hit, the data write (marking the line
     * dirty, as write32() would). On a miss nothing is written — the
     * caller fills the line and retries through the plain write path.
     * @return true on hit.
     */
    bool
    accessWrite(uint32_t addr, uint32_t value, unsigned bytes)
    {
        RTDC_ASSERT((addr & (bytes - 1)) == 0,
                    "misaligned cache accessWrite at 0x%08x", addr);
        uint32_t set = setIndex(addr);
        int way = findWay(set, tagOf(addr));
        if (way < 0) {
            ++misses_;
            return false;
        }
        ++hits_;
        unsigned w = static_cast<unsigned>(way);
        Line &line = lines_[static_cast<size_t>(set) * config_.assoc + w];
        line.lastUse = ++useClock_;
        line.dirty = true;
        bumpGen(set, w);
        uint8_t *dst = lineData(set, w) + (addr & (config_.lineBytes - 1));
        switch (bytes) {
          case 1: *dst = static_cast<uint8_t>(value); break;
          case 2: {
            uint16_t half = static_cast<uint16_t>(value);
            std::memcpy(dst, &half, 2);
            break;
          }
          default:
            std::memcpy(dst, &value, 4);
            break;
        }
        if (predecodeEnabled())
            redecodeWord(set, w, addr);
        return true;
    }

    /**
     * Combined access() + decoded-entry fetch for the predecode fast
     * path (enablePredecode() must have been called): one tag lookup
     * returns the line's cached DecodedInst for @p addr on hit, nullptr
     * on miss. Statistics and LRU update exactly as access() would. The
     * pointer is invalidated by any subsequent fill/swic/write to the
     * cache.
     */
    const isa::DecodedInst *
    accessFetch(uint32_t addr)
    {
        RTDC_ASSERT((addr & 3) == 0,
                    "misaligned cache accessFetch at 0x%08x", addr);
        uint32_t set = setIndex(addr);
        int way = findWay(set, tagOf(addr));
        if (way < 0) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        unsigned w = static_cast<unsigned>(way);
        touchLru(set, w);
        return lineDecoded(set, w) + (addr & (config_.lineBytes - 1)) / 4;
    }

    /**
     * Combined access() + whole-line fetch for block dispatch
     * (enablePredecode() must have been called): one tag lookup
     * validates the line containing @p addr and, on hit, fills @p out
     * with the line's decoded mirror and generation stamp. Statistics
     * and LRU update exactly as access() would — the caller credits the
     * remaining per-instruction hits with creditFetchHits().
     * @return true on hit.
     */
    bool
    accessFetchLine(uint32_t addr, FetchLine &out)
    {
        RTDC_ASSERT((addr & 3) == 0,
                    "misaligned cache accessFetchLine at 0x%08x", addr);
        uint32_t set = setIndex(addr);
        int way = findWay(set, tagOf(addr));
        if (way < 0) {
            ++misses_;
            return false;
        }
        ++hits_;
        unsigned w = static_cast<unsigned>(way);
        touchLru(set, w);
        out.decoded = lineDecoded(set, w);
        out.frame = static_cast<uint32_t>(
            static_cast<size_t>(set) * config_.assoc + w);
        out.gen = frameGen_[out.frame];
        return true;
    }

    /**
     * accessFetchLine() without statistics or LRU update, for re-reading
     * the line just installed by a miss service (the per-instruction
     * path's decodedAt() likewise counts nothing after a fill). Panics
     * when the line is absent.
     */
    void
    peekFetchLine(uint32_t addr, FetchLine &out) const
    {
        uint32_t set;
        unsigned way;
        locate(addr, set, way);
        out.decoded = lineDecoded(set, way);
        out.frame = static_cast<uint32_t>(
            static_cast<size_t>(set) * config_.assoc + way);
        out.gen = frameGen_[out.frame];
    }

    /**
     * Generation stamp of frame @p frame (a FetchLine::frame value).
     * The superblock engine's chained-segment check: a match proves the
     * frame still holds the same line with the same bytes (stamps never
     * repeat, see lineGen()), so the segment's recorded decoded-mirror
     * pointer and block metadata are still current.
     */
    uint64_t frameGen(uint32_t frame) const { return frameGen_[frame]; }

    /**
     * Make frame @p frame most recently used — the LRU touch the
     * per-fetch paths apply, for a dispatch that validated the frame by
     * generation instead of by tag lookup.
     */
    void
    touchFrame(uint32_t frame)
    {
        lines_[frame].lastUse = ++useClock_;
    }

    /**
     * Credit @p n fetch hits that block dispatch collapsed into one
     * physical tag lookup, keeping hit/miss counters identical to the
     * per-instruction fetch path (which pays one lookup per fetch).
     */
    void creditFetchHits(uint64_t n) { hits_ += n; }

    /**
     * Generation stamp of the (present) line containing @p addr. Bumped
     * from a cache-wide monotonic clock whenever the frame's bytes can
     * change: hardware fill, swic install or overwrite, the write
     * paths, invalidation, and eviction-by-allocation. Stamps never
     * repeat across frames, so (line address, generation) identifies
     * line *content* for the lifetime of the cache.
     */
    uint64_t
    lineGen(uint32_t addr) const
    {
        uint32_t set;
        unsigned way;
        locate(addr, set, way);
        return frameGen_[static_cast<size_t>(set) * config_.assoc + way];
    }

    /** Probe without statistics or LRU update. */
    bool probe(uint32_t addr) const;

    /**
     * Allocate the decoded-instruction store: every word installed by
     * fillLine()/swicWrite()/write32() is additionally predecoded, so
     * decodedAt() always mirrors the line's data bytes. Call once,
     * before any line is installed (the I-cache's decode-once path).
     */
    void enablePredecode();

    bool predecodeEnabled() const { return !decoded_.empty(); }

    /**
     * Decoded instruction at @p addr (line must be present; no
     * statistics or LRU update). Only valid with predecode enabled.
     */
    const isa::DecodedInst &decodedAt(uint32_t addr) const;

    /**
     * Install the line containing @p addr from @p src (lineBytes bytes,
     * the hardware fill path). The line becomes MRU and clean.
     *
     * @param writeback_buf when non-null and a dirty line is evicted,
     *        its lineBytes of data are copied here so the caller can
     *        write them back to memory
     * @return eviction info for writeback accounting.
     */
    Eviction fillLine(uint32_t addr, const uint8_t *src,
                      uint8_t *writeback_buf = nullptr);

    /**
     * Software-managed word install (the `swic` instruction): write
     * @p word at @p addr in the I-cache. If the containing line is not
     * present, a victim way is allocated first (its other words are left
     * as-is until subsequent swic stores fill them — the decompressor
     * always writes the full line).
     *
     * Runs once per decompressed word; the common case (the line was
     * allocated by the first swic of its group) stays inline.
     * @return eviction info when an allocation displaced a valid line.
     */
    Eviction
    swicWrite(uint32_t addr, uint32_t word)
    {
        RTDC_ASSERT((addr & 3) == 0, "misaligned swic at 0x%08x", addr);
        uint32_t line_addr = lineAddr(addr);
        uint32_t set = setIndex(line_addr);
        int way = findWay(set, tagOf(line_addr));
        if (way < 0)
            return swicAllocWrite(line_addr, addr, word);
        unsigned w = static_cast<unsigned>(way);
        touchLru(set, w);
        bumpGen(set, w);
        std::memcpy(lineData(set, w) + (addr - line_addr), &word, 4);
        if (predecodeEnabled()) {
            // A swic overwrite of a cached word must invalidate its
            // decoded entry; decoding the new word does both at once.
            lineDecoded(set, w)[(addr - line_addr) / 4] =
                memo_->lookup(word);
        }
        return Eviction{};
    }

    /// @name Data access (line must be present)
    /// @{
    uint32_t read32(uint32_t addr) const;
    uint16_t read16(uint32_t addr) const;
    uint8_t read8(uint32_t addr) const;
    void write32(uint32_t addr, uint32_t value); ///< marks line dirty
    void write16(uint32_t addr, uint16_t value);
    void write8(uint32_t addr, uint8_t value);
    /// @}

    /** Copy a whole (dirty) line out, e.g. for writeback. */
    void readLine(uint32_t addr, uint8_t *dst) const;

    /** Invalidate everything (does not write back). */
    void flush();

    /**
     * Invalidate every line intersecting [addr, addr+size) without
     * writing back (used when the procedure cache evicts decompressed
     * code). @return number of lines invalidated.
     */
    unsigned invalidateRange(uint32_t addr, uint32_t size);

    /**
     * Write back and invalidate every dirty line intersecting
     * [addr, addr+size): the coherence flush a software decompressor
     * needs after writing code through the D-cache. @p writeback is
     * called with (line_addr, data) for each dirty line.
     * @return number of dirty lines written back.
     */
    unsigned flushRange(uint32_t addr, uint32_t size,
                        const std::function<void(uint32_t,
                                                 const uint8_t *)>
                            &writeback);

    /// @name Statistics
    /// @{
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t swicAllocs() const { return swicAllocs_; }
    double missRatio() const;
    void resetStats();
    /// @}

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint32_t tag = 0;
        uint64_t lastUse = 0;
    };

    /** way index within the set, or -1 on miss. */
    int
    findWay(uint32_t set, uint32_t tag) const
    {
        const Line *base = &lines_[static_cast<size_t>(set) *
                                   config_.assoc];
        for (unsigned w = 0; w < config_.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return static_cast<int>(w);
        }
        return -1;
    }
    /** Make (set, way) most recently used. */
    void
    touchLru(uint32_t set, unsigned way)
    {
        lines_[static_cast<size_t>(set) * config_.assoc + way].lastUse =
            ++useClock_;
    }
    /**
     * Stamp (set, way) with a fresh generation: its bytes changed (or
     * its frame was reassigned). Stamps come from a cache-wide clock so
     * they never repeat, not even across frames.
     */
    void
    bumpGen(uint32_t set, unsigned way)
    {
        frameGen_[static_cast<size_t>(set) * config_.assoc + way] =
            ++genClock_;
    }
    /** LRU way of a set (an invalid way wins immediately). */
    unsigned victimWay(uint32_t set) const;
    /** Allocate a line for @p line_addr, returning its way. */
    unsigned allocate(uint32_t line_addr, Eviction &evicted);
    /** swicWrite() slow path: allocate the line, then write @p word. */
    Eviction swicAllocWrite(uint32_t line_addr, uint32_t addr,
                            uint32_t word);

    // Geometry is all powers of two (CacheConfig::check()), so set and
    // tag extraction are shifts precomputed at construction: these run
    // on every simulated access and a runtime divide costs tens of
    // host cycles.
    uint32_t setIndex(uint32_t addr) const
    {
        return (addr >> lineShift_) & setMask_;
    }
    uint32_t tagOf(uint32_t addr) const { return addr >> tagShift_; }
    uint8_t *lineData(uint32_t set, unsigned way)
    {
        return data_.data() +
               (static_cast<size_t>(set) * config_.assoc + way) *
                   config_.lineBytes;
    }
    const uint8_t *lineData(uint32_t set, unsigned way) const
    {
        return data_.data() +
               (static_cast<size_t>(set) * config_.assoc + way) *
                   config_.lineBytes;
    }
    /** Locate present line for addr; panics when absent. */
    void locate(uint32_t addr, uint32_t &set, unsigned &way) const;

    /** Words per line (predecode store stride). */
    uint32_t lineWords() const { return config_.lineBytes / 4; }
    isa::DecodedInst *lineDecoded(uint32_t set, unsigned way)
    {
        return decoded_.data() +
               (static_cast<size_t>(set) * config_.assoc + way) *
                   lineWords();
    }
    const isa::DecodedInst *lineDecoded(uint32_t set, unsigned way) const
    {
        return decoded_.data() +
               (static_cast<size_t>(set) * config_.assoc + way) *
                   lineWords();
    }
    /** Re-predecode the word containing @p addr in (set, way). */
    void redecodeWord(uint32_t set, unsigned way, uint32_t addr);

    std::string name_;
    CacheConfig config_;
    uint8_t lineShift_ = 0; ///< log2(lineBytes)
    uint8_t tagShift_ = 0;  ///< log2(lineBytes * numSets)
    uint32_t setMask_ = 0;  ///< numSets - 1
    std::vector<Line> lines_;   ///< numSets * assoc
    std::vector<uint8_t> data_; ///< backing storage
    /** Decoded mirror of data_, one entry per word; empty = disabled. */
    std::vector<isa::DecodedInst> decoded_;
    /** Word-value memo feeding decoded_ (decompressed words repeat). */
    std::unique_ptr<isa::PredecodeMemo> memo_;
    /** Per-frame generation stamps (numSets * assoc); see lineGen(). */
    std::vector<uint64_t> frameGen_;
    uint64_t genClock_ = 0;
    uint64_t useClock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t swicAllocs_ = 0;
};

} // namespace rtd::cache

#endif // RTDC_CACHE_CACHE_H
