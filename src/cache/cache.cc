#include "cache/cache.h"

#include <cstring>

#include "support/bitops.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cache {

void
CacheConfig::check() const
{
    if (!isPowerOfTwo(sizeBytes) || !isPowerOfTwo(lineBytes) || assoc == 0)
        fatal("bad cache geometry: size=%u line=%u assoc=%u", sizeBytes,
              lineBytes, assoc);
    if (sizeBytes % (lineBytes * assoc) != 0 ||
        !isPowerOfTwo(numSets())) {
        fatal("cache geometry does not divide into power-of-two sets: "
              "size=%u line=%u assoc=%u", sizeBytes, lineBytes, assoc);
    }
}

Cache::Cache(std::string name, CacheConfig config)
    : name_(std::move(name)), config_(config)
{
    config_.check();
    lineShift_ = static_cast<uint8_t>(floorLog2(config_.lineBytes));
    tagShift_ = static_cast<uint8_t>(
        lineShift_ + floorLog2(config_.numSets()));
    setMask_ = config_.numSets() - 1;
    lines_.resize(static_cast<size_t>(config_.numSets()) * config_.assoc);
    data_.resize(static_cast<size_t>(config_.sizeBytes));
    frameGen_.resize(lines_.size());
}

unsigned
Cache::victimWay(uint32_t set) const
{
    const Line *base = &lines_[static_cast<size_t>(set) * config_.assoc];
    unsigned victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid)
            return w;
        if (base[w].lastUse < oldest) {
            oldest = base[w].lastUse;
            victim = w;
        }
    }
    return victim;
}

bool
Cache::probe(uint32_t addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

void
Cache::enablePredecode()
{
    RTDC_ASSERT((config_.lineBytes & 3) == 0,
                "%s: predecode needs word-multiple lines", name_.c_str());
    decoded_.resize(static_cast<size_t>(config_.numSets()) *
                    config_.assoc * lineWords());
    memo_ = std::make_unique<isa::PredecodeMemo>();
}

void
Cache::redecodeWord(uint32_t set, unsigned way, uint32_t addr)
{
    uint32_t offset = addr & (config_.lineBytes - 1) & ~3u;
    uint32_t word;
    std::memcpy(&word, lineData(set, way) + offset, 4);
    lineDecoded(set, way)[offset / 4] = memo_->lookup(word);
}

unsigned
Cache::allocate(uint32_t line_addr, Eviction &evicted)
{
    uint32_t set = setIndex(line_addr);
    unsigned way = victimWay(set);
    Line &line = lines_[static_cast<size_t>(set) * config_.assoc + way];
    if (line.valid) {
        evicted.valid = true;
        evicted.dirty = line.dirty;
        // Reconstruct the evicted line's base address from tag and set.
        evicted.addr = (line.tag * config_.numSets() + set) *
                       config_.lineBytes;
        ++evictions_;
    }
    line.valid = true;
    line.dirty = false;
    line.tag = tagOf(line_addr);
    line.lastUse = ++useClock_;
    // The frame now holds a different line (or fresh bytes for the same
    // one): any block built against its old generation is stale.
    bumpGen(set, way);
    return way;
}

Eviction
Cache::fillLine(uint32_t addr, const uint8_t *src, uint8_t *writeback_buf)
{
    Eviction evicted;
    uint32_t line_addr = lineAddr(addr);
    // A fill of a line that is already present replaces its contents in
    // place (used by tests; does not occur on the simulated miss paths).
    uint32_t set = setIndex(line_addr);
    int existing = findWay(set, tagOf(line_addr));
    unsigned way;
    if (existing >= 0) {
        way = static_cast<unsigned>(existing);
        bumpGen(set, way);  // in-place refill rewrites the line's bytes
    } else {
        // Capture the victim's data before it is overwritten so a dirty
        // line can be written back.
        unsigned victim = victimWay(set);
        const Line &vline =
            lines_[static_cast<size_t>(set) * config_.assoc + victim];
        if (vline.valid && vline.dirty && writeback_buf) {
            std::memcpy(writeback_buf, lineData(set, victim),
                        config_.lineBytes);
        }
        way = allocate(line_addr, evicted);
        RTDC_ASSERT(way == victim, "victim selection changed under fill");
    }
    std::memcpy(lineData(set, way), src, config_.lineBytes);
    if (predecodeEnabled()) {
        // Decode once at fill time: every later fetch of this line reads
        // the decoded mirror instead of re-decoding the word.
        isa::DecodedInst *dst = lineDecoded(set, way);
        for (uint32_t w = 0; w < lineWords(); ++w) {
            uint32_t word;
            std::memcpy(&word, src + w * 4, 4);
            dst[w] = memo_->lookup(word);
        }
    }
    Line &line = lines_[static_cast<size_t>(set) * config_.assoc + way];
    line.dirty = false;
    line.lastUse = ++useClock_;
    return evicted;
}

Eviction
Cache::swicAllocWrite(uint32_t line_addr, uint32_t addr, uint32_t word)
{
    Eviction evicted;
    unsigned w = allocate(line_addr, evicted);
    ++swicAllocs_;
    uint32_t set = setIndex(line_addr);
    std::memcpy(lineData(set, w) + (addr - line_addr), &word, 4);
    if (predecodeEnabled())
        lineDecoded(set, w)[(addr - line_addr) / 4] = memo_->lookup(word);
    return evicted;
}

void
Cache::locate(uint32_t addr, uint32_t &set, unsigned &way) const
{
    set = setIndex(addr);
    int w = findWay(set, tagOf(addr));
    RTDC_ASSERT(w >= 0, "%s: data access to absent line 0x%08x",
                name_.c_str(), addr);
    way = static_cast<unsigned>(w);
}

uint32_t
Cache::read32(uint32_t addr) const
{
    RTDC_ASSERT((addr & 3) == 0, "misaligned cache read32 at 0x%08x", addr);
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    uint32_t value;
    std::memcpy(&value,
                lineData(set, way) + (addr & (config_.lineBytes - 1)), 4);
    return value;
}

uint16_t
Cache::read16(uint32_t addr) const
{
    RTDC_ASSERT((addr & 1) == 0, "misaligned cache read16 at 0x%08x", addr);
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    uint16_t value;
    std::memcpy(&value,
                lineData(set, way) + (addr & (config_.lineBytes - 1)), 2);
    return value;
}

uint8_t
Cache::read8(uint32_t addr) const
{
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    return lineData(set, way)[addr & (config_.lineBytes - 1)];
}

void
Cache::write32(uint32_t addr, uint32_t value)
{
    RTDC_ASSERT((addr & 3) == 0, "misaligned cache write32 at 0x%08x",
                addr);
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    std::memcpy(lineData(set, way) + (addr & (config_.lineBytes - 1)),
                &value, 4);
    lines_[static_cast<size_t>(set) * config_.assoc + way].dirty = true;
    bumpGen(set, way);
    if (predecodeEnabled())
        redecodeWord(set, way, addr);
}

void
Cache::write16(uint32_t addr, uint16_t value)
{
    RTDC_ASSERT((addr & 1) == 0, "misaligned cache write16 at 0x%08x",
                addr);
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    std::memcpy(lineData(set, way) + (addr & (config_.lineBytes - 1)),
                &value, 2);
    lines_[static_cast<size_t>(set) * config_.assoc + way].dirty = true;
    bumpGen(set, way);
    if (predecodeEnabled())
        redecodeWord(set, way, addr);
}

void
Cache::write8(uint32_t addr, uint8_t value)
{
    uint32_t set;
    unsigned way;
    locate(addr, set, way);
    lineData(set, way)[addr & (config_.lineBytes - 1)] = value;
    lines_[static_cast<size_t>(set) * config_.assoc + way].dirty = true;
    bumpGen(set, way);
    if (predecodeEnabled())
        redecodeWord(set, way, addr);
}

void
Cache::readLine(uint32_t addr, uint8_t *dst) const
{
    uint32_t set;
    unsigned way;
    locate(lineAddr(addr), set, way);
    std::memcpy(dst, lineData(set, way), config_.lineBytes);
}

void
Cache::flush()
{
    for (Line &line : lines_)
        line = Line{};
    for (uint64_t &gen : frameGen_)
        gen = ++genClock_;
}

unsigned
Cache::invalidateRange(uint32_t addr, uint32_t size)
{
    unsigned count = 0;
    uint32_t first = lineAddr(addr);
    uint32_t last = lineAddr(addr + size - 1);
    for (uint32_t line_addr = first;; line_addr += config_.lineBytes) {
        uint32_t set = setIndex(line_addr);
        int way = findWay(set, tagOf(line_addr));
        if (way >= 0) {
            lines_[static_cast<size_t>(set) * config_.assoc +
                   static_cast<unsigned>(way)] = Line{};
            bumpGen(set, static_cast<unsigned>(way));
            ++count;
        }
        if (line_addr == last)
            break;
    }
    return count;
}

unsigned
Cache::flushRange(uint32_t addr, uint32_t size,
                  const std::function<void(uint32_t, const uint8_t *)>
                      &writeback)
{
    unsigned dirty = 0;
    uint32_t first = lineAddr(addr);
    uint32_t last = lineAddr(addr + size - 1);
    for (uint32_t line_addr = first;; line_addr += config_.lineBytes) {
        uint32_t set = setIndex(line_addr);
        int way = findWay(set, tagOf(line_addr));
        if (way >= 0) {
            Line &line = lines_[static_cast<size_t>(set) * config_.assoc +
                                static_cast<unsigned>(way)];
            if (line.dirty) {
                writeback(line_addr,
                          lineData(set, static_cast<unsigned>(way)));
                ++dirty;
            }
            line = Line{};
            bumpGen(set, static_cast<unsigned>(way));
        }
        if (line_addr == last)
            break;
    }
    return dirty;
}

double
Cache::missRatio()
const
{
    return ratio(misses_, hits_ + misses_);
}

void
Cache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    swicAllocs_ = 0;
}

} // namespace rtd::cache
