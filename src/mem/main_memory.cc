#include "mem/main_memory.h"

#include <algorithm>
#include <cstring>

#include "support/logging.h"

namespace rtd::mem {

MainMemory::MainMemory(MemoryTiming timing)
    : timing_(timing)
{
}

MainMemory::Page *
MainMemory::findPage(uint32_t addr) const
{
    uint32_t index = addr >> pageShift;
    if (index == memoIndex_)
        return memoPage_;
    auto it = pages_.find(index);
    memoIndex_ = index;
    memoPage_ = it == pages_.end() ? nullptr : &it->second;
    return memoPage_;
}

MainMemory::Page &
MainMemory::touchPage(uint32_t addr)
{
    uint32_t index = addr >> pageShift;
    if (index == memoIndex_ && memoPage_)
        return *memoPage_;
    Page &page = pages_[index];
    if (page.empty())
        page.assign(pageBytes, 0);
    memoIndex_ = index;
    memoPage_ = &page;
    return page;
}

uint8_t
MainMemory::read8(uint32_t addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (pageBytes - 1)] : 0;
}

uint16_t
MainMemory::read16(uint32_t addr) const
{
    RTDC_ASSERT((addr & 1) == 0, "misaligned read16 at 0x%08x", addr);
    return static_cast<uint16_t>(read8(addr)) |
           static_cast<uint16_t>(read8(addr + 1)) << 8;
}

uint32_t
MainMemory::read32(uint32_t addr) const
{
    RTDC_ASSERT((addr & 3) == 0, "misaligned read32 at 0x%08x", addr);
    const Page *page = findPage(addr);
    if (!page)
        return 0;
    uint32_t off = addr & (pageBytes - 1);
    uint32_t value;
    std::memcpy(&value, page->data() + off, 4);
    return value;
}

void
MainMemory::write8(uint32_t addr, uint8_t value)
{
    touchPage(addr)[addr & (pageBytes - 1)] = value;
}

void
MainMemory::write16(uint32_t addr, uint16_t value)
{
    RTDC_ASSERT((addr & 1) == 0, "misaligned write16 at 0x%08x", addr);
    write8(addr, static_cast<uint8_t>(value));
    write8(addr + 1, static_cast<uint8_t>(value >> 8));
}

void
MainMemory::write32(uint32_t addr, uint32_t value)
{
    RTDC_ASSERT((addr & 3) == 0, "misaligned write32 at 0x%08x", addr);
    Page &page = touchPage(addr);
    std::memcpy(page.data() + (addr & (pageBytes - 1)), &value, 4);
}

void
MainMemory::writeBlock(uint32_t addr, const uint8_t *data, size_t size)
{
    // One page lookup per page spanned, not per byte.
    while (size > 0) {
        uint32_t off = addr & (pageBytes - 1);
        size_t chunk = std::min<size_t>(size, pageBytes - off);
        std::memcpy(touchPage(addr).data() + off, data, chunk);
        addr += static_cast<uint32_t>(chunk);
        data += chunk;
        size -= chunk;
    }
}

void
MainMemory::readBlock(uint32_t addr, uint8_t *data, size_t size) const
{
    while (size > 0) {
        uint32_t off = addr & (pageBytes - 1);
        size_t chunk = std::min<size_t>(size, pageBytes - off);
        if (const Page *page = findPage(addr))
            std::memcpy(data, page->data() + off, chunk);
        else
            std::memset(data, 0, chunk);
        addr += static_cast<uint32_t>(chunk);
        data += chunk;
        size -= chunk;
    }
}

uint64_t
MainMemory::checksum() const
{
    // Pages are hashed independently and summed, so the unordered
    // map's iteration order cannot leak into the digest.
    uint64_t sum = 0;
    for (const auto &[index, page] : pages_) {
        uint64_t h = 1469598103934665603ull ^ index;
        for (uint8_t byte : page)
            h = (h ^ byte) * 1099511628211ull;
        sum += h;
    }
    return sum;
}

} // namespace rtd::mem
