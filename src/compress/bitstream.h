/**
 * @file
 * MSB-first bit stream reader/writer used by the CodePack codec.
 *
 * Bit order matches the software decompressor's refill sequence
 * (`buf |= byte << (24 - n)`): the most significant bit of each byte is
 * consumed first.
 */

#ifndef RTDC_COMPRESS_BITSTREAM_H
#define RTDC_COMPRESS_BITSTREAM_H

#include <cstdint>
#include <vector>

#include "support/logging.h"

namespace rtd::compress {

/**
 * Append-only MSB-first bit writer.
 *
 * Bits collect in a 64-bit accumulator and reach the byte buffer 32 at
 * a time, so a put() costs a shift, a mask and at most one flush. Fewer
 * than 32 bits are pending between calls; sizeBytes(), bytes() and
 * take() count them as a zero-padded partial final byte.
 */
class BitWriter
{
  public:
    /** Append the low @p width bits of @p value, MSB first. */
    void
    put(uint32_t value, unsigned width)
    {
        RTDC_ASSERT(width <= 32, "BitWriter::put width %u", width);
        acc_ = acc_ << width | (value & ((uint64_t{1} << width) - 1));
        pending_ += width;
        if (pending_ >= 32) {
            pending_ -= 32;
            auto word = static_cast<uint32_t>(acc_ >> pending_);
            for (int shift = 24; shift >= 0; shift -= 8)
                bytes_.push_back(static_cast<uint8_t>(word >> shift));
        }
    }

    /** Pad with zero bits to the next byte boundary. */
    void
    alignByte()
    {
        put(0, (8 - pending_ % 8) % 8);
    }

    /** Pre-size the buffer for a stream of about @p bytes. */
    void reserve(size_t bytes) { bytes_.reserve(bytes); }

    /** Total bytes emitted so far (including a partial final byte). */
    size_t sizeBytes() const { return bytes_.size() + (pending_ + 7) / 8; }

    /** Copy of the stream so far, including a partial final byte. */
    std::vector<uint8_t>
    bytes() const
    {
        std::vector<uint8_t> out = bytes_;
        appendPending(out);
        return out;
    }

    std::vector<uint8_t>
    take()
    {
        appendPending(bytes_);
        acc_ = 0;
        pending_ = 0;
        return std::move(bytes_);
    }

  private:
    /** Append the pending bits to @p out, zero-padded to whole bytes. */
    void
    appendPending(std::vector<uint8_t> &out) const
    {
        auto word = static_cast<uint32_t>(acc_ << (32 - pending_));
        for (unsigned i = 0; i < (pending_ + 7) / 8; ++i)
            out.push_back(static_cast<uint8_t>(word >> (24 - 8 * i)));
    }

    std::vector<uint8_t> bytes_;  ///< whole 32-bit flushes only
    uint64_t acc_ = 0;            ///< low pending_ bits are unflushed
    unsigned pending_ = 0;        ///< always < 32 between calls
};

/**
 * MSB-first bit reader over a byte buffer.
 *
 * Reading past the end of the stream is a checked, reportable condition,
 * not UB: out-of-range bits read as zero and set a sticky overrun flag
 * the caller inspects with ok()/overrun(). Truncated or corrupted
 * streams (the fault-injection subsystem produces both) therefore
 * decode to *something* deterministic and flag the damage instead of
 * crashing the process.
 */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    /** Read @p width bits, MSB first (zeros once past end-of-stream). */
    uint32_t
    get(unsigned width)
    {
        RTDC_ASSERT(width <= 32, "BitReader::get width %u", width);
        uint32_t value = 0;
        for (unsigned i = 0; i < width; ++i) {
            size_t byte = pos_ >> 3;
            unsigned bit = 0;
            if (byte < size_)
                bit = (data_[byte] >> (7 - (pos_ & 7))) & 1u;
            else
                overrun_ = true;
            value = (value << 1) | bit;
            ++pos_;
        }
        return value;
    }

    /** Skip to the next byte boundary. */
    void
    alignByte()
    {
        pos_ = (pos_ + 7) & ~static_cast<size_t>(7);
    }

    /** Position one past the last consumed bit. */
    size_t bitPos() const { return pos_; }

    /** True once any read ran past the end of the stream. */
    bool overrun() const { return overrun_; }
    /** No overrun has happened. */
    bool ok() const { return !overrun_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool overrun_ = false;
};

} // namespace rtd::compress

#endif // RTDC_COMPRESS_BITSTREAM_H
