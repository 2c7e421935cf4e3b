/**
 * @file
 * Branch predictor: the paper's Table 1 machine uses a 2048-entry
 * bimodal predictor (the matrix sweep also varies its size).
 */

#ifndef RTDC_CPU_PREDICTOR_H
#define RTDC_CPU_PREDICTOR_H

#include <cstdint>
#include <vector>

namespace rtd::cpu {

/** Conditional-branch direction predictor: per-PC 2-bit counters. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries = 2048);

    /** Predicted direction for the branch at @p pc. */
    bool predict(uint32_t pc) const;

    /**
     * Update with the resolved direction. Runs once per simulated
     * conditional branch, so it stays in the header.
     * @return true when the prediction was correct.
     */
    bool
    update(uint32_t pc, bool taken)
    {
        ++lookups_;
        // Branch-free on `taken`: this runs once per simulated
        // conditional branch, whose direction is data-dependent (the
        // decompression handlers test compressed bits), so any host
        // branch conditioned on it mispredicts at the simulated
        // mispredict rate. Saturation and the mispredict count are
        // computed arithmetically instead.
        Counter &counter = table_[index(pc)];
        unsigned c = static_cast<unsigned>(counter);
        unsigned t = taken;
        bool correct = (c >> 1) == t;
        counter = static_cast<Counter>(c + (t & (c != 3)) -
                                       ((t ^ 1) & (c != 0)));
        mispredicts_ += !correct;
        return correct;
    }

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }
    double mispredictRatio() const;
    void resetStats();

  private:
    unsigned index(uint32_t pc) const
    {
        unsigned mask = static_cast<unsigned>(table_.size()) - 1;
        return (pc >> 2) & mask;
    }

    /**
     * A 2-bit counter. An enum rather than uint8_t so a counter store is
     * not a character-type store, which may alias anything and would
     * force the other members to be reloaded after every update().
     */
    enum class Counter : uint8_t {};

    std::vector<Counter> table_;  ///< 2-bit counters, init weakly taken
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace rtd::cpu

#endif // RTDC_CPU_PREDICTOR_H
