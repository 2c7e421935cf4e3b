/**
 * @file
 * Branch predictors. The paper's Table 1 machine uses a 2048-entry
 * bimodal predictor; gshare and static-not-taken variants are provided
 * for sensitivity studies (the decompression exception path interacts
 * with prediction only through the miss ratio, which the ablation bench
 * quantifies).
 */

#ifndef RTDC_CPU_PREDICTOR_H
#define RTDC_CPU_PREDICTOR_H

#include <cstdint>
#include <vector>

namespace rtd::cpu {

/** Which direction predictor the core uses. */
enum class PredictorKind : uint8_t
{
    Bimodal,         ///< per-PC 2-bit counters (the paper's machine)
    Gshare,          ///< global-history xor PC indexed 2-bit counters
    StaticNotTaken,  ///< always predict not-taken (no table)
};

const char *predictorName(PredictorKind kind);

/** Conditional-branch direction predictor. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries = 2048,
                              PredictorKind kind = PredictorKind::Bimodal);

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
        if (kind_ == PredictorKind::StaticNotTaken) {
            mispredicts_ += taken;
            return !taken;
        }
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
        if (kind_ == PredictorKind::Gshare)
            history_ = ((history_ << 1) | t) & ((1u << historyBits_) - 1u);
        mispredicts_ += !correct;
        return correct;
    }

    PredictorKind kind() const { return kind_; }
    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }
    double mispredictRatio() const;
    void resetStats();

  private:
    unsigned index(uint32_t pc) const
    {
        unsigned mask = static_cast<unsigned>(table_.size()) - 1;
        if (kind_ == PredictorKind::Gshare)
            return ((pc >> 2) ^ history_) & mask;
        return (pc >> 2) & mask;
    }

    /**
     * A 2-bit counter. An enum rather than uint8_t so a counter store is
     * not a character-type store, which may alias anything and would
     * force the members above to be reloaded after every update().
     */
    enum class Counter : uint8_t {};

    PredictorKind kind_;
    std::vector<Counter> table_;  ///< 2-bit counters, init weakly taken
    uint32_t history_ = 0;        ///< global history (gshare)
    unsigned historyBits_ = 0;
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace rtd::cpu

#endif // RTDC_CPU_PREDICTOR_H
