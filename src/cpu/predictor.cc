#include "cpu/predictor.h"

#include "support/bitops.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cpu {

const char *
predictorName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Bimodal: return "bimodal";
      case PredictorKind::Gshare: return "gshare";
      case PredictorKind::StaticNotTaken: return "not-taken";
    }
    return "?";
}

BimodalPredictor::BimodalPredictor(unsigned entries, PredictorKind kind)
    // Counters start weakly taken, as in SimpleScalar.
    : kind_(kind), table_(entries, Counter{2})
{
    RTDC_ASSERT(isPowerOfTwo(entries), "predictor entries %u not a power "
                "of two", entries);
    historyBits_ = floorLog2(entries);
}

bool
BimodalPredictor::predict(uint32_t pc) const
{
    if (kind_ == PredictorKind::StaticNotTaken)
        return false;
    return static_cast<unsigned>(table_[index(pc)]) >= 2;
}

double
BimodalPredictor::mispredictRatio() const
{
    return ratio(mispredicts_, lookups_);
}

void
BimodalPredictor::resetStats()
{
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace rtd::cpu
