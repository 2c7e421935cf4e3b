#include "cpu/predictor.h"

#include "support/bitops.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cpu {

BimodalPredictor::BimodalPredictor(unsigned entries)
    // Counters start weakly taken, as in SimpleScalar.
    : table_(entries, Counter{2})
{
    RTDC_ASSERT(isPowerOfTwo(entries), "predictor entries %u not a power "
                "of two", entries);
}

bool
BimodalPredictor::predict(uint32_t pc) const
{
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
