/**
 * @file
 * Golden results: every registered sweep at scale 0.03 must write
 * exactly the bytes of tests/golden/<name>.json (what `rtdc_sweep NAME
 * --scale 0.03` writes). A sweep without a golden fails. When a result
 * is meant to change, regenerate its golden with
 *
 *   rtdc_sweep NAME --scale 0.03 --out tests/golden/NAME.json
 *
 * and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweeps.h"
#include "support/logging.h"

namespace rtd::harness {
namespace {

std::vector<std::string>
sweepNames()
{
    std::vector<std::string> names;
    for (const SweepInfo &info : sweeps())
        names.push_back(info.name);
    return names;
}

using SweepGolden = ::testing::TestWithParam<std::string>;

TEST_P(SweepGolden, MatchesGolden)
{
    setInformEnabled(false);
    const SweepInfo *info = findSweep(GetParam());
    ASSERT_NE(info, nullptr);
    // Explicit options, not fromEnv(): sanitizer CI exports
    // RTDC_BENCH_SCALE, and the golden is pinned at 0.03.
    SweepOptions opts;
    opts.scale = 0.03;
    opts.writeJson = false;
    std::string actual = info->fn(opts).toJson().dump(2) + "\n";

    std::string path = std::string(RTDC_GOLDEN_DIR) + "/" + GetParam() +
                       ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "no golden " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    // Report the first differing line, not two 100 KB strings.
    std::string want = golden.str();
    auto diff = std::mismatch(actual.begin(), actual.end(), want.begin(),
                              want.end());
    EXPECT_TRUE(actual == want)
        << path << " differs at line "
        << 1 + std::count(actual.begin(), diff.first, '\n');
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SweepGolden, ::testing::ValuesIn(sweepNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace rtd::harness
