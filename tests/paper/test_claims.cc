/**
 * @file
 * Paper-claims regression suite: asserts the headline qualitative
 * results of the reproduction as predicates over the rows of the
 * registered sweeps at reduced dynamic scale, so calibration drift in
 * the workload generator or timing model is caught by CI rather than
 * discovered in the sweep output.
 *
 * Bands are deliberately loose — these tests check *shape* (orderings,
 * thresholds, asymmetries), not absolute numbers; EXPERIMENTS.md
 * records the precise paper-vs-measured values and tests/golden pins
 * the exact bytes. No claim reads a wall-clock value.
 */

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/sweeps.h"
#include "support/logging.h"
#include "workload/benchmarks.h"

namespace rtd::harness {
namespace {

using Match = std::vector<std::pair<std::string, Json>>;

/** The rows of registered sweep @p sweep at scale 0.25 (run once). */
const std::vector<Json> &
rows(const std::string &sweep)
{
    static std::map<std::string, std::vector<Json>> cache;
    auto it = cache.find(sweep);
    if (it == cache.end()) {
        setInformEnabled(false);
        SweepOptions opts;
        opts.scale = 0.25;
        opts.writeJson = false;
        Json doc = findSweep(sweep)->fn(opts).toJson();
        it = cache.emplace(sweep, doc.get("rows").items()).first;
    }
    return it->second;
}

/** Every row of @p sweep whose fields equal all of @p match. */
std::vector<const Json *>
select(const std::string &sweep, const Match &match)
{
    std::vector<const Json *> found;
    for (const Json &row : rows(sweep)) {
        if (std::all_of(match.begin(), match.end(), [&](const auto &kv) {
                const Json *field = row.find(kv.first);
                return field && field->dump() == kv.second.dump();
            }))
            found.push_back(&row);
    }
    return found;
}

/** Field @p key of the one row of @p sweep matching @p match. */
double
value(const std::string &sweep, const Match &match, const char *key)
{
    std::vector<const Json *> found = select(sweep, match);
    if (found.size() != 1) {
        ADD_FAILURE() << sweep << ": " << found.size()
                      << " rows match, want 1";
        return 0.0;
    }
    return found[0]->get(key).asDouble();
}

TEST(PaperClaims, Table2_CompressionRatioOrdering)
{
    // CodePack < dictionary < 1 for every benchmark; dictionary ratio
    // tracks the paper's per-benchmark value within a few points.
    for (const auto &benchmark : workload::paperBenchmarks()) {
        const std::string &name = benchmark.spec.name;
        double dict_pct =
            value("table2", {{"benchmark", name}}, "dict_ratio_pct");
        double cp_pct = value("table2", {{"benchmark", name}}, "cp_ratio_pct");
        EXPECT_LT(cp_pct, dict_pct) << name;
        EXPECT_LT(dict_pct, 100.0) << name;
        EXPECT_NEAR(dict_pct, benchmark.paperDictRatio, 4.0) << name;
        EXPECT_NEAR(cp_pct, benchmark.paperCodePackRatio, 6.0) << name;
    }
}

TEST(PaperClaims, Table2_MissRatioClasses)
{
    // Call-oriented benchmarks miss 1-4%; loop-oriented below 0.3%.
    for (const char *name : {"cc1", "go", "perl", "vortex"}) {
        double miss =
            value("table2", {{"benchmark", name}}, "miss_ratio_pct");
        EXPECT_GT(miss, 1.0) << name;
        EXPECT_LT(miss, 4.5) << name;
    }
    for (const char *name : {"ghostscript", "ijpeg", "mpeg2enc",
                             "pegwit"}) {
        double miss =
            value("table2", {{"benchmark", name}}, "miss_ratio_pct");
        EXPECT_LT(miss, 0.3) << name;
    }
}

TEST(PaperClaims, Table3_SlowdownBounds)
{
    // "The execution time of dictionary programs is no more than 3
    // times native code and the execution time of CodePack programs is
    // no more than 18 times native code."
    for (const auto &benchmark : workload::paperBenchmarks()) {
        const std::string &name = benchmark.spec.name;
        double dict = value("table3", {{"benchmark", name}}, "slowdown_d");
        double cp = value("table3", {{"benchmark", name}}, "slowdown_cp");
        EXPECT_LT(dict, 3.7) << name;
        EXPECT_LT(cp, 18.0) << name;
        EXPECT_GE(dict, 1.0) << name;
        // CodePack is never faster than the dictionary when fully
        // compressed.
        EXPECT_GE(cp, dict) << name;
    }
}

TEST(PaperClaims, Table3_SecondRegisterFileAsymmetry)
{
    // "Using a second register file reduces the overhead due to
    // dictionary decompression by nearly half. The CodePack algorithm
    // has only a small improvement."
    auto go = [](const char *key) {
        return value("table3", {{"benchmark", "go"}}, key);
    };
    double d_cut = (go("slowdown_d") - go("slowdown_d_rf")) /
                   (go("slowdown_d") - 1.0);
    double cp_cut = (go("slowdown_cp") - go("slowdown_cp_rf")) /
                    (go("slowdown_cp") - 1.0);
    EXPECT_GT(d_cut, 0.20);   // a substantial fraction of the overhead
    EXPECT_LT(cp_cut, 0.10);  // barely moves CodePack
}

TEST(PaperClaims, Figure4_MissRatioThresholds)
{
    // "Once the instruction cache miss ratio is below 1%, the
    // performance is less than 2 times slower" (dictionary); "less than
    // 5 times slower" (CodePack).
    for (const auto &benchmark : workload::paperBenchmarks()) {
        const std::string &name = benchmark.spec.name;
        auto at16 = [&](const char *figure, const char *key) {
            return value("figure4",
                         {{"benchmark", name}, {"figure", figure},
                          {"icache_kb", 16}},
                         key);
        };
        if (at16("4a", "native_miss_ratio_pct") >= 1.0)
            continue;
        EXPECT_LT(at16("4a", "slowdown"), 2.0) << name;
        EXPECT_LT(at16("4b", "slowdown"), 5.0) << name;
    }
}

TEST(PaperClaims, Figure4_BiggerCacheNeverHurtsMuch)
{
    // Slowdown decreases (or stays put) as the I-cache grows 4->64 KB.
    double prev = 1e9;
    for (int kb : {4, 16, 64}) {
        double s = value("figure4",
                         {{"benchmark", "perl"}, {"figure", "4a"},
                          {"icache_kb", kb}},
                         "slowdown");
        EXPECT_LT(s, prev * 1.05) << kb;  // small placement noise OK
        prev = s;
    }
}

TEST(PaperClaims, Figure5_MissBeatsExecOnLoopCode)
{
    // "There can be a substantial benefit for using miss-based
    // profiling on loop-oriented programs such as pegwit and mpeg2enc."
    for (const char *name : {"mpeg2enc", "pegwit"}) {
        auto at50 = [&](const char *policy) {
            return value("figure5",
                         {{"benchmark", name}, {"scheme", "codepack"},
                          {"policy", policy}, {"threshold_pct", 50.0}},
                         "slowdown");
        };
        EXPECT_LE(at50("miss"), at50("exec") + 0.005) << name;
    }
}

TEST(PaperClaims, Figure5_CurvesReachNativeAtFullSelection)
{
    // Full selection keeps every *executed* procedure native: the run
    // is at native speed. Procedures the shortened input never touched
    // stay compressed, so the size sits between the fully-compressed
    // ratio and 100%.
    Match full = {{"benchmark", "ijpeg"}, {"scheme", "dictionary"},
                  {"policy", "exec"}, {"threshold_pct", 100.0}};
    EXPECT_NEAR(value("figure5", full, "slowdown"), 1.0, 0.05);
    EXPECT_GT(value("figure5", full, "compression_ratio_pct"),
              value("table2", {{"benchmark", "ijpeg"}}, "dict_ratio_pct"));
}

TEST(PaperClaims, LoopCodeRunsAtNativeSpeedOnceCached)
{
    // "We have native performance for code once it is in the cache...
    // particularly effective in loop-oriented programs."
    EXPECT_LT(value("table3", {{"benchmark", "mpeg2enc"}}, "slowdown_d_rf"),
              1.08);
}

TEST(PaperClaims, DsideDataOnlyBeatsCodeOnly)
{
    // Data faults are rarer than I-misses and a page amortizes better
    // than a line, so data-only compression costs less than the
    // paper's code-only scenario on every benchmark, with either data
    // codec; and every data scenario really took D-faults.
    for (const auto &benchmark : workload::paperBenchmarks()) {
        const std::string &name = benchmark.spec.name;
        double code_only =
            value("dside", {{"benchmark", name}, {"scenario", "code-only"}},
                  "slowdown");
        std::vector<const Json *> data_only = select(
            "dside", {{"benchmark", name}, {"scenario", "data-only"}});
        EXPECT_EQ(data_only.size(), 2u) << name;
        for (const Json *row : data_only)
            EXPECT_LT(row->get("slowdown").asDouble(), code_only) << name;
    }
    for (const Json &row : rows("dside")) {
        if (row.get("scenario").asString() != "code-only") {
            EXPECT_GT(row.get("dmem_faults").asInt(), 0)
                << row.get("benchmark").asString();
        }
    }
}

TEST(PaperClaims, KirovskiProcCacheSlowerOnCallCode)
{
    // Section 5.2: on call-oriented code, decompressing whole
    // procedures into a procedure cache is slower than line-granular
    // dictionary decompression at every procedure-cache size.
    for (const char *name : {"cc1", "go"}) {
        double dict = value("kirovski",
                            {{"benchmark", name}, {"scheme", "dictionary"}},
                            "slowdown");
        std::vector<const Json *> proc = select(
            "kirovski", {{"benchmark", name}, {"scheme", "proc-lzrw1"}});
        EXPECT_EQ(proc.size(), 4u) << name;
        for (const Json *row : proc) {
            EXPECT_GT(row->get("slowdown").asDouble(), dict)
                << name << " " << row->get("pcache_kb").asInt() << "KB";
        }
    }
}

TEST(PaperClaims, ThumbCostIsFlat)
{
    // Section 3.3's cost locus: 16-bit code pays on every execution,
    // so its slowdown is flat across benchmarks, while decompression
    // pays per miss and costs more on the call-oriented ones.
    std::vector<const Json *> full =
        select("thumb", {{"experiment", "full"}});
    ASSERT_EQ(full.size(), workload::paperBenchmarks().size());
    auto by_thumb = [](const Json *a, const Json *b) {
        return a->get("thumb_slowdown").asDouble() <
               b->get("thumb_slowdown").asDouble();
    };
    auto [lo, hi] = std::minmax_element(full.begin(), full.end(), by_thumb);
    EXPECT_LT((*hi)->get("thumb_slowdown").asDouble() -
                  (*lo)->get("thumb_slowdown").asDouble(),
              0.05);
    for (const char *name : {"cc1", "go", "perl", "vortex"}) {
        Match match = {{"experiment", "full"}, {"benchmark", name}};
        EXPECT_GT(value("thumb", match, "slowdown_d_rf"),
                  value("thumb", match, "thumb_slowdown"))
            << name;
    }
}

TEST(PaperClaims, AblationMemory_CodePackOverheadRisesWithFasterMemory)
{
    // The handler's instructions do not get faster when DRAM does, so
    // CodePack's long handler weighs more against a faster native run,
    // while the dictionary handler, which is mostly memory traffic
    // itself, keeps its relative overhead. Checked on the call-oriented
    // benchmarks; on loop-oriented mpeg2enc neither overhead moves by
    // more than a few hundredths (EXPERIMENTS.md).
    for (const char *name : {"go", "perl"}) {
        auto overhead = [&](int latency, const char *key) {
            return value("ablation_memory",
                         {{"benchmark", name},
                          {"mem_latency_cycles", latency}},
                         key) -
                   1.0;
        };
        const double dict_ref = overhead(10, "slowdown_dictionary");
        double prev_cp = 1e9;
        for (int latency : {5, 10, 20, 40}) {
            const double cp = overhead(latency, "slowdown_codepack");
            EXPECT_LT(cp, prev_cp) << name << " @" << latency;
            prev_cp = cp;
            EXPECT_NEAR(overhead(latency, "slowdown_dictionary"), dict_ref,
                        0.05 * dict_ref)
                << name << " @" << latency;
        }
        EXPECT_GT(overhead(5, "slowdown_codepack"),
                  1.3 * overhead(40, "slowdown_codepack"))
            << name;
    }
}

TEST(PaperClaims, AblationHandler_UncachedLoadsRaiseDictionarySlowdown)
{
    // The dictionary handler is mostly loads of table words; sending
    // them past the D-cache costs at least half as much again.
    std::vector<const Json *> found =
        select("ablation_handler", {{"experiment", "cached_vs_uncached"},
                                    {"scheme", "dictionary"}});
    ASSERT_EQ(found.size(), 3u);
    for (const Json *row : found) {
        EXPECT_GT(row->get("slowdown_uncached").asDouble(),
                  1.5 * row->get("slowdown_cached").asDouble())
            << row->get("benchmark").asString();
    }
}

} // namespace
} // namespace rtd::harness
