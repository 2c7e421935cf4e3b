/**
 * @file
 * Sweep-harness suite: the determinism contract (parallel == serial),
 * artifact-cache sharing semantics, result-sink JSON round-tripping,
 * and the thread pool / JSON building blocks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/json.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "harness/sweeps.h"
#include "harness/thread_pool.h"
#include "support/logging.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::ArtifactCache;
using harness::Job;
using harness::JobResult;
using harness::Json;
using harness::ResultSink;
using harness::SweepRunner;
using harness::ThreadPool;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

// ---------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------

TEST(Json, DumpAndParseScalars)
{
    Json doc = Json::object();
    doc.set("str", "hi \"there\"\n");
    doc.set("int", int64_t{-42});
    doc.set("dbl", 2.515);
    doc.set("yes", true);
    doc.set("nothing", Json());

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(2), &parsed, &error)) << error;
    EXPECT_EQ(parsed.get("str").asString(), "hi \"there\"\n");
    EXPECT_EQ(parsed.get("int").asInt(), -42);
    EXPECT_DOUBLE_EQ(parsed.get("dbl").asDouble(), 2.515);
    EXPECT_TRUE(parsed.get("yes").asBool());
    EXPECT_TRUE(parsed.get("nothing").isNull());
}

TEST(Json, ParseRejectsMalformedInput)
{
    Json out;
    EXPECT_FALSE(Json::parse("{\"a\": }", &out));
    EXPECT_FALSE(Json::parse("[1, 2", &out));
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &out));
    EXPECT_FALSE(Json::parse("", &out));
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json doc = Json::object();
    doc.set("z", 1);
    doc.set("a", 2);
    EXPECT_EQ(doc.dump(), "{\"z\":1,\"a\":2}");
}

// ---------------------------------------------------------------------
// ArtifactCache
// ---------------------------------------------------------------------

TEST(ArtifactCache, SharesProgramsByContent)
{
    ArtifactCache cache;
    workload::WorkloadSpec spec = workload::tinySpec();
    auto a = cache.program(spec);
    auto b = cache.program(spec);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    workload::WorkloadSpec other = spec;
    other.seed += 1;
    auto c = cache.program(other);
    EXPECT_NE(a.get(), c.get());
}

TEST(ArtifactCache, SharesImagesByKeyAndSplitsBYScheme)
{
    ArtifactCache cache;
    workload::WorkloadSpec spec = workload::tinySpec();
    core::SystemConfig dict;
    dict.cpu = core::paperMachine();
    dict.scheme = compress::Scheme::Dictionary;

    auto a = cache.builtImage(spec, dict);
    auto b = cache.builtImage(spec, dict);
    EXPECT_EQ(a.get(), b.get()) << "identical keys must share the image";

    // The second register file and machine timing do not affect the
    // image: still the same artifact.
    core::SystemConfig dict_rf = dict;
    dict_rf.secondRegFile = true;
    dict_rf.cpu.icache.sizeBytes = 64 * 1024;
    EXPECT_EQ(cache.builtImage(spec, dict_rf).get(), a.get());

    // A different scheme compresses differently: distinct artifact.
    core::SystemConfig cp = dict;
    cp.scheme = compress::Scheme::CodePack;
    auto c = cache.builtImage(spec, cp);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(c->cimage.scheme, compress::Scheme::CodePack);
    EXPECT_EQ(a->cimage.scheme, compress::Scheme::Dictionary);
}

TEST(ArtifactCache, StableHashIsStable)
{
    EXPECT_EQ(harness::stableHash64("rtdc"),
              harness::stableHash64("rtdc"));
    EXPECT_NE(harness::stableHash64("rtdc"),
              harness::stableHash64("rtdd"));
}

// ---------------------------------------------------------------------
// SweepRunner determinism: a small Figure-4-style sweep at 0.05 scale
// must produce byte-identical per-job results with 1 and 4 workers.
// ---------------------------------------------------------------------

namespace {

std::vector<Job>
smallFigure4Jobs()
{
    const double scale = 0.05;  // RTDC_BENCH_SCALE=0.05 equivalent
    std::vector<Job> jobs;
    for (const char *name : {"go", "ijpeg"}) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(workload::paperBenchmark(name), scale);
        for (uint32_t icache_bytes : {4u * 1024, 16u * 1024}) {
            for (compress::Scheme scheme :
                 {compress::Scheme::None, compress::Scheme::Dictionary}) {
                Job job;
                job.tag = std::string(name) + "/" +
                          std::to_string(icache_bytes / 1024) + "KB/" +
                          compress::schemeName(scheme);
                job.workload = spec;
                job.config.cpu = core::paperMachine(icache_bytes);
                job.config.scheme = scheme;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

void
expectIdenticalResults(const std::vector<JobResult> &serial,
                       const std::vector<JobResult> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const cpu::RunStats &a = serial[i].result.stats;
        const cpu::RunStats &b = parallel[i].result.stats;
        EXPECT_EQ(a.cycles, b.cycles) << "job " << i;
        EXPECT_EQ(a.userInsns, b.userInsns) << "job " << i;
        EXPECT_EQ(a.handlerInsns, b.handlerInsns) << "job " << i;
        EXPECT_EQ(a.icacheMisses, b.icacheMisses) << "job " << i;
        EXPECT_EQ(a.dcacheMisses, b.dcacheMisses) << "job " << i;
        EXPECT_EQ(a.exceptions, b.exceptions) << "job " << i;
        EXPECT_EQ(a.resultValue, b.resultValue) << "job " << i;
        EXPECT_EQ(a.halted, b.halted) << "job " << i;
        EXPECT_EQ(serial[i].result.compressedPayloadBytes,
                  parallel[i].result.compressedPayloadBytes)
            << "job " << i;
        EXPECT_EQ(serial[i].result.originalTextBytes,
                  parallel[i].result.originalTextBytes)
            << "job " << i;
    }
}

} // namespace

TEST(SweepRunner, ParallelSweepMatchesSerialByteForByte)
{
    std::vector<Job> jobs = smallFigure4Jobs();

    ArtifactCache serial_cache;
    std::vector<JobResult> serial =
        SweepRunner(1).run("harness-test-serial", jobs, serial_cache);

    ArtifactCache parallel_cache;
    std::vector<JobResult> parallel =
        SweepRunner(4).run("harness-test-parallel", jobs, parallel_cache);

    expectIdenticalResults(serial, parallel);

    // The compressed runs actually decompressed code and halted cleanly.
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(serial[i].result.stats.halted) << jobs[i].tag;
        if (jobs[i].config.scheme == compress::Scheme::Dictionary)
            EXPECT_GT(serial[i].result.stats.exceptions, 0u)
                << jobs[i].tag;
    }
}

TEST(SweepRunner, CacheSharesProgramsAcrossPoints)
{
    std::vector<Job> jobs = smallFigure4Jobs();
    ArtifactCache cache;
    SweepRunner(2).run("harness-test-cache", jobs, cache);
    // 2 benchmarks x (1 program + native link + dictionary image) = 6
    // builds; every other lookup is a hit.
    EXPECT_EQ(cache.builds(), 6u);
    EXPECT_GT(cache.hits(), 0u);
}

// ---------------------------------------------------------------------
// ResultSink
// ---------------------------------------------------------------------

TEST(ResultSink, JsonRoundTripsThroughAParse)
{
    ResultSink sink("unit");
    sink.setScale(0.25);
    sink.setMachine(core::paperMachine());

    Json row = Json::object();
    row.set("benchmark", "go");
    row.set("icache_kb", 16);
    row.set("slowdown", 1.77);
    row.set("halted", true);
    sink.addRow(std::move(row));

    std::string path = "harness_roundtrip_test.json";
    ASSERT_TRUE(sink.writeJson(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(buffer.str(), &parsed, &error)) << error;
    EXPECT_EQ(parsed.get("sweep").asString(), "unit");
    EXPECT_DOUBLE_EQ(parsed.get("scale").asDouble(), 0.25);
    EXPECT_EQ(parsed.get("machine")
                  .get("icache")
                  .get("size_bytes")
                  .asInt(),
              16 * 1024);
    ASSERT_EQ(parsed.get("rows").size(), 1u);
    const Json &parsed_row = parsed.get("rows").at(0);
    EXPECT_EQ(parsed_row.get("benchmark").asString(), "go");
    EXPECT_EQ(parsed_row.get("icache_kb").asInt(), 16);
    EXPECT_DOUBLE_EQ(parsed_row.get("slowdown").asDouble(), 1.77);
    EXPECT_TRUE(parsed_row.get("halted").asBool());

    std::remove(path.c_str());
}

TEST(ResultSink, CsvUnionsColumnsInFirstSeenOrder)
{
    ResultSink sink("unit");
    Json row1 = Json::object();
    row1.set("a", 1);
    row1.set("b", "x,y");
    sink.addRow(std::move(row1));
    Json row2 = Json::object();
    row2.set("a", 2);
    row2.set("c", 3.5);
    sink.addRow(std::move(row2));

    std::string path = "harness_csv_test.csv";
    ASSERT_TRUE(sink.writeCsv(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), "a,b,c\n1,\"x,y\",\n2,,3.5\n");
    std::remove(path.c_str());
}

TEST(ResultSink, CsvEscapesQuotesNewlinesAndCarriageReturns)
{
    ResultSink sink("unit");
    Json row = Json::object();
    row.set("quoted", "say \"hi\"");
    row.set("newline", "two\nlines");
    row.set("cr", "dos\r\nline");
    row.set("plain", "safe");
    sink.addRow(std::move(row));

    std::string path = "harness_csv_escape_test.csv";
    ASSERT_TRUE(sink.writeCsv(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(),
              "quoted,newline,cr,plain\n"
              "\"say \"\"hi\"\"\",\"two\nlines\",\"dos\r\nline\","
              "safe\n");
    std::remove(path.c_str());
}

TEST(ResultSink, CsvQuotesNonScalarCells)
{
    // Array/object cells dump with commas and quotes; the writer must
    // quote the dump instead of corrupting the row structure.
    ResultSink sink("unit");
    Json arr = Json::array();
    arr.push(1);
    arr.push(2);
    Json obj = Json::object();
    obj.set("k", "v");
    Json row = Json::object();
    row.set("list", std::move(arr));
    row.set("nested", std::move(obj));
    row.set("tail", 9);
    sink.addRow(std::move(row));

    std::string path = "harness_csv_nonscalar_test.csv";
    ASSERT_TRUE(sink.writeCsv(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(),
              "list,nested,tail\n"
              "\"[1,2]\",\"{\"\"k\"\":\"\"v\"\"}\",9\n");
    std::remove(path.c_str());
}

TEST(ResultSink, MetricsKeyAppearsOnlyWhenAttached)
{
    ResultSink sink("unit");
    Json row = Json::object();
    row.set("a", 1);
    sink.addRow(std::move(row));
    EXPECT_EQ(sink.toJson().find("metrics"), nullptr)
        << "observe-off documents must keep their historical layout";
    EXPECT_EQ(sink.metricsCount(), 0u);

    Json metrics = Json::object();
    metrics.set("counters", Json::object());
    sink.addMetrics("go/dictionary", std::move(metrics));
    EXPECT_EQ(sink.metricsCount(), 1u);
    Json doc = sink.toJson();
    const Json *attached = doc.find("metrics");
    ASSERT_NE(attached, nullptr);
    ASSERT_NE(attached->find("go/dictionary"), nullptr);
    // "metrics" comes after "rows": observe-off output is a prefix.
    const auto &members = doc.members();
    EXPECT_EQ(members.back().first, "metrics");
}

TEST(ResultSink, MachineHeaderMatchesLegacyFormat)
{
    // The exact header string the pre-harness benches printed for the
    // paper's Table 1 machine.
    EXPECT_EQ(harness::machineHeaderLine(core::paperMachine()),
              "machine: 1-wide in-order | I$ 16KB/32B/2-way LRU | "
              "D$ 8KB/16B/2-way LRU | bimodal 2048 | mem 10-cycle "
              "latency, 2-cycle rate, 64-bit bus\n");
}

// ---------------------------------------------------------------------
// Sweep registry
// ---------------------------------------------------------------------

TEST(Sweeps, RegistryKnowsThePortedBenches)
{
    std::vector<std::string> names;
    for (const harness::SweepInfo &info : harness::sweeps())
        names.push_back(info.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "table2", "table3", "figure4", "figure5",
                         "kirovski", "thumb", "placement",
                         "ablation_memory", "ablation_linesize",
                         "ablation_handler", "dside", "matrix"}));
    EXPECT_EQ(harness::findSweep("nope"), nullptr);
}

// ---------------------------------------------------------------------
// Sweep options: one strict parser for the CLIs and the environment
// ---------------------------------------------------------------------

namespace {

/** parseSweepArgs over @p args; fatal() surfaces as SimError. */
bool
parse(const std::vector<std::string> &args,
      harness::SweepOptions *opts = nullptr)
{
    harness::SweepOptions scratch;
    std::string name;
    ScopedErrorTrap trap;
    return harness::parseSweepArgs(args, opts ? *opts : scratch, name);
}

/** SweepOptions::fromEnv() with @p var set to @p value; true when
 *  that is fatal. The variable's previous state is restored. */
bool
fromEnvIsFatal(const char *var, const char *value)
{
    const char *old = std::getenv(var);
    std::string saved = old ? old : "";
    setenv(var, value, 1);
    bool fatal = false;
    try {
        ScopedErrorTrap trap;
        harness::SweepOptions::fromEnv();
    } catch (const SimError &) {
        fatal = true;
    }
    if (old)
        setenv(var, saved.c_str(), 1);
    else
        unsetenv(var);
    return fatal;
}

} // namespace

TEST(SweepOptions, ParsesAFullCommandLine)
{
    harness::SweepOptions opts;
    ASSERT_TRUE(parse({"table2", "--jobs", "3", "--scale", "0.25", "--out",
                       "t.json", "--csv", "t.csv", "--no-json",
                       "--observe", "--poison", "/CP"},
                      &opts));
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.scale, 0.25);
    EXPECT_EQ(opts.outPath, "t.json");
    EXPECT_EQ(opts.csvPath, "t.csv");
    EXPECT_FALSE(opts.writeJson);
    EXPECT_TRUE(opts.observe);
    EXPECT_EQ(opts.poisonTag, "/CP");
    EXPECT_FALSE(fromEnvIsFatal("RTDC_JOBS", "2"));
    EXPECT_FALSE(fromEnvIsFatal("RTDC_BENCH_SCALE", "0.5"));
}

TEST(SweepOptions, UsageErrorsReturnFalse)
{
    EXPECT_FALSE(parse({}));
    EXPECT_FALSE(parse({"table2", "table3"}));
    EXPECT_FALSE(parse({"table2", "--bogus"}));
    EXPECT_FALSE(parse({"table2", "--scale"}));
}

TEST(SweepOptions, RejectsJobsWithTrailingCharacters)
{
    EXPECT_THROW(parse({"table2", "--jobs", "2x"}), SimError);
}

TEST(SweepOptions, RejectsScaleWithTrailingCharacters)
{
    EXPECT_THROW(parse({"table2", "--scale", "0.03abc"}), SimError);
}

TEST(SweepOptions, RejectsNonNumericJobsEnv)
{
    EXPECT_TRUE(fromEnvIsFatal("RTDC_JOBS", "abc"));
}

TEST(SweepOptions, RejectsZeroJobsEnv)
{
    EXPECT_TRUE(fromEnvIsFatal("RTDC_JOBS", "0"));
}

TEST(SweepOptions, RejectsScaleEnvWithTrailingCharacters)
{
    EXPECT_TRUE(fromEnvIsFatal("RTDC_BENCH_SCALE", "0.03x"));
}
