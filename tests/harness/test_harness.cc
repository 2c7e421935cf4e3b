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
#include "harness/trace_share.h"
#include "serve/wire.h"
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
using harness::TraceShare;

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
        if (jobs[i].config.scheme == compress::Scheme::Dictionary) {
            EXPECT_GT(serial[i].result.stats.exceptions, 0u)
                << jobs[i].tag;
        }
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
// TraceShare: handler-replay traces shared across a batch's jobs.
// ---------------------------------------------------------------------

namespace {

/** One image per (scheme, second register file), each at three machine
 *  points: I-cache size, memory latency and predictor size vary. Point
 *  major, so four workers start four keys and the next wave seeds. */
std::vector<Job>
sharedImageJobs()
{
    workload::WorkloadSpec spec =
        workload::scaledSpec(workload::paperBenchmark("go"), 0.03);
    struct Handler
    {
        compress::Scheme scheme;
        bool rf;
    };
    const Handler handlers[] = {
        {compress::Scheme::Dictionary, false},
        {compress::Scheme::Dictionary, true},
        {compress::Scheme::CodePack, false},
        {compress::Scheme::CodePack, true},
    };
    std::vector<Job> jobs;
    for (int point = 0; point < 3; ++point) {
        for (const Handler &h : handlers) {
            Job job;
            job.workload = spec;
            job.config.cpu = core::paperMachine((1u << point) * 1024);
            job.config.cpu.memTiming.firstAccessCycles = 5 + 15 * point;
            job.config.cpu.predictorEntries = 256u << (2 * point);
            job.config.scheme = h.scheme;
            job.config.secondRegFile = h.rf;
            job.tag = std::string(compress::schemeName(h.scheme)) +
                      (h.rf ? "+rf/" : "/") + std::to_string(point);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

void
expectSameRows(const std::vector<JobResult> &got,
               const std::vector<JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].ok) << got[i].error;
        EXPECT_EQ(serve::runStatsDiff(got[i].result.stats,
                                      want[i].result.stats),
                  "")
            << "job " << i;
    }
}

} // namespace

TEST(TraceShare, KeysSplitOnHandlerInputsOnly)
{
    std::vector<Job> jobs = sharedImageJobs();
    // Machine points of one image share a key.
    EXPECT_FALSE(TraceShare::keyOf(jobs[0]).empty());
    EXPECT_EQ(TraceShare::keyOf(jobs[0]), TraceShare::keyOf(jobs[8]));
    // The second register file changes the handler, not the image.
    EXPECT_NE(TraceShare::keyOf(jobs[0]), TraceShare::keyOf(jobs[1]));
    Job line = jobs[0];
    line.config.cpu.icache.lineBytes = 64;
    EXPECT_NE(TraceShare::keyOf(line), TraceShare::keyOf(jobs[0]));

    // Jobs that can neither seed nor publish have no key.
    Job job = jobs[0];
    job.config.cpu.engine = cpu::Engine::Oracle;
    EXPECT_EQ(TraceShare::keyOf(job), "");
    job = jobs[0];
    job.config.scheme = compress::Scheme::None;
    EXPECT_EQ(TraceShare::keyOf(job), "");
    job.config.scheme = compress::Scheme::ProcLzrw1;
    EXPECT_EQ(TraceShare::keyOf(job), "");
    job = jobs[0];
    job.config.observe.enabled = true;
    EXPECT_EQ(TraceShare::keyOf(job), "");
    job = jobs[0];
    job.config.fault.plans.push_back({1, fault::Site::Any, 1});
    EXPECT_EQ(TraceShare::keyOf(job), "");
}

TEST(TraceShare, KeyUsedOnceRetainsNothing)
{
    std::vector<Job> jobs;
    for (const Job &job : sharedImageJobs()) {
        if (job.tag.ends_with("/0"))
            jobs.push_back(job);
    }
    ASSERT_EQ(jobs.size(), 4u);
    TraceShare share(jobs);
    ArtifactCache cache;
    for (const Job &job : jobs)
        EXPECT_TRUE(harness::executeJob(job, cache, nullptr, &share).ok);
    EXPECT_EQ(share.stats().published, 0u);
    EXPECT_EQ(share.stats().seeded, 0u);
    EXPECT_EQ(share.stats().peakBytes, 0u);
}

TEST(TraceShare, StoreFreedAfterItsKeysLastJob)
{
    std::vector<Job> all = sharedImageJobs();
    std::vector<Job> jobs = {all[0], all[4], all[8]};  // one key
    TraceShare share(jobs);
    ArtifactCache cache;
    std::vector<JobResult> rows;
    rows.push_back(harness::executeJob(jobs[0], cache, nullptr, &share));
    EXPECT_EQ(share.stats().published, 1u);
    EXPECT_GT(share.stats().retainedBytes, 0u);
    rows.push_back(harness::executeJob(jobs[1], cache, nullptr, &share));
    EXPECT_EQ(share.stats().seeded, 1u);
    // The first store won: the seeded job publishes nothing more.
    EXPECT_EQ(share.stats().published, 1u);
    EXPECT_GT(share.stats().retainedBytes, 0u);
    rows.push_back(harness::executeJob(jobs[2], cache, nullptr, &share));
    EXPECT_EQ(share.stats().seeded, 2u);
    EXPECT_EQ(share.stats().rejected, 0u);
    EXPECT_EQ(share.stats().retainedBytes, 0u);
    EXPECT_GT(share.stats().peakBytes, 0u);

    std::vector<JobResult> unshared;
    for (const Job &job : jobs)
        unshared.push_back(harness::executeJob(job, cache));
    expectSameRows(rows, unshared);
}

TEST(TraceShare, NoStorePublishedOnceEveryJobStarted)
{
    // Three jobs of one key that all started before any finished: no
    // later job could use a store, so none is frozen.
    std::vector<Job> all = sharedImageJobs();
    std::vector<Job> jobs = {all[0], all[4], all[8]};
    TraceShare share(jobs);
    const std::string key = TraceShare::keyOf(jobs[0]);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(share.claim(key), nullptr);
    ArtifactCache cache;
    core::System system(cache.builtImage(jobs[0].workload, jobs[0].config),
                        jobs[0].config);
    system.run();
    ASSERT_TRUE(system.freezeTraces());
    share.offer(key, system);
    EXPECT_EQ(share.stats().published, 0u);
    EXPECT_EQ(share.stats().peakBytes, 0u);
}

TEST(TraceShare, SweepRunnerRowsIdenticalAtOneAndFourThreads)
{
    std::vector<Job> jobs = sharedImageJobs();
    ArtifactCache cache;
    std::vector<JobResult> unshared;
    for (const Job &job : jobs)
        unshared.push_back(harness::executeJob(job, cache));
    ArtifactCache serial_cache;
    expectSameRows(SweepRunner(1).run("share-serial", jobs, serial_cache),
                   unshared);
    ArtifactCache parallel_cache;
    expectSameRows(
        SweepRunner(4).run("share-parallel", jobs, parallel_cache),
        unshared);
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
                       "t.json", "--no-json",
                       "--observe", "--poison", "/CP"},
                      &opts));
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.scale, 0.25);
    EXPECT_EQ(opts.outPath, "t.json");
    EXPECT_FALSE(opts.writeJson);
    EXPECT_TRUE(opts.observe);
    EXPECT_EQ(opts.poisonTag, "/CP");
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
    EXPECT_THROW(parse({"table2", "--jobs", "0"}), SimError);
}

TEST(SweepOptions, RejectsScaleWithTrailingCharacters)
{
    EXPECT_THROW(parse({"table2", "--scale", "0.03abc"}), SimError);
}

TEST(SweepOptions, RejectsScaleEnvWithTrailingCharacters)
{
    EXPECT_TRUE(fromEnvIsFatal("RTDC_BENCH_SCALE", "0.03x"));
}
