/**
 * @file
 * Serve-subsystem suite: the wire codecs' exact round-trip, the
 * bounded FIFO JobQueue, and the daemon itself —
 * submit/results/status/cancel/stats over a real unix socket,
 * incremental resubmits, warm restarts from the journal-backed result
 * index and its LRU bound, structured backpressure, per-thread stats,
 * and failure-row containment for poisoned jobs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/job_queue.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::Job;
using harness::JobQueue;
using harness::JobResult;
using harness::Json;

namespace {

/** Fresh private directory under /tmp; leaked on purpose (tests are
 *  short-lived and the dir aids post-mortem debugging). */
std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_serve_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** A small deterministic job; @p seed varies the simulation point. */
Job
tinyJob(uint64_t seed, compress::Scheme scheme = compress::Scheme::None)
{
    Job job;
    job.tag = "serve-test/" + std::to_string(seed) + "/" +
              compress::schemeName(scheme);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    job.config.scheme = scheme;
    return job;
}

} // namespace

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

TEST(Wire, JobRoundTripsExactly)
{
    Job job = tinyJob(7, compress::Scheme::Dictionary);
    job.workload.hotTextFraction = 0.1 + 0.2;  // not representable exactly
    job.timeoutSeconds = 1.5;
    job.maxAttempts = 3;

    Json encoded = serve::encodeJob(job);
    // Through a dump/parse cycle, as on the socket.
    Json parsed;
    ASSERT_TRUE(Json::parse(encoded.dump(), &parsed));
    Job decoded;
    ASSERT_TRUE(serve::decodeJob(parsed, decoded));

    EXPECT_EQ(decoded.tag, job.tag);
    EXPECT_EQ(decoded.workload.hotTextFraction, job.workload.hotTextFraction);
    EXPECT_EQ(decoded.timeoutSeconds, job.timeoutSeconds);
    EXPECT_EQ(decoded.maxAttempts, job.maxAttempts);
    EXPECT_EQ(serve::jobContentKey(decoded), serve::jobContentKey(job));
}

TEST(Wire, ContentKeyIgnoresTagAndPolicy)
{
    Job a = tinyJob(1);
    Job b = a;
    b.tag = "different tag";
    b.timeoutSeconds = 99.0;
    b.maxAttempts = 7;
    EXPECT_EQ(serve::jobContentKey(a), serve::jobContentKey(b));

    Job c = a;
    c.workload.seed += 1;
    EXPECT_NE(serve::jobContentKey(a), serve::jobContentKey(c));
    Job d = a;
    d.config.scheme = compress::Scheme::Dictionary;
    EXPECT_NE(serve::jobContentKey(a), serve::jobContentKey(d));
}

TEST(Wire, ContentKeyAndSweepIdBytesArePinned)
{
    // Result-index keys and sweep ids live on in journals: a daemon
    // started on an older directory answers from it only while these
    // bytes stay put.
    Job a = tinyJob(1);
    Job b = tinyJob(2, compress::Scheme::Dictionary);
    b.workload.hotTextFraction = 0.1 + 0.2;
    b.timeoutSeconds = 1.5;
    const std::string golden_key =
        R"({"workload":{"name":"tiny","seed":1,"text":49152,)"
        R"("hotProcs":2,"coldProcs":24,"hotFrac":0.10000000000000001,)"
        R"("uniq":0.25,"reuse":5,"br":0.080000000000000002,)"
        R"("mem":0.17999999999999999,"dyn":150000,"iters":10,"calls":6,)"
        R"("zipf":0.69999999999999996,"burst":1,"dataB":256},)"
        R"("config":{"cpu":{"icache":{"size":4096,"line":32,"assoc":2},)"
        R"("dcache":{"size":8192,"line":16,"assoc":2},)"
        R"("predEntries":2048,"predKind":0,"mispredict":3,"redirect":1,)"
        R"("excEntry":3,"excReturn":3,"secondRegFile":false,)"
        R"("handlerDataUncached":false,"verify":true,"memFirst":10,)"
        R"("memBurst":2,"memBus":8,"maxUserInsns":2000000000,)"
        R"("traceInsns":0,"mcRetryLimit":0,"handlerBudget":0,)"
        R"("l2Enabled":false,"l2Size":262144,"l2Line":64,"l2Assoc":8,)"
        R"("l2Hit":8,"l2Decomp":16},"scheme":0,"secondRegFile":false,)"
        R"("regions":"","order":[],"dataCompression":0,"dmemScheme":1,)"
        R"("dmemPage":256,"dmemStaging":0,"profiling":false,)"
        R"("pcCapacity":65536,"pcDispatch":50,"integrity":false,)"
        R"("fault":[],"obsEnabled":false,"obsTrace":false,)"
        R"("obsTraceCap":65536,"obsHeatmap":true}})";
    EXPECT_EQ(serve::jobContentKey(a), golden_key);

    std::vector<std::string> job_json;
    for (const Job &job : {a, b}) {
        // The submit path's one-dump encodings are the same bytes.
        serve::CanonicalJob canonical = serve::canonicalJob(job);
        EXPECT_EQ(canonical.key, serve::jobContentKey(job));
        EXPECT_EQ(canonical.json, serve::encodeJob(job).dump());
        job_json.push_back(canonical.json);
    }
    EXPECT_EQ(serve::sweepContentId("golden", job_json), "aa52b7a90993366b");
}

TEST(Wire, DecodesConfigsThatCarryTheRemovedEngineFlag)
{
    // paperMachine(4 KB) as encoded while CpuConfig still had the
    // engine flags predecode, blockExec and superblockExec. Journals,
    // disk caches and clients from then carry them; decoding must
    // accept them, whatever their values, and ignore them: the engine
    // never changes a result, so the current encoding carries none.
    const std::string old_config =
        R"({"cpu":{"icache":{"size":4096,"line":32,"assoc":2},)"
        R"("dcache":{"size":8192,"line":16,"assoc":2},)"
        R"("predEntries":2048,"predKind":0,"mispredict":3,"redirect":1,)"
        R"("excEntry":3,"excReturn":3,"secondRegFile":false,)"
        R"("handlerDataUncached":false,"predecode":true,"blockExec":true,)"
        R"("superblockExec":true,"verify":true,"memFirst":10,)"
        R"("memBurst":2,"memBus":8,"maxUserInsns":2000000000,)"
        R"("traceInsns":0,"mcRetryLimit":0,"handlerBudget":0,)"
        R"("l2Enabled":false,"l2Size":262144,"l2Line":64,"l2Assoc":8,)"
        R"("l2Hit":8,"l2Decomp":16},"scheme":0,"secondRegFile":false,)"
        R"("regions":"","order":[],"dataCompression":0,"dmemScheme":1,)"
        R"("dmemPage":256,"dmemStaging":0,"profiling":false,)"
        R"("pcCapacity":65536,"pcDispatch":50,"integrity":false,)"
        R"("fault":[],"obsEnabled":false,"obsTrace":false,)"
        R"("obsTraceCap":65536,"obsHeatmap":true})";
    const std::string flags =
        R"("predecode":true,"blockExec":true,"superblockExec":true,)";
    size_t at = old_config.find(flags);
    ASSERT_NE(at, std::string::npos);

    core::SystemConfig machine;
    machine.cpu = core::paperMachine(4 * 1024);
    const Json current = serve::encodeConfig(machine);
    for (const char *member :
         {"engine", "predecode", "blockExec", "superblockExec"})
        EXPECT_EQ(current.get("cpu").find(member), nullptr) << member;
    EXPECT_EQ(current.dump(),
              std::string(old_config).erase(at, flags.size()));

    // Every era's flags, including the Oracle's old spelling.
    for (const char *old_flags :
         {R"("predecode":true,"blockExec":true,"superblockExec":true,)",
          R"("predecode":true,"blockExec":true,"superblockExec":false,)",
          R"("predecode":true,"blockExec":true,)",
          R"("predecode":false,"blockExec":false,)"}) {
        std::string text = old_config;
        text.replace(at, flags.size(), old_flags);
        Json parsed;
        ASSERT_TRUE(Json::parse(text, &parsed)) << old_flags;
        core::SystemConfig decoded;
        ASSERT_TRUE(serve::decodeConfig(parsed, decoded)) << old_flags;
        EXPECT_EQ(decoded.cpu.engine, cpu::Engine::Blocks) << old_flags;
        EXPECT_EQ(serve::encodeConfig(decoded).dump(), current.dump())
            << old_flags;
    }
}

TEST(Wire, RejectsJobsNamingRemovedPredictorsOrSchemes)
{
    // Journals and clients from before predictor kinds 1 and 2, scheme
    // 4, the instruction trace and the compressed-L2 model were removed
    // may still name them. Such a job must fail to decode, never run on
    // bimodal, on another scheme or without the named model; a result
    // that counts L2 traffic must fail too.
    const std::string good =
        serve::encodeJob(tinyJob(5, compress::Scheme::Dictionary)).dump();
    auto decodes = [](const std::string &text) {
        Json parsed;
        EXPECT_TRUE(Json::parse(text, &parsed)) << text;
        Job job;
        return serve::decodeJob(parsed, job);
    };
    ASSERT_TRUE(decodes(good));
    auto replaced = [&good](const std::string &from,
                            const std::string &to) {
        size_t at = good.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return std::string(good).replace(at, from.size(), to);
    };
    EXPECT_TRUE(decodes(replaced(R"("scheme":1,)", R"("scheme":3,)")));
    EXPECT_FALSE(decodes(replaced(R"("predKind":0,)", R"("predKind":1,)")));
    EXPECT_FALSE(decodes(replaced(R"("predKind":0,)", R"("predKind":2,)")));
    EXPECT_FALSE(decodes(replaced(R"("scheme":1,)", R"("scheme":4,)")));
    EXPECT_FALSE(
        decodes(replaced(R"("traceInsns":0,)", R"("traceInsns":5,)")));
    EXPECT_FALSE(decodes(
        replaced(R"("l2Enabled":false,)", R"("l2Enabled":true,)")));
    EXPECT_FALSE(decodes(
        replaced(R"("l2Size":262144,)", R"("l2Size":131072,)")));

    const std::string row = serve::encodeJobResult(JobResult{}).dump();
    auto resultDecodes = [](const std::string &text) {
        Json parsed;
        EXPECT_TRUE(Json::parse(text, &parsed)) << text;
        JobResult result;
        return serve::decodeJobResult(parsed, result);
    };
    ASSERT_TRUE(resultDecodes(row));
    size_t at = row.find(R"("l2Hits":0,)");
    ASSERT_NE(at, std::string::npos);
    EXPECT_FALSE(resultDecodes(
        std::string(row).replace(at, 11, R"("l2Hits":1,)")));
}

TEST(Wire, RunStatsDiffNamesTheFirstDifferingField)
{
    cpu::RunStats a;
    cpu::RunStats b;
    EXPECT_EQ(serve::runStatsDiff(a, b), "");
    b.dmemSpills = 7;
    b.cancelled = true;
    EXPECT_EQ(serve::runStatsDiff(a, b), "dmemSpills: 0 vs 7");
    a.dmemSpills = 7;
    EXPECT_EQ(serve::runStatsDiff(a, b), "cancelled: false vs true");
}

TEST(Wire, JobResultRoundTripsThroughExecution)
{
    harness::ArtifactCache cache;
    JobResult result = harness::executeJob(tinyJob(3), cache, nullptr);
    ASSERT_TRUE(result.ok);

    Json parsed;
    ASSERT_TRUE(
        Json::parse(serve::encodeJobResult(result).dump(), &parsed));
    JobResult decoded;
    ASSERT_TRUE(serve::decodeJobResult(parsed, decoded));

    EXPECT_EQ(decoded.ok, result.ok);
    EXPECT_EQ(decoded.wallSeconds, result.wallSeconds);
    EXPECT_EQ(decoded.result.stats.cycles, result.result.stats.cycles);
    EXPECT_EQ(decoded.result.stats.userInsns,
              result.result.stats.userInsns);
    EXPECT_EQ(decoded.result.compressedPayloadBytes,
              result.result.compressedPayloadBytes);
}

// ---------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------

TEST(JobQueueTest, PopsInPushOrderAcrossBatches)
{
    JobQueue<int> queue;
    ASSERT_TRUE(queue.pushBatch({1, 2}));
    ASSERT_TRUE(queue.pushBatch({10, 11}));
    ASSERT_TRUE(queue.pushBatch({3}));

    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        int value = -1;
        ASSERT_TRUE(queue.pop(value));
        order.push_back(value);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11, 3}));
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(JobQueueTest, HighWaterRejectsWholeBatch)
{
    JobQueue<int> queue(3);
    EXPECT_EQ(queue.highWater(), 3u);
    ASSERT_TRUE(queue.pushBatch({1, 2}));
    // 2 + 2 > 3: nothing from the batch may enter.
    EXPECT_FALSE(queue.pushBatch({3, 4}));
    EXPECT_EQ(queue.depth(), 2u);
    // A batch that fits exactly is accepted.
    ASSERT_TRUE(queue.pushBatch({3}));
    EXPECT_EQ(queue.depth(), 3u);
    EXPECT_FALSE(queue.pushBatch({4}));
    // Recovery's forcePush ignores the mark.
    ASSERT_TRUE(queue.forcePush({4, 5}));
    EXPECT_EQ(queue.depth(), 5u);
}

TEST(JobQueueTest, CloseWakesBlockedPopAndRefusesPush)
{
    JobQueue<int> queue;
    std::atomic<bool> popReturned{false};
    std::thread waiter([&] {
        int value = 0;
        bool got = queue.pop(value);
        EXPECT_FALSE(got);
        popReturned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.close();
    waiter.join();
    EXPECT_TRUE(popReturned.load());
    EXPECT_FALSE(queue.pushBatch({1}));
    EXPECT_FALSE(queue.forcePush({1, 2}));
    int value = 0;
    EXPECT_FALSE(queue.pop(value));
}

// ---------------------------------------------------------------------
// The daemon over a real socket
// ---------------------------------------------------------------------

namespace {

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = tempDir();
        config_.socketPath = dir_ + "/daemon.sock";
        config_.cacheDir = dir_ + "/cache";
        config_.workers = 2;
        startServer();
    }

    void startServer()
    {
        server_ = std::make_unique<serve::Server>(config_);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }

    serve::Client connectedClient()
    {
        serve::Client client;
        std::string error;
        EXPECT_TRUE(client.connect(config_.socketPath, error)) << error;
        return client;
    }

    /** The daemon's raw `stats` reply. */
    Json stats(serve::Client &client)
    {
        std::string error;
        Json request = Json::object();
        request.set("op", "stats");
        Json reply;
        EXPECT_TRUE(client.call(request, reply, error)) << error;
        return reply;
    }

    /** One counter of the stats `result_index` object. */
    int64_t indexStat(serve::Client &client, const char *name)
    {
        Json reply = stats(client);
        const Json *index = reply.find("result_index");
        EXPECT_NE(index, nullptr);
        return index ? index->get(name).asInt() : -1;
    }

    /** Submit + fetch, asserting transport success. */
    std::vector<JobResult>
    runRemote(serve::Client &client, const std::vector<Job> &jobs,
              uint64_t *cached_rows = nullptr)
    {
        std::string error;
        std::string sweep_id;
        uint64_t cached = 0;
        EXPECT_TRUE(client.submit("test", jobs, sweep_id, cached, error))
            << error;
        std::vector<JobResult> results(jobs.size());
        EXPECT_TRUE(client.fetchResults(sweep_id, results, cached_rows,
                                        error))
            << error;
        return results;
    }

    /**
     * Submit @p jobs over a raw connection and return each streamed
     * row's `result` member exactly as the daemon wrote it.
     */
    std::vector<std::string> rawRows(const std::vector<Job> &jobs,
                                     uint64_t &cached)
    {
        std::string error;
        int fd = serve::connectUnix(config_.socketPath, error);
        EXPECT_GE(fd, 0) << error;
        serve::LineChannel channel(fd);
        Json submit = Json::object();
        submit.set("op", "submit");
        submit.set("label", "raw");
        Json list = Json::array();
        for (const Job &job : jobs)
            list.push(serve::encodeJob(job));
        submit.set("jobs", std::move(list));
        Json reply;
        EXPECT_TRUE(channel.writeJson(submit));
        EXPECT_TRUE(channel.readJson(reply, error)) << error;
        cached = static_cast<uint64_t>(reply.get("cached").asInt());
        Json results = Json::object();
        results.set("op", "results");
        results.set("sweep_id", reply.get("sweep_id"));
        EXPECT_TRUE(channel.writeJson(results));
        // Each row line is {"ok":..,"job":..,"cached":..,"result":ROW}.
        const std::string marker = "\"result\":";
        std::vector<std::string> rows;
        std::string line;
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_TRUE(channel.readLine(line));
            size_t at = line.find(marker);
            EXPECT_NE(at, std::string::npos) << line;
            if (at == std::string::npos)
                break;
            at += marker.size();
            rows.push_back(line.substr(at, line.size() - at - 1));
        }
        EXPECT_TRUE(channel.readLine(line));  // the completion line
        return rows;
    }

    std::string dir_;
    serve::ServerConfig config_;
    std::unique_ptr<serve::Server> server_;
};

} // namespace

TEST_F(ServeTest, SweepMatchesLocalExecutionRowForRow)
{
    std::vector<Job> jobs = {tinyJob(1), tinyJob(2),
                             tinyJob(1, compress::Scheme::Dictionary)};

    harness::ArtifactCache local;
    std::vector<JobResult> expected;
    for (const Job &job : jobs)
        expected.push_back(harness::executeJob(job, local, nullptr));

    serve::Client client = connectedClient();
    std::vector<JobResult> remote = runRemote(client, jobs);

    ASSERT_EQ(remote.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(remote[i].ok) << remote[i].error;
        EXPECT_EQ(remote[i].result.stats.cycles,
                  expected[i].result.stats.cycles)
            << "job " << i;
        EXPECT_EQ(remote[i].result.stats.userInsns,
                  expected[i].result.stats.userInsns)
            << "job " << i;
        EXPECT_EQ(remote[i].result.compressedPayloadBytes,
                  expected[i].result.compressedPayloadBytes)
            << "job " << i;
    }
}

TEST_F(ServeTest, ResubmitIsAnsweredFromTheResultIndex)
{
    std::vector<Job> jobs = {tinyJob(10), tinyJob(11)};
    serve::Client client = connectedClient();

    uint64_t cached = 0;
    std::vector<JobResult> first = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, 0u);

    // The cold sweep journals one Begin and one Done per job; a Done
    // lands just after its row is published, so wait for the last one.
    auto appended = [&] {
        return stats(client).get("journal").get("appended").asInt();
    };
    int64_t cold = static_cast<int64_t>(1 + jobs.size());
    for (int i = 0; i < 500 && appended() < cold; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(appended(), cold);

    std::vector<JobResult> second = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    // A sweep the index answers whole writes nothing to the journal.
    EXPECT_EQ(appended(), cold);
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].result.stats.cycles,
                  first[i].result.stats.cycles);
    }
}

TEST_F(ServeTest, RestartedDaemonServesResultsFromDisk)
{
    std::vector<Job> jobs = {tinyJob(20), tinyJob(21)};
    std::vector<JobResult> first;
    {
        serve::Client client = connectedClient();
        first = runRemote(client, jobs);
    }
    server_.reset();
    // A row whose wall time takes 17 digits to print, journaled over
    // the first one: rows must come through replay and compaction
    // exact to the last bit of every double.
    first[0].wallSeconds = 1.0 / 3.0;
    {
        serve::Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(config_.cacheDir + "/journal.rtdj", {},
                                 error))
            << error;
        ASSERT_TRUE(journal.replay([](uint32_t, const Json &) {}, error))
            << error;
        Json row = Json::object();
        row.set("key", serve::jobContentKey(jobs[0]));
        row.set("result", serve::encodeJobResult(first[0]));
        ASSERT_TRUE(journal.append(serve::Journal::kRow, row));
    }

    // Cold process, warm directory, twice: the second start replays
    // the rows the first one compacted.
    startServer();
    server_.reset();
    startServer();

    // Replay rebuilt the index from the journal, the directory's only
    // data file.
    serve::Client client = connectedClient();
    EXPECT_EQ(indexStat(client, "rows"),
              static_cast<int64_t>(jobs.size()));
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(config_.cacheDir))
        files.push_back(entry.path().filename().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files,
              (std::vector<std::string>{"daemon.lock", "journal.rtdj"}));

    uint64_t cached = 0;
    std::vector<JobResult> again = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(again[i].ok) << again[i].error;
        EXPECT_EQ(serve::encodeJobResult(again[i]).dump(),
                  serve::encodeJobResult(first[i]).dump());
    }
}

TEST_F(ServeTest, WarmResubmitStreamsTheColdRowsByteForByte)
{
    std::vector<Job> jobs = {tinyJob(90), tinyJob(91)};
    uint64_t cached = 0;
    std::vector<std::string> cold = rawRows(jobs, cached);
    EXPECT_EQ(cached, 0u);
    ASSERT_EQ(cold.size(), jobs.size());
    server_.reset();

    // Plant a row whose wall time needs all 17 digits, then restart:
    // the index must hand back every row as the bytes first written.
    Job planted_job = tinyJob(92);
    harness::ArtifactCache cache;
    JobResult planted = harness::executeJob(planted_job, cache, nullptr);
    planted.wallSeconds = 1.0 / 3.0;
    const std::string planted_row = serve::encodeJobResult(planted).dump();
    ASSERT_NE(planted_row.find("\"wallSeconds\":0.33333333333333331"),
              std::string::npos);
    {
        serve::Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(config_.cacheDir + "/journal.rtdj", {},
                                 error))
            << error;
        ASSERT_TRUE(journal.replay([](uint32_t, const Json &) {}, error))
            << error;
        Json row = Json::object();
        row.set("key", serve::jobContentKey(planted_job));
        row.set("result", serve::encodeJobResult(planted));
        ASSERT_TRUE(journal.append(serve::Journal::kRow, row));
    }
    startServer();
    jobs.push_back(planted_job);

    serve::Client client = connectedClient();
    auto appended = [&] {
        return stats(client).get("journal").get("appended").asInt();
    };
    const int64_t appended_before = appended();
    std::vector<std::string> warm = rawRows(jobs, cached);
    EXPECT_EQ(cached, jobs.size());
    ASSERT_EQ(warm.size(), jobs.size());
    EXPECT_EQ(warm[0], cold[0]);
    EXPECT_EQ(warm[1], cold[1]);
    EXPECT_EQ(warm[2], planted_row);
    // Warm again on the same daemon: the same bytes, and an answer
    // from the index alone journals nothing.
    EXPECT_EQ(rawRows(jobs, cached), warm);
    EXPECT_EQ(cached, jobs.size());
    EXPECT_EQ(appended(), appended_before);
}

TEST_F(ServeTest, IndexBoundKeepsRecentlyUsedRowsAcrossRestart)
{
    Job a = tinyJob(80), b = tinyJob(81), c = tinyJob(82);
    int64_t row_bytes = 0;
    std::vector<JobResult> first_a;
    {
        serve::Client client = connectedClient();
        first_a = runRemote(client, {a});
        row_bytes = indexStat(client, "bytes");
    }
    ASSERT_GT(row_bytes, 0);

    // Room for two rows, not three.
    server_.reset();
    config_.cacheMaxBytes = static_cast<uint64_t>(row_bytes) * 5 / 2;
    startServer();
    {
        serve::Client client = connectedClient();
        uint64_t cached = 0;
        runRemote(client, {b}, &cached);
        EXPECT_EQ(cached, 0u);
        runRemote(client, {a}, &cached);  // a is now the most recent
        EXPECT_EQ(cached, 1u);
        runRemote(client, {c}, &cached);  // evicts b, the oldest
        EXPECT_EQ(cached, 0u);
        EXPECT_EQ(indexStat(client, "rows"), 2);
        EXPECT_EQ(indexStat(client, "evictions"), 1);
    }

    // Compaction wrote a, then c; replay restores that order, so the
    // next new row evicts a.
    server_.reset();
    startServer();
    serve::Client client = connectedClient();
    EXPECT_EQ(indexStat(client, "rows"), 2);
    uint64_t cached = 0;
    runRemote(client, {b}, &cached);
    EXPECT_EQ(cached, 0u);  // evicted before the restart: re-runs
    runRemote(client, {c}, &cached);
    EXPECT_EQ(cached, 1u);
    std::vector<JobResult> again_a = runRemote(client, {a}, &cached);
    EXPECT_EQ(cached, 0u);  // the oldest row after the restart
    ASSERT_EQ(again_a.size(), 1u);
    EXPECT_EQ(again_a[0].result.stats.cycles,
              first_a[0].result.stats.cycles);
}

TEST_F(ServeTest, PoisonedJobFailsStructurallyAmongHealthySiblings)
{
    std::vector<Job> jobs = {tinyJob(30), tinyJob(31), tinyJob(32)};
    jobs[1].workload.hotProcs = 0;  // the generator rejects this

    serve::Client client = connectedClient();
    std::vector<JobResult> rows = runRemote(client, jobs);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_TRUE(rows[0].ok) << rows[0].error;
    EXPECT_FALSE(rows[1].ok);
    EXPECT_FALSE(rows[1].error.empty());
    EXPECT_TRUE(rows[2].ok) << rows[2].error;

    // Failed rows are never indexed: the poisoned job re-runs (and
    // fails again) on resubmit while its siblings are index hits.
    uint64_t cached = 0;
    rows = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, 2u);
    EXPECT_FALSE(rows[1].ok);
}

TEST_F(ServeTest, ConcurrentClientsIsolatePoisonedAndHungJobs)
{
    // Client A's sweep carries a poisoned job (generator rejects) and a
    // hung one (big workload, tiny watchdog timeout); client B runs a
    // healthy sweep at the same time over the same worker pool. B must
    // complete normally while A gets structured failure rows for
    // exactly the bad jobs.
    std::vector<Job> bad = {tinyJob(50), tinyJob(51), tinyJob(52)};
    bad[0].workload.hotProcs = 0;
    bad[1].workload.targetDynamicInsns = 500'000'000;
    bad[1].timeoutSeconds = 0.05;
    std::vector<Job> good = {tinyJob(60), tinyJob(61)};

    std::vector<JobResult> bad_rows, good_rows;
    std::thread a([&] {
        serve::Client client = connectedClient();
        bad_rows = runRemote(client, bad);
    });
    std::thread b([&] {
        serve::Client client = connectedClient();
        good_rows = runRemote(client, good);
    });
    a.join();
    b.join();

    ASSERT_EQ(bad_rows.size(), 3u);
    EXPECT_FALSE(bad_rows[0].ok);
    EXPECT_FALSE(bad_rows[0].error.empty());
    EXPECT_FALSE(bad_rows[1].ok);
    EXPECT_TRUE(bad_rows[1].timedOut);
    EXPECT_TRUE(bad_rows[2].ok) << bad_rows[2].error;

    ASSERT_EQ(good_rows.size(), 2u);
    for (const JobResult &row : good_rows)
        EXPECT_TRUE(row.ok) << row.error;
}

TEST_F(ServeTest, ProtocolErrorsKeepTheConnectionUsable)
{
    serve::Client client = connectedClient();
    std::string error;
    harness::Json reply;

    // Unknown op.
    harness::Json bad = harness::Json::object();
    bad.set("op", "frobnicate");
    ASSERT_TRUE(client.call(bad, reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // Malformed line (not even JSON).
    ASSERT_TRUE(client.channel()->writeLine("this is not json"));
    ASSERT_TRUE(client.channel()->readJson(reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // Status of a sweep that never existed.
    harness::Json status = harness::Json::object();
    status.set("op", "status");
    status.set("sweep_id", uint64_t{999});
    ASSERT_TRUE(client.call(status, reply, error)) << error;
    EXPECT_FALSE(reply.get("ok").asBool());

    // The same connection still works for real traffic.
    EXPECT_TRUE(client.ping(error)) << error;
}

TEST_F(ServeTest, StatsReportServiceMetricsAndDiskCounters)
{
    serve::Client client = connectedClient();
    std::vector<Job> jobs = {tinyJob(40)};
    runRemote(client, jobs);

    std::string error;
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    harness::Json reply;
    ASSERT_TRUE(client.call(request, reply, error)) << error;
    ASSERT_TRUE(reply.get("ok").asBool());

    EXPECT_GE(reply.get("jobs_done").asInt(), 1);
    EXPECT_EQ(reply.get("sweeps_submitted").asInt(), 1);
    EXPECT_GE(reply.get("jobs_per_second").asDouble(), 0.0);
    // The registry JSON carries the gauges the daemon maintains.
    const harness::Json &metrics = reply.get("metrics");
    ASSERT_NE(metrics.find("gauges"), nullptr);
    ASSERT_NE(metrics.get("gauges").find("connections"), nullptr);
    // The result index holds one row for the one job, and the
    // journal carried it to disk.
    ASSERT_NE(reply.find("result_index"), nullptr);
    EXPECT_EQ(reply.get("result_index").get("rows").asInt(), 1);
    EXPECT_GT(reply.get("result_index").get("bytes").asInt(), 0);
    EXPECT_EQ(reply.get("result_index").get("evictions").asInt(), 0);
    ASSERT_NE(reply.find("journal"), nullptr);
}

TEST_F(ServeTest, SweepSharesHandlerTracesAcrossItsJobs)
{
    // One image at four I-cache sizes on two worker threads: the third
    // job starts only after one of the first two finished and published
    // its trace store, so it (and the fourth) start from it.
    std::vector<Job> jobs;
    for (uint32_t kb : {1u, 2u, 4u, 8u}) {
        Job job = tinyJob(50, compress::Scheme::Dictionary);
        job.config.cpu = core::paperMachine(kb * 1024);
        job.tag += "/" + std::to_string(kb) + "KB";
        jobs.push_back(std::move(job));
    }
    harness::ArtifactCache local;
    std::vector<JobResult> expected;
    for (const Job &job : jobs)
        expected.push_back(harness::executeJob(job, local));

    serve::Client client = connectedClient();
    std::vector<JobResult> remote = runRemote(client, jobs);
    ASSERT_EQ(remote.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(remote[i].ok) << remote[i].error;
        EXPECT_EQ(serve::runStatsDiff(remote[i].result.stats,
                                      expected[i].result.stats),
                  "")
            << "job " << i;
    }

    std::string error;
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    harness::Json reply;
    ASSERT_TRUE(client.call(request, reply, error)) << error;
    ASSERT_NE(reply.find("trace_share"), nullptr);
    const harness::Json &share = reply.get("trace_share");
    EXPECT_EQ(share.get("stores_published").asInt(), 1);
    EXPECT_GE(share.get("seeded_jobs").asInt(), 2);
    EXPECT_EQ(share.get("seeds_rejected").asInt(), 0);
    EXPECT_GT(share.get("peak_retained_bytes").asInt(), 0);
}

TEST_F(ServeTest, BackpressureRejectIsStructuredAndAllOrNothing)
{
    server_.reset();
    config_.workers = 1;
    config_.queueHighWater = 2;
    startServer();
    serve::Client client = connectedClient();

    // A batch larger than the high-water mark is rejected atomically
    // regardless of how fast the queue drains.
    std::vector<Job> big;
    for (uint64_t seed = 1; seed <= 5; ++seed)
        big.push_back(tinyJob(seed));
    std::string error;
    std::string sweep_id;
    uint64_t cached = 0;
    serve::Client::SubmitReject reject;
    EXPECT_FALSE(
        client.submit("test", big, sweep_id, cached, error, &reject));
    EXPECT_TRUE(reject.backpressure);
    EXPECT_EQ(reject.highWater, 2u);
    EXPECT_TRUE(client.connected());

    // A batch that fits is accepted and completes.
    std::vector<Job> small = {tinyJob(1), tinyJob(2)};
    std::vector<JobResult> rows = runRemote(client, small);
    ASSERT_EQ(rows.size(), small.size());
    for (const JobResult &row : rows)
        EXPECT_TRUE(row.ok) << row.error;
}

TEST_F(ServeTest, StatsReportPerWorkerThreadCounters)
{
    serve::Client client = connectedClient();
    std::vector<Job> jobs = {tinyJob(70), tinyJob(71), tinyJob(72),
                             tinyJob(73)};
    runRemote(client, jobs);

    std::string error;
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    harness::Json reply;
    ASSERT_TRUE(client.call(request, reply, error)) << error;
    // Every assertion carries the whole reply, so a one-off failure
    // leaves its cause in the test log.
    const std::string dump = reply.dump();

    EXPECT_EQ(reply.get("worker_threads").asInt(), 2) << dump;
    EXPECT_NE(reply.find("high_water"), nullptr) << dump;
    EXPECT_EQ(reply.get("queue_depth").asInt(), 0) << dump;

    // One row per dispatcher thread; together they ran every job.
    const harness::Json &perWorker = reply.get("per_worker");
    ASSERT_EQ(perWorker.kind(), harness::Json::Kind::Array) << dump;
    ASSERT_EQ(perWorker.size(), 2u) << dump;
    int64_t completed = 0;
    for (size_t i = 0; i < perWorker.size(); ++i) {
        const harness::Json &row = perWorker.at(i);
        EXPECT_EQ(row.get("worker").asInt(), static_cast<int64_t>(i))
            << dump;
        completed += row.get("jobs_completed").asInt();
    }
    EXPECT_EQ(completed, static_cast<int64_t>(jobs.size())) << dump;
}

TEST_F(ServeTest, ShutdownOpStopsTheDaemonCleanly)
{
    serve::Client client = connectedClient();
    std::string error;
    ASSERT_TRUE(client.shutdown(error)) << error;
    EXPECT_TRUE(
        server_->waitForShutdownFor(std::chrono::milliseconds(5000)));
    server_.reset();

    // The socket is gone: a fresh connect fails.
    serve::Client refused;
    EXPECT_FALSE(refused.connect(config_.socketPath, error));
}
