/**
 * @file
 * Serve-subsystem suite: the DiskArtifactCache's integrity contract
 * (full-key verification, CRC rejection, LRU bound, restart
 * persistence), the wire codecs' exact round-trip, and the daemon
 * itself — submit/results/status/cancel/stats over a real unix socket,
 * incremental resubmits, warm restarts from disk, and failure-row
 * containment for poisoned jobs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/disk_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::Job;
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

/** The blob file DiskArtifactCache uses for @p key. */
std::string
blobPath(const std::string &dir, const std::string &key)
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(
                      harness::stableHash64(key)));
    return dir + "/" + name + ".blob";
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
// DiskArtifactCache
// ---------------------------------------------------------------------

TEST(DiskCache, RoundTripAndRestartPersistence)
{
    std::string dir = tempDir();
    const std::string key = "workload|some-canonical-key";
    const std::string payload = "payload bytes \x01\x02\x00 ok";

    {
        serve::DiskArtifactCache cache(dir, 0);
        cache.store(key, payload);
        std::string back;
        ASSERT_TRUE(cache.load(key, back));
        EXPECT_EQ(back, payload);
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(cache.stats().stores, 1u);
    }

    // A new instance on the same directory revives the blob: this is
    // the daemon-restart path.
    serve::DiskArtifactCache reopened(dir, 0);
    std::string back;
    ASSERT_TRUE(reopened.load(key, back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(reopened.stats().bytes, payload.size());

    std::string missing;
    EXPECT_FALSE(reopened.load("no such key", missing));
    EXPECT_EQ(reopened.stats().misses, 1u);
}

TEST(DiskCache, CorruptPayloadRejectedAsMiss)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 0);
    const std::string key = "image|corruptible";
    cache.store(key, "sixteen byte pay");

    // Flip one payload byte behind the cache's back.
    std::string path = blobPath(dir, key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(-3, std::ios::end);
        file.put('X');
    }

    std::string back;
    EXPECT_FALSE(cache.load(key, back));
    EXPECT_EQ(cache.stats().rejects, 1u);
    // The poisoned file is gone, so a rebuild-and-store round-trips.
    cache.store(key, "rebuilt");
    ASSERT_TRUE(cache.load(key, back));
    EXPECT_EQ(back, "rebuilt");
}

TEST(DiskCache, StoredKeyMismatchRejectedAndRebuilt)
{
    // Force the hash-collision case the embedded full key exists to
    // catch: a blob whose *filename* matches the requested key's hash
    // but whose stored key string is different must never be revived.
    std::string dir = tempDir();
    const std::string key_a = "workload|victim-a";
    const std::string key_b = "workload|impostor-b";

    serve::DiskArtifactCache cache(dir, 0);
    cache.store(key_a, "payload of a");
    // Masquerade a's blob as b's by renaming it to b's hash filename.
    ASSERT_EQ(std::rename(blobPath(dir, key_a).c_str(),
                          blobPath(dir, key_b).c_str()),
              0);

    serve::DiskArtifactCache reopened(dir, 0);
    std::string back;
    // The embedded key says "victim-a", the request says "impostor-b":
    // reject, delete, miss.
    EXPECT_FALSE(reopened.load(key_b, back));
    EXPECT_EQ(reopened.stats().rejects, 1u);
    EXPECT_EQ(reopened.stats().hits, 0u);

    // The caller's natural next step (rebuild + store) wins cleanly.
    reopened.store(key_b, "payload of b");
    ASSERT_TRUE(reopened.load(key_b, back));
    EXPECT_EQ(back, "payload of b");
}

TEST(DiskCache, LruEvictionKeepsRecentBlobs)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 64);  // tiny payload budget
    const std::string payload(30, 'x');       // two fit, three don't

    cache.store("a", payload);
    cache.store("b", payload);
    std::string back;
    ASSERT_TRUE(cache.load("a", back));  // a is now MRU
    cache.store("c", payload);  // over budget: evict LRU == b

    EXPECT_TRUE(cache.load("a", back));
    EXPECT_FALSE(cache.load("b", back));
    EXPECT_TRUE(cache.load("c", back));
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, 64u);
}

TEST(DiskCache, FsckFindsTailCorruptionAndRepairSweepsIt)
{
    std::string dir = tempDir();
    serve::DiskArtifactCache cache(dir, 0);
    cache.store("fsck|good-1", "healthy payload one");
    cache.store("fsck|good-2", "healthy payload two");
    cache.store("fsck|victim", "this blob will rot");

    // Rot the victim's tail (CRC covers the payload, so this is the
    // bit-rot an fsck exists to find) and drop an orphan .tmp from a
    // "crashed mid-store" daemon.
    {
        std::fstream file(blobPath(dir, "fsck|victim"),
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(-1, std::ios::end);
        file.put('~');
    }
    {
        std::ofstream tmp(dir + "/deadbeef.tmp");
        tmp << "half-written";
    }

    // Audit-only pass: reports, removes nothing.
    serve::FsckReport audit = cache.fsck(false);
    EXPECT_EQ(audit.scanned, 3u);
    EXPECT_EQ(audit.intact, 2u);
    EXPECT_EQ(audit.corrupt, 1u);
    EXPECT_EQ(audit.removed, 0u);
    EXPECT_EQ(audit.tmpSwept, 0u);

    // Repair pass: the corrupt blob and the orphan .tmp are unlinked.
    serve::FsckReport repair = cache.fsck(true);
    EXPECT_EQ(repair.corrupt, 1u);
    EXPECT_EQ(repair.removed, 1u);
    EXPECT_EQ(repair.tmpSwept, 1u);

    std::string back;
    EXPECT_FALSE(cache.load("fsck|victim", back));
    EXPECT_TRUE(cache.load("fsck|good-1", back));
    EXPECT_TRUE(cache.load("fsck|good-2", back));
    // And a clean store is clean: nothing left to report.
    serve::FsckReport clean = cache.fsck(true);
    EXPECT_EQ(clean.scanned, 2u);
    EXPECT_EQ(clean.corrupt, 0u);
    EXPECT_EQ(clean.tmpSwept, 0u);
}

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

TEST(Wire, RunStatsDiffNamesTheFirstDifferingField)
{
    cpu::RunStats a;
    cpu::RunStats b;
    EXPECT_EQ(serve::runStatsDiff(a, b), "");
    b.l2Misses = 7;
    b.cancelled = true;
    EXPECT_EQ(serve::runStatsDiff(a, b), "l2Misses: 0 vs 7");
    a.l2Misses = 7;
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

    std::vector<JobResult> second = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].result.stats.cycles,
                  first[i].result.stats.cycles);
    }
}

TEST_F(ServeTest, RestartedDaemonServesResultsFromDisk)
{
    std::vector<Job> jobs = {tinyJob(20), tinyJob(21)};
    {
        serve::Client client = connectedClient();
        runRemote(client, jobs);
    }

    // Cold process, warm directory.
    server_.reset();
    startServer();

    serve::Client client = connectedClient();
    uint64_t cached = 0;
    std::vector<JobResult> again = runRemote(client, jobs, &cached);
    EXPECT_EQ(cached, jobs.size());
    for (const JobResult &row : again)
        EXPECT_TRUE(row.ok) << row.error;
    EXPECT_GT(server_->diskCache()->stats().hits, 0u);
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
    // Disk store wired in and active.
    ASSERT_NE(reply.find("disk_cache"), nullptr);
    EXPECT_GE(reply.get("disk_cache").get("stores").asInt(), 1);
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
