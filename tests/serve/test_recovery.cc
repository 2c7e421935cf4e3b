/**
 * @file
 * Crash-recovery suite for the serve daemon (DESIGN.md section 17):
 * a Server started over a journal a dead predecessor left behind must
 * rebuild the sweep, answer finished rows from the journal, re-run
 * exactly the missing ones, and stream a row set byte-identical to
 * local execution; content-derived sweep ids make the client's
 * resubmit attach to the recovered sweep. Also here: the socket and
 * directory locks that keep a second daemon off a live socket or cache
 * directory, the request-line length bound, and the EINTR-resilience
 * of the stream under a signal storm.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/crc32.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::Job;
using harness::JobResult;
using harness::Json;

namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_recovery_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** A small deterministic job; @p seed varies the simulation point. */
Job
tinyJob(uint64_t seed)
{
    Job job;
    job.tag = "recovery-test/" + std::to_string(seed);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    return job;
}

std::vector<Job>
tinyJobs(uint64_t base, size_t count)
{
    std::vector<Job> jobs;
    for (size_t i = 0; i < count; ++i)
        jobs.push_back(tinyJob(base + i));
    return jobs;
}

std::vector<JobResult>
localReference(const std::vector<Job> &jobs)
{
    harness::ArtifactCache cache;
    std::vector<JobResult> results;
    for (const Job &job : jobs)
        results.push_back(harness::executeJob(job, cache));
    return results;
}

std::string
rowKey(const JobResult &row)
{
    JobResult masked = row;
    masked.wallSeconds = 0.0;
    return serve::encodeJobResult(masked).dump();
}

void
expectSameRows(const std::vector<JobResult> &got,
               const std::vector<JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].ok) << "row " << i << ": " << got[i].error;
        EXPECT_EQ(rowKey(got[i]), rowKey(want[i])) << "row " << i;
    }
}

/**
 * Write the journal a kill -9'd daemon would leave behind: one
 * SweepBegin for @p jobs plus a JobDone for the first @p done_count
 * rows (their results taken from @p done_rows). @p old_engine_flag
 * writes the journal as a daemon did while CpuConfig still had the
 * engine flags predecode, blockExec and superblockExec: those flags in
 * every job, and version 1 records, whose CRC covers the payload only.
 * Returns the content-derived sweep id.
 */
std::string
plantJournal(const std::string &cache_dir, const std::string &label,
             const std::vector<Job> &jobs,
             const std::vector<JobResult> &done_rows, size_t done_count,
             bool old_engine_flag = false)
{
    ::mkdir(cache_dir.c_str(), 0775);
    Json encoded = Json::array();
    for (const Job &job : jobs) {
        Json json = serve::encodeJob(job);
        if (old_engine_flag) {
            // That encoder wrote the flags right after
            // handlerDataUncached.
            std::string text = json.dump();
            const std::string anchor = R"("handlerDataUncached":false,)";
            size_t at = text.find(anchor);
            EXPECT_NE(at, std::string::npos);
            text.insert(at + anchor.size(),
                        R"("predecode":true,"blockExec":true,)"
                        R"("superblockExec":true,)");
            EXPECT_TRUE(Json::parse(text, &json));
        }
        encoded.push(std::move(json));
    }
    std::vector<std::string> job_json;
    for (const Json &job : encoded.items())
        job_json.push_back(job.dump());
    std::string id = serve::sweepContentId(label, job_json);
    std::vector<serve::JournalRecord> records;
    Json begin = Json::object();
    begin.set("id", id);
    begin.set("label", label);
    begin.set("priority", int64_t(0));
    begin.set("jobs", std::move(encoded));
    records.push_back({serve::Journal::kSweepBegin, std::move(begin)});
    for (size_t i = 0; i < done_count; ++i) {
        Json done = Json::object();
        done.set("id", id);
        done.set("index", uint64_t(i));
        done.set("cached", false);
        done.set("result", serve::encodeJobResult(done_rows[i]));
        records.push_back({serve::Journal::kJobDone, std::move(done)});
    }
    const std::string path = cache_dir + "/journal.rtdj";
    if (old_engine_flag) {
        std::string bytes;
        for (const serve::JournalRecord &record : records) {
            std::string body = record.payload.dump();
            uint32_t header[] = {
                1, record.type, static_cast<uint32_t>(body.size()),
                crc32(reinterpret_cast<const uint8_t *>(body.data()),
                      body.size())};
            bytes += "RTDJ";
            for (uint32_t word : header)
                for (int shift = 0; shift < 32; shift += 8)
                    bytes.push_back(static_cast<char>(word >> shift));
            bytes += body;
        }
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
        return id;
    }
    serve::Journal journal;
    std::string error;
    EXPECT_TRUE(journal.open(path, {}, error)) << error;
    for (const serve::JournalRecord &record : records)
        EXPECT_TRUE(journal.append(record.type, record.payload));
    return id;
}

/** Submit-or-attach @p jobs on @p client; returns the sweep id. */
std::string
submit(serve::Client &client, const std::string &label,
       const std::vector<Job> &jobs, bool *attached = nullptr,
       uint64_t *cached = nullptr)
{
    // Raw submit (not Client::submit) so the reply's "attached" flag is
    // visible to the assertions.
    Json request = Json::object();
    request.set("op", "submit");
    request.set("label", label);
    Json encoded = Json::array();
    for (const Job &job : jobs)
        encoded.push(serve::encodeJob(job));
    request.set("jobs", std::move(encoded));
    Json reply;
    std::string error;
    EXPECT_TRUE(client.call(request, reply, error)) << error;
    const Json *ok = reply.find("ok");
    EXPECT_TRUE(ok && ok->kind() == Json::Kind::Bool && ok->asBool())
        << reply.dump();
    const Json *id = reply.find("sweep_id");
    EXPECT_TRUE(id && id->kind() == Json::Kind::String);
    if (attached) {
        const Json *flag = reply.find("attached");
        *attached = flag && flag->kind() == Json::Kind::Bool &&
                    flag->asBool();
    }
    if (cached) {
        const Json *n = reply.find("cached");
        *cached = n && n->isNumber()
                      ? static_cast<uint64_t>(n->asInt())
                      : 0;
    }
    return id && id->kind() == Json::Kind::String ? id->asString() : "";
}

/** Submit-or-attach @p jobs and fetch every row. */
std::vector<JobResult>
submitAndFetch(const std::string &socket, const std::string &label,
               const std::vector<Job> &jobs, bool *attached = nullptr,
               uint64_t *cached = nullptr)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket, error)) << error;
    std::string id = submit(client, label, jobs, attached, cached);
    std::vector<JobResult> results(jobs.size());
    EXPECT_TRUE(client.fetchResults(id, results, nullptr, error)) << error;
    return results;
}

Json
serverStats(const std::string &socket)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket, error)) << error;
    Json request = Json::object();
    request.set("op", "stats");
    Json reply;
    EXPECT_TRUE(client.call(request, reply, error)) << error;
    return reply;
}

int64_t
statNum(const Json &stats, const char *key)
{
    const Json *v = stats.find(key);
    return v && v->isNumber() ? v->asInt() : -1;
}

} // namespace

TEST(RecoveryTest, ReplaysJournalAndFinishesTheSweep)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(1000, 11);
    std::vector<JobResult> local = localReference(jobs);
    // The last job is wedged (as in FaultHarness.WatchdogCancelsWedgedJob)
    // and has no timeout, so the recovered sweep is still running when
    // the resubmit arrives, however fast the tiny jobs finish.
    Job wedged = tinyJob(1011);
    wedged.workload.targetDynamicInsns = 2'000'000'000ull;
    jobs.push_back(wedged);
    // The dead daemon got through 5 of 12 rows.
    plantJournal(dir + "/cache", "crashed", jobs, local, 5);

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    EXPECT_EQ(statNum(stats, "replayed_records"), 6);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 7);

    // The resuming client's resubmit attaches to the recovered sweep
    // (same label + jobs → same content id).
    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, error)) << error;
    bool attached = false;
    const std::string sweep_id = submit(client, "crashed", jobs, &attached);
    EXPECT_TRUE(attached);

    // Once every job but the wedged one is done, cancel the sweep.
    Json reply;
    Json status = Json::object();
    status.set("op", "status");
    status.set("sweep_id", sweep_id);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        ASSERT_TRUE(client.call(status, reply, error)) << error;
        if (statNum(reply, "done") == int64_t(jobs.size()) - 1)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << reply.dump();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("sweep_id", sweep_id);
    ASSERT_TRUE(client.call(cancel, reply, error)) << error;
    EXPECT_EQ(statNum(reply, "cancelled"), 1) << reply.dump();

    // Every row: the 5 journaled ones verbatim, the 6 requeued tiny
    // ones freshly executed, and the wedged one a cancelled failure.
    std::vector<JobResult> rows(jobs.size());
    ASSERT_TRUE(client.fetchResults(sweep_id, rows, nullptr, error))
        << error;
    JobResult wedged_row = rows.back();
    rows.pop_back();
    expectSameRows(rows, local);
    EXPECT_FALSE(wedged_row.ok);
    EXPECT_EQ(wedged_row.error, "cancelled");
    server.stop();
}

TEST(RecoveryTest, ReplaysJournalWrittenWithTheRemovedEngineFlag)
{
    // A journal from a daemon that still encoded the engine flags: the
    // sweep must recover under its journaled id and finish with the
    // same rows as local execution.
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(5000, 6);
    std::vector<JobResult> local = localReference(jobs);
    std::string id = plantJournal(dir + "/cache", "old-encoding", jobs,
                                  local, 2, /*old_engine_flag=*/true);

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    EXPECT_EQ(statNum(stats, "replayed_records"), 3);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 4);

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, error)) << error;
    std::vector<JobResult> rows(jobs.size());
    ASSERT_TRUE(client.fetchResults(id, rows, nullptr, error)) << error;
    expectSameRows(rows, local);
    server.stop();
}

TEST(RecoveryTest, TornJournalTailIsTruncatedNotFatal)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(3000, 6);
    std::vector<JobResult> local = localReference(jobs);
    plantJournal(dir + "/cache", "torn", jobs, local, 2);
    {
        std::FILE *f = std::fopen(
            (dir + "/cache/journal.rtdj").c_str(), "ab");
        ASSERT_NE(f, nullptr);
        // A plausible torn record: good magic, then a cut-off header.
        static const char kTorn[] = "RTDJ\x01\x00\x00\x00 torn";
        std::fwrite(kTorn, 1, sizeof kTorn - 1, f);
        std::fclose(f);
    }

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 1);
    EXPECT_EQ(statNum(stats, "replayed_records"), 3);
    const Json *journal = stats.find("journal");
    ASSERT_NE(journal, nullptr);
    EXPECT_GT(statNum(*journal, "torn_bytes"), 0);
    expectSameRows(submitAndFetch(config.socketPath, "torn", jobs),
                   local);
    server.stop();
}

TEST(RecoveryTest, CancelRecordErasesTheSweepFromRecovery)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(4000, 4);
    std::vector<JobResult> local = localReference(jobs);
    std::string id =
        plantJournal(dir + "/cache", "cancelled", jobs, local, 1);
    {
        serve::Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(dir + "/cache/journal.rtdj", {},
                                 error));
        // replay() then append: the journal is append-only and open()
        // does not seek; replay positions the write offset.
        ASSERT_TRUE(journal.replay([](uint32_t, const Json &) {},
                                   error))
            << error;
        Json cancel = Json::object();
        cancel.set("id", id);
        ASSERT_TRUE(
            journal.append(serve::Journal::kSweepCancel, cancel));
    }

    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 0);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 0);
    server.stop();
}

TEST(RecoveryTest, CleanShutdownCompactsTheJournalToEmpty)
{
    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(5000, 6);
    std::vector<JobResult> local = localReference(jobs);
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    {
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        submitAndFetch(config.socketPath, "clean", jobs);
        server.stop();
    }
    // Everything finished before the stop, so the checkpoint holds the
    // index's rows and no sweep: a successor recovers nothing, leaves
    // the compact journal as it is, and answers every job from its
    // index.
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    Json stats = serverStats(config.socketPath);
    EXPECT_EQ(statNum(stats, "recovered_sweeps"), 0);
    EXPECT_EQ(statNum(stats, "requeued_jobs"), 0);
    EXPECT_EQ(statNum(stats, "replayed_records"),
              static_cast<int64_t>(jobs.size()));
    EXPECT_EQ(statNum(stats.get("journal"), "compactions"), 0);
    uint64_t cached = 0;
    expectSameRows(submitAndFetch(config.socketPath, "clean", jobs,
                                  nullptr, &cached),
                   local);
    EXPECT_EQ(cached, jobs.size());
    server.stop();
}

TEST(RecoverySocketLock, SecondDaemonRefusesWhileFirstIsLive)
{
    // Two inputs: a second daemon on the same socket, and one on
    // another socket but the same cache directory, whose journal
    // compaction would otherwise rename a file over the live daemon's
    // journal. fcntl record locks never conflict within one process,
    // so the "first" daemon must really be another process: fork
    // (while this process is single-threaded) and run it in the child.
    std::string dir = tempDir();
    serve::ServerConfig same_socket;
    same_socket.socketPath = dir + "/d.sock";
    same_socket.workers = 1;
    serve::ServerConfig same_dir = same_socket;
    same_dir.cacheDir = dir + "/cache";
    serve::ServerConfig other_socket = same_dir;
    other_socket.socketPath = dir + "/other.sock";
    struct Case
    {
        serve::ServerConfig first, second;
    };
    for (const Case &c : {Case{same_socket, same_socket},
                          Case{same_dir, other_socket}}) {
        SCOPED_TRACE(c.second.socketPath);
        int ready[2];
        ASSERT_EQ(::pipe(ready), 0);
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            serve::Server first(c.first);
            std::string child_error;
            char byte = first.start(child_error) ? '1' : '0';
            (void)!::write(ready[1], &byte, 1);
            if (byte == '0')
                ::_exit(1);
            for (;;)  // hold the locks until the parent kills us
                ::pause();
        }
        ::close(ready[1]);
        char byte = 0;
        ASSERT_EQ(::read(ready[0], &byte, 1), 1);
        ::close(ready[0]);
        ASSERT_EQ(byte, '1') << "child daemon failed to start";

        serve::Server second(c.second);
        std::string second_error;
        EXPECT_FALSE(second.start(second_error));
        EXPECT_NE(second_error.find("live"), std::string::npos)
            << second_error;
        // The loser must not have unlinked the winner's socket.
        serve::Client client;
        std::string error;
        EXPECT_TRUE(client.connect(c.first.socketPath, error)) << error;
        EXPECT_TRUE(client.ping(error)) << error;

        // Kill -9 the holder: record locks die with the process, so a
        // successor takes over without help.
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        serve::Server third(c.second);
        ASSERT_TRUE(third.start(error)) << error;
        third.stop();
    }
}

TEST(RecoveryLineLimit, OverlongRequestLineGetsStructuredErrorAndClose)
{
    std::string dir = tempDir();
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.workers = 1;
    config.maxLineBytes = 1024;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = serve::connectUnix(config.socketPath, error);
    ASSERT_GE(fd, 0) << error;
    serve::LineChannel channel(fd);
    // 8 KiB of almost-JSON on one line: past the daemon's bound.
    std::string big = "{\"op\":\"ping\",\"pad\":\"";
    big.append(8192, 'x');
    big += "\"}";
    ASSERT_TRUE(channel.writeLine(big));
    Json reply;
    ASSERT_TRUE(channel.readJson(reply, error)) << error;
    const Json *ok = reply.find("ok");
    ASSERT_TRUE(ok && ok->kind() == Json::Kind::Bool);
    EXPECT_FALSE(ok->asBool());
    const Json *code = reply.find("code");
    ASSERT_TRUE(code && code->kind() == Json::Kind::String);
    EXPECT_EQ(code->asString(), "line_too_long");
    // Framing cannot resynchronize inside an unread line, so the
    // daemon closes; the next read is EOF.
    EXPECT_FALSE(channel.readJson(reply, error));

    // The daemon itself is unharmed: a fresh connection works.
    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, error)) << error;
    EXPECT_TRUE(client.ping(error)) << error;
    server.stop();
}

namespace {
void
sigusr1Noop(int)
{
}
} // namespace

TEST(RecoveryEintr, SignalStormDoesNotCorruptTheResultStream)
{
    // Install SIGUSR1 *without* SA_RESTART so blocking reads/writes on
    // the client thread really return EINTR; the channel loops must
    // retry, and the LDJSON stream must come through intact.
    struct sigaction sa = {};
    sa.sa_handler = sigusr1Noop;
    sa.sa_flags = 0;
    struct sigaction old;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    std::string dir = tempDir();
    std::vector<Job> jobs = tinyJobs(6000, 24);
    std::vector<JobResult> local = localReference(jobs);
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = 2;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    std::atomic<bool> done{false};
    pthread_t victim = ::pthread_self();
    std::thread storm([&] {
        while (!done.load()) {
            ::pthread_kill(victim, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });
    std::vector<JobResult> rows =
        submitAndFetch(config.socketPath, "eintr", jobs);
    done.store(true);
    storm.join();
    ::sigaction(SIGUSR1, &old, nullptr);

    expectSameRows(rows, local);
    server.stop();
}
