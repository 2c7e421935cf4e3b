/**
 * @file
 * Journal + fsio suite: record framing round-trips, torn-tail
 * truncation on replay (garbage appends, mid-record cuts, CRC flips,
 * and 500 seeded mutations of a daemon's journal that must replay an
 * exact prefix and still serve exact rows), fsync-policy parsing,
 * checkpoint compaction, and the append-failure contract under
 * injected ENOSPC / short-write faults — the journal must degrade
 * (record dropped, counter bumped, file still valid), never corrupt.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/json.h"
#include "harness/runner.h"
#include "serve/client.h"
#include "serve/fsio.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

using namespace rtd;
using harness::Json;
using serve::Journal;
using serve::JournalFsyncPolicy;
using serve::JournalRecord;

namespace {

/** Fresh private directory under /tmp; leaked on purpose (tests are
 *  short-lived and the dir aids post-mortem debugging). */
std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_journal_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

Json
payload(const std::string &id, int64_t n)
{
    Json json = Json::object();
    json.set("id", id);
    json.set("n", n);
    return json;
}

/** Replay into a vector of (type, dumped payload). */
std::vector<std::pair<uint32_t, std::string>>
replayAll(Journal &journal)
{
    std::vector<std::pair<uint32_t, std::string>> seen;
    std::string error;
    EXPECT_TRUE(journal.replay(
        [&](uint32_t type, const Json &body) {
            seen.emplace_back(type, body.dump());
        },
        error))
        << error;
    return seen;
}

int64_t
fileSize(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t
getU32(const std::string &bytes, size_t at)
{
    uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
        value = value << 8 | static_cast<unsigned char>(bytes[at + i]);
    return value;
}

/** A tiny deterministic job; @p seed varies the simulation point. */
harness::Job
tinyJob(uint64_t seed)
{
    harness::Job job;
    job.tag = "journal-test/" + std::to_string(seed);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    return job;
}

/** A row's bytes with the host wall time masked. */
std::string
rowBytes(const harness::JobResult &row)
{
    harness::JobResult masked = row;
    masked.wallSeconds = 0.0;
    return serve::encodeJobResult(masked).dump();
}

/** RAII: no fault plan may leak into a later test. */
struct FaultPlanGuard
{
    ~FaultPlanGuard() { serve::fsio::clearFaultPlan(); }
};

} // namespace

TEST(JournalTest, AppendCloseReopenReplayRoundTrip)
{
    std::string path = tempDir() + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        EXPECT_EQ(replayAll(journal).size(), 0u);
        EXPECT_TRUE(journal.append(Journal::kSweepBegin,
                                   payload("s1", 0)));
        EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 1)));
        EXPECT_TRUE(journal.append(Journal::kSweepCancel,
                                   payload("s1", 2)));
        EXPECT_EQ(journal.stats().appended, 3u);
    }
    Journal reopened;
    std::string error;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].first, Journal::kSweepBegin);
    EXPECT_EQ(seen[0].second, payload("s1", 0).dump());
    EXPECT_EQ(seen[1].first, Journal::kJobDone);
    EXPECT_EQ(seen[2].first, Journal::kSweepCancel);
    EXPECT_EQ(reopened.stats().replayedRecords, 3u);
    EXPECT_EQ(reopened.stats().tornBytes, 0u);
    // The journal must be append-ready right after replay.
    EXPECT_TRUE(reopened.append(Journal::kJobDone, payload("s1", 3)));
}

TEST(JournalTest, GarbageTailTruncatedOnReplay)
{
    std::string path = tempDir() + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        journal.append(Journal::kJobDone, payload("s1", 1));
    }
    int64_t clean_size = fileSize(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "\x7fgarbage that is definitely not a record";
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(journal).size(), 2u);
    EXPECT_GT(journal.stats().tornBytes, 0u);
    // The torn bytes are physically gone, not just skipped.
    EXPECT_EQ(fileSize(path), clean_size);
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 2)));
    Journal again;
    ASSERT_TRUE(again.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(again).size(), 3u);
}

TEST(JournalTest, MidRecordCutKeepsValidPrefix)
{
    std::string dir = tempDir();
    std::string path = dir + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        int64_t one = fileSize(path);
        journal.append(Journal::kJobDone, payload("s1", 1));
        // Cut the second record in half: a crash mid-write.
        ASSERT_EQ(::truncate(path.c_str(),
                             one + (fileSize(path) - one) / 2),
                  0);
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    auto seen = replayAll(journal);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, payload("s1", 0).dump());
    EXPECT_GT(journal.stats().tornBytes, 0u);
}

TEST(JournalTest, CrcFlipStopsReplayAtTheFlippedRecord)
{
    std::string path = tempDir() + "/j.rtdj";
    int64_t first_end = 0;
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        first_end = fileSize(path);
        journal.append(Journal::kJobDone, payload("s1", 1));
    }
    {
        // Flip one payload byte of the second record (past its 20-byte
        // header): the CRC must reject it and replay stops there.
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(first_end + 20 + 2);
        f.put('#');
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(journal).size(), 1u);
    EXPECT_EQ(fileSize(path), first_end);
}

TEST(JournalTest, SeededMutationsReplayAnExactPrefix)
{
    // A journal as a killed daemon leaves it: three rows a compaction
    // wrote, then a sweep's Begin and the Done records of two of its
    // three jobs.
    std::vector<harness::Job> jobs;
    std::vector<harness::JobResult> local;
    harness::ArtifactCache cache;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        jobs.push_back(tinyJob(seed));
        local.push_back(harness::executeJob(jobs.back(), cache));
    }
    std::string dir = tempDir();
    std::string cache_dir = dir + "/cache";
    ASSERT_EQ(::mkdir(cache_dir.c_str(), 0775), 0);
    std::string path = cache_dir + "/journal.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        std::vector<JournalRecord> rows;
        for (size_t i = 0; i < 3; ++i) {
            Json row = Json::object();
            row.set("key", serve::jobContentKey(jobs[i]));
            row.set("result", serve::encodeJobResult(local[i]));
            rows.push_back(JournalRecord{Journal::kRow, std::move(row)});
        }
        ASSERT_TRUE(journal.compact(rows));
        Json encoded = Json::array();
        for (size_t i = 3; i < jobs.size(); ++i)
            encoded.push(serve::encodeJob(jobs[i]));
        std::vector<std::string> job_json;
        for (const Json &job : encoded.items())
            job_json.push_back(job.dump());
        std::string id = serve::sweepContentId("crashed", job_json);
        Json begin = Json::object();
        begin.set("id", id);
        begin.set("label", "crashed");
        begin.set("jobs", std::move(encoded));
        ASSERT_TRUE(journal.append(Journal::kSweepBegin, begin));
        for (size_t i = 3; i < 5; ++i) {
            Json done = Json::object();
            done.set("id", id);
            done.set("index", uint64_t(i - 3));
            done.set("cached", false);
            done.set("result", serve::encodeJobResult(local[i]));
            ASSERT_TRUE(journal.append(Journal::kJobDone, done));
        }
    }
    const std::string original = readFile(path);
    std::vector<size_t> ends = {0};  // ends[k] = end of record k - 1
    while (ends.back() < original.size())
        ends.push_back(ends.back() + 20 + getU32(original, ends.back() + 12));
    ASSERT_EQ(ends.size(), 7u);
    ASSERT_EQ(ends.back(), original.size());
    std::vector<std::pair<uint32_t, std::string>> want;
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        want = replayAll(journal);
        ASSERT_EQ(want.size(), 6u);
    }

    for (uint64_t seed = 1; seed <= 500; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        std::string bytes = original;
        size_t keep = want.size();  // records that must survive
        switch (rng() % 3) {
        case 0: {
            // Flip 1-3 bytes in one field of one record: magic,
            // version, type, length, CRC or payload.
            size_t record = rng() % want.size();
            size_t field = rng() % 6;
            size_t start = ends[record] + 4 * field;
            size_t span = field < 5 ? 4 : ends[record + 1] - start;
            for (uint64_t n = 1 + rng() % 3; n > 0; --n)
                bytes[start + rng() % span] ^=
                    static_cast<char>(1 + rng() % 255);
            if (bytes != original)
                keep = record;
            break;
        }
        case 1: {
            size_t cut = rng() % original.size();
            bytes.resize(cut);
            while (ends[keep] > cut)
                --keep;
            break;
        }
        default:
            for (uint64_t n = 1 + rng() % 64; n > 0; --n)
                bytes.push_back(static_cast<char>(rng()));
            break;
        }
        writeFile(path, bytes);

        {
            Journal journal;
            std::string error;
            ASSERT_TRUE(journal.open(path, {}, error)) << error;
            auto seen = replayAll(journal);
            ASSERT_EQ(seen.size(), keep);
            for (size_t i = 0; i < keep; ++i) {
                EXPECT_EQ(seen[i].first, want[i].first) << "record " << i;
                EXPECT_EQ(seen[i].second, want[i].second) << "record " << i;
            }
            EXPECT_EQ(fileSize(path), static_cast<int64_t>(ends[keep]));
        }

        // A daemon on the mutated directory answers every job with the
        // exact row local execution gives: from its index, or re-run.
        serve::ServerConfig config;
        config.socketPath = dir + "/d.sock";
        config.cacheDir = cache_dir;
        config.workers = 1;
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        serve::Client client;
        ASSERT_TRUE(client.connect(config.socketPath, error)) << error;
        std::string id;
        uint64_t accepted = 0;
        ASSERT_TRUE(client.submit("check", jobs, id, accepted, error))
            << error;
        std::vector<harness::JobResult> rows(jobs.size());
        ASSERT_TRUE(client.fetchResults(id, rows, nullptr, error))
            << error;
        for (size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(rowBytes(rows[i]), rowBytes(local[i])) << "job " << i;
        server.stop();
    }
}

TEST(JournalTest, FsyncPolicyParse)
{
    JournalFsyncPolicy policy;
    EXPECT_TRUE(JournalFsyncPolicy::parse("none", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::None);
    EXPECT_TRUE(JournalFsyncPolicy::parse("always", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::Always);
    EXPECT_TRUE(JournalFsyncPolicy::parse("every=16", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::Every);
    EXPECT_EQ(policy.interval, 16u);
    EXPECT_FALSE(JournalFsyncPolicy::parse("every=0", policy));
    EXPECT_FALSE(JournalFsyncPolicy::parse("every=", policy));
    EXPECT_FALSE(JournalFsyncPolicy::parse("sometimes", policy));
    // Unset config means the default: empty parses as "none".
    EXPECT_TRUE(JournalFsyncPolicy::parse("", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::None);
}

TEST(JournalTest, CompactRewritesToExactlyTheGivenRecords)
{
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    for (int i = 0; i < 20; ++i)
        journal.append(Journal::kJobDone, payload("old", i));
    int64_t grown = fileSize(path);

    std::vector<JournalRecord> snapshot(2);
    snapshot[0].type = Journal::kSweepBegin;
    snapshot[0].payload = payload("live", 0);
    snapshot[1].type = Journal::kJobDone;
    snapshot[1].payload = payload("live", 1);
    ASSERT_TRUE(journal.compact(snapshot));
    EXPECT_LT(fileSize(path), grown);
    EXPECT_EQ(journal.stats().compactions, 1u);

    // Appends after compaction land after the snapshot records.
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("live", 2)));
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].second, payload("live", 0).dump());
    EXPECT_EQ(seen[2].second, payload("live", 2).dump());

    // An empty snapshot collapses the file to zero.
    ASSERT_TRUE(reopened.compact({}));
    EXPECT_EQ(fileSize(path), 0);
}

TEST(JournalTest, EnospcAppendDegradesAndTruncatesBack)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    ASSERT_TRUE(journal.append(Journal::kSweepBegin, payload("s1", 0)));
    int64_t before = fileSize(path);

    // The very next write-class op fails like a full disk
    // (setFaultPlan zeroes the op counter, so "after=1" is it).
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Enospc);
    EXPECT_FALSE(journal.append(Journal::kJobDone, payload("s1", 1)));
    EXPECT_EQ(journal.stats().appendFailures, 1u);
    EXPECT_EQ(fileSize(path), before);

    // One-shot plan: the journal keeps working afterwards.
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 2)));
    journal.close();
    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].second, payload("s1", 2).dump());
}

TEST(JournalTest, ShortWriteLeavesNoTornTailBehind)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    ASSERT_TRUE(journal.append(Journal::kSweepBegin, payload("s1", 0)));
    int64_t before = fileSize(path);

    // A short write lands half a record; append() must truncate it
    // back off so the file stays replayable without repair.
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Short);
    EXPECT_FALSE(journal.append(Journal::kJobDone, payload("s1", 1)));
    EXPECT_EQ(fileSize(path), before);
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(reopened).size(), 1u);
    EXPECT_EQ(reopened.stats().tornBytes, 0u);
}

TEST(JournalTest, FailedCompactionLeavesOldJournalIntact)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    for (int i = 0; i < 5; ++i)
        journal.append(Journal::kJobDone, payload("s1", i));

    std::vector<JournalRecord> snapshot(1);
    snapshot[0].type = Journal::kSweepBegin;
    snapshot[0].payload = payload("live", 0);
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Enospc);
    EXPECT_FALSE(journal.compact(snapshot));
    serve::fsio::clearFaultPlan();
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(reopened).size(), 5u);
}

TEST(FsioTest, FaultPlanCountsAndFiresDeterministically)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/f.bin";
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    // setFaultPlan zeroes the op counter: op 2 and then every 2nd
    // after it fail.
    serve::fsio::setFaultPlan(2, 2, serve::fsio::FaultMode::Enospc);
    EXPECT_EQ(serve::fsio::opCount(), 0u);
    char byte = 'x';
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));   // op 1
    EXPECT_FALSE(serve::fsio::writeAll(fd, &byte, 1));  // op 2 fails
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));   // op 3
    EXPECT_FALSE(serve::fsio::writeAll(fd, &byte, 1));  // op 4 fails
    EXPECT_EQ(serve::fsio::opCount(), 4u);
    serve::fsio::clearFaultPlan();
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));
    ::close(fd);
}
