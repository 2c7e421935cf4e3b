/**
 * @file
 * Journal: the serve daemon's append-only write-ahead log
 * (DESIGN.md section 17).
 *
 * Every sweep submission and every per-job completion is appended as
 * one self-describing record *before* (submission) or *as* (completion)
 * the corresponding in-memory state change becomes externally visible.
 * The journal is the daemon's only disk store: Server::start() replays
 * it to rebuild both the sweeps a killed predecessor left unfinished
 * and the result index, and re-enqueues exactly the jobs whose rows
 * never landed — the sweep finishes with zero lost and zero duplicated
 * rows.
 *
 * ## Record framing
 *
 * The journal is a flat sequence of records:
 *
 *     "RTDJ"         4-byte magic
 *     version        u32 LE (currently 2)
 *     type           u32 LE (kSweepBegin / kJobDone / kSweepCancel /
 *                            kRow)
 *     payloadLen     u32 LE
 *     crc            u32 LE — CRC-32 (IEEE) of type, payloadLen (as
 *                    u32 LE) and the payload bytes
 *     payload        payloadLen bytes of compact JSON
 *
 * Version 1 records, which journals written before version 2 still
 * hold, are read too; their CRC covers the payload bytes only, so a
 * flipped type went unnoticed. New records are always version 2.
 *
 * Payloads (see server.cc for the producing side):
 *
 *     kSweepBegin  { "id": S, "label": S, "jobs": [JOB...] }
 *                                           (serve::wire encodings;
 *                                           older journals also carry
 *                                           an ignored "priority")
 *     kJobDone     { "id": S, "index": I, "cached": B,
 *                    "result": JOBRESULT }
 *     kSweepCancel { "id": S }
 *     kRow         { "key": S, "result": JOBRESULT }
 *                                           (written by compaction only)
 *
 * A kJobDone row is indexed on replay under the content key of job
 * "index" of its sweep's kSweepBegin; a kRow names its key itself.
 *
 * ## Torn tails
 *
 * A crash (or an injected short write) can leave a partial record at
 * the end of the file. replay() walks records front to back, stops at
 * the first one whose magic/length/CRC does not check out, hands the
 * valid prefix to the caller, and truncates the file back to that
 * boundary — the torn bytes are gone and the journal is append-ready
 * again. Corruption never propagates: a bad record costs at most the
 * suffix of the log, and every row it described simply re-runs.
 *
 * ## Fsync policy
 *
 * Appends are buffered by the kernel; what survives a *machine* crash
 * depends on the configured policy: "none" (default — survives process
 * death, which is the chaos harness's whole scenario space), "always"
 * (fsync per append), or "every=N" (fsync each N appends). A daemon
 * kill -9 never loses un-fsynced appends — the data is in the page
 * cache — so "none" is the right default for a single-host service.
 *
 * ## Compaction
 *
 * The log grows by one record per completed job; compact() rewrites it
 * to exactly the records the caller still needs (every indexed row as
 * a kRow, least recently used first, then the live sweeps and their
 * done rows), via a temp file + fsync + rename so a crash mid-compact
 * leaves the old journal intact. The server compacts when the log
 * crosses a size threshold and once at clean shutdown, where no sweep
 * is live and the journal shrinks to the index's rows.
 *
 * Append failures (ENOSPC, short writes) degrade, never corrupt: the
 * failed record is truncated back off the tail, a counter is bumped,
 * and the daemon keeps serving — durability is reduced exactly to the
 * rows whose appends failed, each of which recovery re-runs.
 *
 * Thread-safety: none here; the Server serializes all journal calls
 * behind its own mutex.
 */

#ifndef RTDC_SERVE_JOURNAL_H
#define RTDC_SERVE_JOURNAL_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/json.h"

namespace rtd::serve {

/** When appends reach the disk platter (see file comment). */
struct JournalFsyncPolicy
{
    enum Mode
    {
        None,    ///< kernel-buffered (survives process death)
        Always,  ///< fsync after every append
        Every,   ///< fsync after each `interval` appends
    };
    Mode mode = None;
    uint64_t interval = 0;

    /** Parse "none" | "always" | "every=N". False on garbage. */
    static bool parse(const std::string &text, JournalFsyncPolicy &out);
};

/** Cumulative counters (monotonic over the Journal's lifetime). */
struct JournalStats
{
    uint64_t appended = 0;        ///< records successfully appended
    uint64_t appendFailures = 0;  ///< appends that failed (and were
                                  ///< truncated back off the tail)
    uint64_t compactions = 0;
    uint64_t replayedRecords = 0; ///< valid records seen by replay()
    uint64_t tornBytes = 0;       ///< bytes truncated by replay()
    uint64_t sizeBytes = 0;       ///< current file size
};

/** One parsed record, for replay callbacks and compaction input. */
struct JournalRecord
{
    uint32_t type = 0;
    harness::Json payload;
};

/** Append-only, CRC-framed write-ahead log. Not thread-safe. */
class Journal
{
  public:
    /// @name Record types
    /// @{
    static constexpr uint32_t kSweepBegin = 1;
    static constexpr uint32_t kJobDone = 2;
    static constexpr uint32_t kSweepCancel = 3;
    static constexpr uint32_t kRow = 4;
    /// @}

    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open (creating if absent) the journal at @p path for appending.
     * False with @p error filled when the file cannot be opened.
     */
    bool open(const std::string &path, JournalFsyncPolicy policy,
              std::string &error);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /**
     * Replay every valid record from the start of the file, in order,
     * through @p visit, then truncate any torn tail. Call once, after
     * open() and before the first append(). Returns false only on a
     * read error (an empty or fully-torn journal replays zero records
     * and succeeds).
     */
    bool replay(
        const std::function<void(uint32_t type,
                                 const harness::Json &payload)> &visit,
        std::string &error);

    /**
     * Append one record and apply the fsync policy. On failure the
     * partial record is truncated back off the tail and false is
     * returned — the journal stays valid and append-ready.
     */
    bool append(uint32_t type, const harness::Json &payload);

    /**
     * Rewrite the journal to exactly @p records (checkpoint): temp
     * file, fsync, rename over the live log. On any failure the old
     * journal is left untouched and false is returned.
     */
    bool compact(const std::vector<JournalRecord> &records);

    const JournalStats &stats() const { return stats_; }

    void close();

  private:
    /** Frame @p type + @p payload into @p out (appended). */
    static void frameRecord(std::string &out, uint32_t type,
                            const std::string &payload);

    int fd_ = -1;
    std::string path_;
    JournalFsyncPolicy policy_;
    uint64_t appendsSinceSync_ = 0;
    JournalStats stats_;
};

} // namespace rtd::serve

#endif // RTDC_SERVE_JOURNAL_H
