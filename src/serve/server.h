/**
 * @file
 * The rtdc_serve daemon core (DESIGN.md section 14).
 *
 * A Server owns four long-lived things:
 *
 *  - the listening unix socket and one thread per accepted connection
 *    (the protocol is synchronous per connection; concurrency comes
 *    from many connections),
 *  - the execution engine: a bounded FIFO JobQueue drained by one
 *    dispatcher thread per execution slot, each running jobs through
 *    harness::executeJob (the batch SweepRunner's path, crash traps
 *    and watchdogs included),
 *  - one in-memory harness::ArtifactCache, so programs and built
 *    images are shared across jobs, sweeps and clients (a restarted
 *    daemon rebuilds them for the jobs it re-runs),
 *  - the incremental result index: finished ok rows keyed by
 *    wire::jobContentKey, held in memory, bounded by cacheMaxBytes
 *    (least recently used rows go first) and, with a cacheDir,
 *    persisted in the write-ahead journal, the daemon's one disk
 *    store. A resubmitted sweep re-runs only jobs whose content key
 *    has no indexed row; everything else streams back immediately.
 *
 * Failure containment: a job that panics or hangs becomes a structured
 * failure row (ok=false) in its sweep — the worker pool, the other
 * sweeps, and every connection keep going. Failed rows are never
 * indexed, so a poisoned job re-runs on resubmit instead of caching its
 * failure.
 *
 * Determinism: results stream strictly in submission order and carry
 * the exact values executeJob produced, so a client rendering a
 * registered sweep through RemoteExecutor produces byte-identical
 * tables and BENCH JSON to the local batch run (jobs are pure
 * functions of their value, so where they execute cannot change the
 * rows).
 *
 * Backpressure: the queue has a high-water mark; a submit whose
 * uncached jobs would cross it is rejected whole with a structured
 * "backpressure" error (queue depth + mark included) so clients back
 * off instead of ballooning daemon memory.
 *
 * Durability (DESIGN.md section 17): with a cacheDir, submissions and
 * completions are write-ahead journaled (journal.h) and replayed at
 * start(), which rebuilds the result index and re-enqueues exactly the
 * unfinished jobs — a daemon killed -9 mid-sweep finishes the sweep
 * after restart, with zero lost and zero duplicated rows. Sweep ids
 * are content-derived (wire::sweepContentId), making submits
 * idempotent: a resuming client re-submits and attaches to the live
 * sweep. fcntl locks on `<socket>.lock` and `<cacheDir>/daemon.lock`
 * keep two daemons off one socket and off one directory, while letting
 * a crashed daemon's successor start immediately.
 */

#ifndef RTDC_SERVE_SERVER_H
#define RTDC_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/job_queue.h"
#include "harness/trace_share.h"
#include "obs/metrics.h"
#include "serve/journal.h"
#include "serve/proto.h"

namespace rtd::serve {

/** Daemon configuration. */
struct ServerConfig
{
    std::string socketPath;
    /** Journal directory; empty = memory-only (no warm restarts). */
    std::string cacheDir;
    /** Result index bound in bytes of key + row, in memory and in the
     *  journal; least recently used rows are dropped first
     *  (0 = unbounded). */
    uint64_t cacheMaxBytes = 512ull << 20;
    /** Simulation worker threads; 0 = one per hardware thread. */
    unsigned workers = 0;
    /**
     * Queue high-water mark: a submit whose uncached jobs would push
     * the queue past this many entries is rejected with a structured
     * "backpressure" error. 0 = unbounded.
     */
    size_t queueHighWater = 100000;
    /**
     * Write-ahead journal (journal.h): submissions and completions are
     * logged to `<cacheDir>/journal.rtdj` and replayed at start(), so
     * a daemon killed -9 mid-sweep finishes the sweep after restart,
     * and the result index survives restarts. Requires cacheDir; false
     * makes the daemon memory-only, like an empty cacheDir.
     */
    bool journal = true;
    /** Journal fsync policy: "none" | "always" | "every=N". */
    std::string journalFsync = "none";
    /** Compact the journal when it crosses this many bytes. */
    uint64_t journalCompactBytes = 16ull << 20;
    /** Per-connection request line bound (anti-OOM; see proto.h). */
    size_t maxLineBytes = LineChannel::kDefaultMaxLine;
};

/** One sweep daemon instance. Thread-safe; one per process normally. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the accept + worker machinery. */
    bool start(std::string &error);

    /** Block until a client's shutdown op (or stop()). */
    void waitForShutdown();

    /**
     * waitForShutdown with a timeout, for mains that also poll a signal
     * flag. True when shutdown was requested within @p timeout.
     */
    bool waitForShutdownFor(std::chrono::milliseconds timeout);

    /**
     * Stop serving: close the listening socket, unblock and join every
     * connection thread, cancel in-flight jobs, and drain the pool.
     * Idempotent; also run by the destructor.
     */
    void stop();

    const ServerConfig &config() const { return config_; }

  private:
    /** One submitted job and its (eventual) result row. */
    struct SweepJob
    {
        harness::Job job;
        std::string key;  ///< wire::jobContentKey(job)
        /** External-cancel token handed to executeJob's watchdog. */
        std::shared_ptr<std::atomic<bool>> cancel;
        bool done = false;
        bool fromCache = false;  ///< answered by the result index
        bool ok = false;         ///< the finished row's JobResult::ok
        /** The finished row as its encodeJobResult dump, made once
         *  when the row is produced, replayed or found in the index;
         *  streamed and journaled as these bytes. */
        std::string row;
    };

    /** One submitted sweep. Guarded by Server::sweepMutex_. */
    struct Sweep
    {
        /** Content-derived id (wire::sweepContentId). */
        std::string id;
        std::string label;
        std::vector<SweepJob> jobs;
        size_t completed = 0;
        size_t cached = 0;
        size_t failed = 0;
        bool cancelled = false;
        /** Handler-replay traces shared by the sweep's queued jobs. */
        std::unique_ptr<harness::TraceShare> traces;
    };

    /** One queued unit of work: sweep job @p index of @p sweep. */
    struct QueuedJob
    {
        std::shared_ptr<Sweep> sweep;
        size_t index = 0;
    };

    void acceptLoop();
    void serveConnection(int fd);
    /** Dispatcher thread body: drain the queue into slot @p slot. */
    void dispatchLoop(unsigned slot);

    /// @name Op handlers (reply is what goes back on the wire)
    /// @{
    harness::Json handleSubmit(const harness::Json &request);
    harness::Json handleStatus(const harness::Json &request);
    harness::Json handleCancel(const harness::Json &request);
    harness::Json handleStats();
    /** Streams rows itself; returns false when the peer went away. */
    bool handleResults(const harness::Json &request,
                       LineChannel &channel);
    /// @}

    /** Run sweep job @p index on slot @p slot and publish its row. */
    void runSweepJob(const std::shared_ptr<Sweep> &sweep, size_t index,
                     unsigned slot);
    /** Give @p sweep its TraceShare, counting every job not yet done. */
    void shareTraces(Sweep &sweep);

    /// @name Durability (journal.h; see DESIGN.md section 17)
    /// @{
    /** Open the journal under the directory lock and recover from it.
     *  False only when another live daemon holds the directory. */
    bool openJournal(std::string &error);
    /** Drop both locks (and the socket lock's file). */
    void releaseLocks();
    /** Replay the journal into sweeps_ and the result index, and
     *  force-requeue every job whose row is missing. Runs
     *  single-threaded, between journal open and thread start. */
    bool recoverFromJournal(std::string &error);
    /** Append a record (no-ops when the journal is off/broken). */
    void journalSweepBegin(const Sweep &sweep, harness::Json encodedJobs);
    void journalJobDone(const Sweep &sweep, size_t index);
    void journalSweepCancel(const std::string &id);
    /** Rewrite the journal to the index + live-sweep snapshot when it
     *  crossed the size threshold (@p force skips the threshold check). */
    void maybeCompactJournal(bool force);
    /** The compaction snapshot; takes indexMutex_, then sweepMutex_
     *  (callers hold journalMutex_ — that nesting order is the lock
     *  hierarchy). */
    std::vector<JournalRecord> snapshotJournalRecords();
    /// @}

    /**
     * Result-index lookup for @p key: copies the indexed row's bytes
     * into @p row, and the hit becomes the most recently used row.
     * False when no row is indexed.
     */
    bool lookupResult(const std::string &key, std::string &row);
    /**
     * Index the ok row @p row (its encodeJobResult dump) under @p key
     * as the most recently used entry, then evict down to
     * cacheMaxBytes. The row is kept as its exact wire bytes, never
     * decoded again; the journal's JobDone carries it to disk.
     */
    void indexResult(const std::string &key, const std::string &row);

    ServerConfig config_;
    harness::ArtifactCache artifacts_;
    /** Trace sharing across every sweep's TraceShare (`stats`);
     *  declared before the queue and sweeps_, which own the shares. */
    harness::TraceShareStats traceShareStats_;
    /** Pending jobs, drained by the dispatchers. Constructed with the
     *  config high-water mark; closed by stop(). */
    harness::JobQueue<QueuedJob> queue_;
    std::vector<std::thread> dispatchThreads_;
    /** Per-slot completed-job counters. Guarded by metricsMutex_. */
    std::vector<uint64_t> slotJobs_;

    /** Listening socket; stop() exchanges it to -1 while acceptLoop
     *  reads it, hence atomic. */
    std::atomic<int> listenFd_{-1};
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};

    std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    std::vector<int> connFds_;  ///< open fds, for shutdown() on stop

    /** Guards sweeps_ and every Sweep it owns; cv signals row
     *  completion to streaming `results` handlers. */
    std::mutex sweepMutex_;
    std::condition_variable sweepCv_;
    std::map<std::string, std::shared_ptr<Sweep>> sweeps_;

    /** The write-ahead journal and its serialization. Lock order:
     *  journalMutex_ strictly before sweepMutex_ (compaction snapshots
     *  sweep state under both); never append while holding
     *  sweepMutex_. */
    std::mutex journalMutex_;
    Journal journal_;
    /** Journal size right after the last compaction, to keep repeated
     *  above-threshold compactions from going quadratic. */
    uint64_t journalCompactFloor_ = 0;
    /** `<socketPath>.lock` and `<cacheDir>/daemon.lock` fds; each holds
     *  the fcntl record lock that makes a second daemon on the same
     *  socket or directory refuse to start. The directory lock is not
     *  on the journal itself, because compaction renames a new file
     *  over it. Record locks die with the owning process, so a kill
     *  -9'd daemon never holds its successor out. */
    int socketLockFd_ = -1;
    int dirLockFd_ = -1;
    /// @name Recovery accounting (set once in start(), read by stats)
    /// @{
    uint64_t recoveredSweeps_ = 0;
    uint64_t replayedRecords_ = 0;
    uint64_t requeuedJobs_ = 0;
    /// @}

    /** One indexed row; its key is the map's key, viewed in place. */
    struct IndexedRow
    {
        std::string key;
        std::string row;  ///< encodeJobResult dump, exact doubles
        uint64_t bytes = 0;  ///< key + row, for the bound
    };
    /** The result index. Guarded by indexMutex_. */
    std::mutex indexMutex_;
    std::list<IndexedRow> indexLru_;  ///< least recently used first
    std::unordered_map<std::string_view, std::list<IndexedRow>::iterator>
        resultIndex_;
    uint64_t indexBytes_ = 0;
    uint64_t indexEvictions_ = 0;

    /** Shutdown-op latch for waitForShutdown(). */
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;

    /** Service metrics (obs::MetricsRegistry is single-threaded by
     *  design; the daemon guards it with metricsMutex_). */
    std::mutex metricsMutex_;
    obs::MetricsRegistry metrics_;
    obs::Counter *jobsDone_ = nullptr;
    obs::Counter *jobsFailed_ = nullptr;
    obs::Counter *jobsCached_ = nullptr;
    obs::Counter *sweepsSubmitted_ = nullptr;
    obs::Counter *requests_ = nullptr;
    obs::Gauge *queueDepth_ = nullptr;
    obs::Gauge *runningJobs_ = nullptr;
    obs::Gauge *connections_ = nullptr;
    obs::Log2Histogram *jobWallMs_ = nullptr;
    /** start() time, for the jobs/sec rate in `stats`. */
    std::chrono::steady_clock::time_point started_;
};

} // namespace rtd::serve

#endif // RTDC_SERVE_SERVER_H
