#include "serve/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "harness/runner.h"
#include "serve/wire.h"
#include "support/logging.h"

namespace rtd::serve {

namespace {

/** Journal and lock file names under the cache directory. */
const char kJournalName[] = "journal.rtdj";
const char kDirLockName[] = "daemon.lock";

/**
 * Open @p path (creating it) and take an fcntl write lock on it. The
 * record lock dies with the owning process, so a kill -9'd daemon never
 * holds a successor out, while a live one always does; record locks are
 * not inherited across fork() either. Returns the fd that holds the
 * lock, or -1 with @p error set and @p busy telling a lock held by a
 * live process from a file that could not be opened.
 */
int
lockFile(const std::string &path, bool &busy, std::string &error)
{
    busy = false;
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0664);
    if (fd < 0) {
        error = "open " + path + ": " + std::strerror(errno);
        return -1;
    }
    struct flock lk;
    std::memset(&lk, 0, sizeof lk);
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    if (::fcntl(fd, F_SETLK, &lk) != 0) {
        busy = true;
        error = "lock " + path + " is held";
        ::close(fd);
        return -1;
    }
    // Advisory: record our pid for operators poking at a stuck host.
    char pid[32];
    int n = std::snprintf(pid, sizeof pid, "%ld\n",
                          static_cast<long>(::getpid()));
    if (::ftruncate(fd, 0) == 0 && n > 0)
        (void)!::write(fd, pid, static_cast<size_t>(n));
    return fd;
}

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queueHighWater)
{
    jobsDone_ = metrics_.counter("jobs_done");
    jobsFailed_ = metrics_.counter("jobs_failed");
    jobsCached_ = metrics_.counter("jobs_cached");
    sweepsSubmitted_ = metrics_.counter("sweeps_submitted");
    requests_ = metrics_.counter("requests");
    queueDepth_ = metrics_.gauge("queue_depth");
    runningJobs_ = metrics_.gauge("running_jobs");
    connections_ = metrics_.gauge("connections");
    jobWallMs_ = metrics_.histogram("job_wall_ms");
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &error)
{
    // Socket hygiene first: hold `<socket>.lock` before touching the
    // socket path. A live daemon makes this fail fast; a crashed one
    // left only a stale socket file, which listenUnix() (safely, now
    // that we hold the lock) unlinks.
    if (config_.socketPath.empty()) {
        error = "no socket path";
        return false;
    }
    bool busy = false;
    socketLockFd_ = lockFile(config_.socketPath + ".lock", busy, error);
    if (socketLockFd_ < 0) {
        if (busy)
            error = "another daemon is live on " + config_.socketPath +
                    " (" + error + ")";
        return false;
    }
    unsigned slots =
        config_.workers ? config_.workers : harness::defaultThreadCount();
    // Journal replay, still single-threaded: rebuild the result index
    // and the sweeps a killed predecessor left unfinished, and queue
    // their pending jobs. The dispatchers started below drain them
    // exactly like fresh submissions.
    if (config_.journal && !config_.cacheDir.empty() &&
        !openJournal(error)) {
        releaseLocks();
        return false;
    }
    int fd = listenUnix(config_.socketPath, error);
    if (fd < 0) {
        journal_.close();
        releaseLocks();
        return false;
    }
    listenFd_.store(fd);
    started_ = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        slotJobs_.assign(slots, 0);
    }
    for (unsigned i = 0; i < slots; ++i)
        dispatchThreads_.emplace_back([this, i] { dispatchLoop(i); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::dispatchLoop(unsigned slot)
{
    QueuedJob item;
    while (queue_.pop(item))
        runSweepJob(item.sweep, item.index, slot);
}

void
Server::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

bool
Server::waitForShutdownFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    if (!shutdownCv_.wait_for(lock, timeout,
                              [this] { return shutdownRequested_; }))
        return false;
    lock.unlock();
    stop();
    return true;
}

void
Server::stop()
{
    bool was_stopping = stopping_.exchange(true);
    if (!was_stopping) {
        // Unblock waitForShutdown() callers.
        {
            std::lock_guard<std::mutex> lock(shutdownMutex_);
            shutdownRequested_ = true;
        }
        shutdownCv_.notify_all();
        // Close the listener: accept() fails and the accept loop exits.
        int listen_fd = listenFd_.exchange(-1);
        if (listen_fd >= 0) {
            ::shutdown(listen_fd, SHUT_RDWR);
            ::close(listen_fd);
        }
        // Kick every connection out of its blocking read.
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            for (int fd : connFds_)
                ::shutdown(fd, SHUT_RDWR);
        }
        // Cancel in-flight jobs so the dispatchers finish their current
        // job quickly, and close the queue: still-queued jobs are
        // discarded and stay not-done, which is fine — with every
        // connection gone nobody is waiting on their rows.
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            for (auto &[id, sweep] : sweeps_) {
                sweep->cancelled = true;
                for (SweepJob &job : sweep->jobs)
                    job.cancel->store(true, std::memory_order_relaxed);
            }
        }
        queue_.close();
        sweepCv_.notify_all();
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Joining under connMutex_ would deadlock with a connection thread
    // trying to deregister itself; swap the list out instead.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        threads.swap(connThreads_);
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::thread &thread : dispatchThreads_)
        thread.join();
    dispatchThreads_.clear();
    if (!was_stopping) {
        // Clean shutdown: every sweep above was cancelled, so the
        // compaction snapshot holds only the index's rows — a clean
        // stop leaves no sweep to recover, and the successor answers
        // from the same index.
        {
            std::lock_guard<std::mutex> lock(journalMutex_);
            if (journal_.isOpen()) {
                journal_.compact(snapshotJournalRecords());
                journal_.close();
            }
        }
        ::unlink(config_.socketPath.c_str());
        releaseLocks();
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        int listen_fd = listenFd_.load();
        if (listen_fd < 0)
            break;
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            if (errno == EINTR)
                continue;
            break;  // listener broken; daemon keeps running jobs
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
Server::serveConnection(int fd)
{
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        connections_->add(1);
    }
    {
        LineChannel channel(fd, config_.maxLineBytes);
        std::string line;
        while (!stopping_.load(std::memory_order_relaxed) &&
               channel.readLine(line)) {
            harness::Json request;
            std::string parse_error;
            if (!harness::Json::parse(line, &request, &parse_error)) {
                // Malformed line: reply and keep the connection — one
                // bad request must not kill a client's other traffic.
                if (!channel.writeJson(errorReply("parse error: " +
                                                  parse_error)))
                    break;
                continue;
            }
            const harness::Json *op = request.find("op");
            if (!op || op->kind() != harness::Json::Kind::String) {
                if (!channel.writeJson(errorReply("missing op")))
                    break;
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(metricsMutex_);
                requests_->add(1);
            }
            const std::string &name = op->asString();
            bool alive = true;
            if (name == "ping") {
                alive = channel.writeJson(okReply());
            } else if (name == "submit") {
                alive = channel.writeJson(handleSubmit(request));
            } else if (name == "status") {
                alive = channel.writeJson(handleStatus(request));
            } else if (name == "results") {
                alive = handleResults(request, channel);
            } else if (name == "cancel") {
                alive = channel.writeJson(handleCancel(request));
            } else if (name == "stats") {
                alive = channel.writeJson(handleStats());
            } else if (name == "shutdown") {
                channel.writeJson(okReply());
                {
                    std::lock_guard<std::mutex> lock(shutdownMutex_);
                    shutdownRequested_ = true;
                }
                shutdownCv_.notify_all();
                break;
            } else {
                alive =
                    channel.writeJson(errorReply("unknown op: " + name));
            }
            if (!alive)
                break;
        }
        if (channel.lineTooLong()) {
            // The peer streamed a line past the bound; tell it why
            // before hanging up (framing cannot resynchronize inside
            // an unread line, so the connection is done).
            harness::Json reply = errorReply(
                "request line exceeds " +
                std::to_string(config_.maxLineBytes) + " bytes");
            reply.set("code", "line_too_long");
            reply.set("max_line_bytes", uint64_t(config_.maxLineBytes));
            channel.writeJson(reply);
        }
    }
    // Deregister our fd (LineChannel already closed it).
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.erase(std::remove(connFds_.begin(), connFds_.end(), fd),
                       connFds_.end());
    }
    std::lock_guard<std::mutex> lock(metricsMutex_);
    connections_->add(-1);
}

harness::Json
Server::handleSubmit(const harness::Json &request)
{
    const harness::Json *label = request.find("label");
    const harness::Json *jobs = request.find("jobs");
    if (!label || label->kind() != harness::Json::Kind::String ||
        !jobs || jobs->kind() != harness::Json::Kind::Array)
        return errorReply("submit needs label + jobs[]");
    // Requests from older clients may carry a "priority" member; the
    // queue is FIFO, so it is ignored.

    // Each job is decoded, then encoded and dumped once: the content
    // key, the sweep id and the journal's SweepBegin all use those
    // canonical bytes of the *decoded* jobs, so any client JSON that
    // means the same job list derives the same id.
    auto sweep = std::make_shared<Sweep>();
    sweep->label = label->asString();
    sweep->jobs.reserve(jobs->size());
    std::vector<std::string> job_json;
    job_json.reserve(jobs->size());
    for (size_t i = 0; i < jobs->size(); ++i) {
        SweepJob entry;
        if (!decodeJob(jobs->at(i), entry.job)) {
            return errorReply("malformed job at index " +
                              std::to_string(i));
        }
        CanonicalJob canonical = canonicalJob(entry.job);
        entry.key = std::move(canonical.key);
        entry.cancel = std::make_shared<std::atomic<bool>>(false);
        sweep->jobs.push_back(std::move(entry));
        job_json.push_back(std::move(canonical.json));
    }
    const std::string id = sweepContentId(sweep->label, job_json);
    sweep->id = id;

    // Idempotent submits: the same content id while the first instance
    // is still live *attaches* — the resuming (or racing) client
    // shares the running sweep's rows instead of re-running them. A
    // finished or cancelled instance is not attached to; the fresh
    // instance below answers from the result index (the warm-resubmit
    // path) or re-runs what the cancel threw away.
    auto attachReply = [](const Sweep &live) {
        harness::Json reply = okReply();
        reply.set("sweep_id", live.id);
        reply.set("jobs", uint64_t(live.jobs.size()));
        reply.set("cached", uint64_t(live.cached));
        reply.set("attached", true);
        return reply;
    };
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it != sweeps_.end() && !it->second->cancelled &&
            it->second->completed < it->second->jobs.size())
            return attachReply(*it->second);
    }

    // Incremental answering: every job whose content key already has an
    // indexed ok row is done before it ever touches the queue.
    size_t cached = 0;
    for (SweepJob &entry : sweep->jobs) {
        if (lookupResult(entry.key, entry.row)) {
            entry.done = true;
            entry.fromCache = true;
            entry.ok = true;
            ++cached;
        }
    }
    sweep->completed = cached;
    sweep->cached = cached;
    shareTraces(*sweep);

    // WAL ordering: the submission must be durable before any of its
    // jobs can run — a dispatcher could otherwise journal a JobDone
    // whose SweepBegin never landed. A sweep the index answered whole
    // is complete already: recovery would have nothing to do for it,
    // so it writes nothing.
    if (cached < sweep->jobs.size()) {
        harness::Json encoded = harness::Json::array();
        for (std::string &json : job_json)
            encoded.push(harness::Json::verbatim(std::move(json)));
        journalSweepBegin(*sweep, std::move(encoded));
    }

    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        // Re-check under the lock: a racing submit of the same content
        // may have won the insert since the check above. Its duplicate
        // SweepBegin is harmless — replay folds repeated Begins of one
        // id into the last.
        auto it = sweeps_.find(id);
        if (it != sweeps_.end() && !it->second->cancelled &&
            it->second->completed < it->second->jobs.size())
            return attachReply(*it->second);
        sweeps_[id] = sweep;
    }

    // Queue the remaining jobs, in submission order, as one batch.
    // QueuedJobs hold the Sweep alive via shared_ptr. The push is
    // all-or-nothing against the high-water mark: on rejection the
    // sweep is withdrawn and the client gets a structured backpressure
    // error to back off on — never a half-enqueued sweep.
    std::vector<QueuedJob> pending;
    for (size_t i = 0; i < sweep->jobs.size(); ++i) {
        if (!sweep->jobs[i].done)
            pending.push_back(QueuedJob{sweep, i});
    }
    size_t queued = pending.size();
    // Gauge bumped before the push so it never dips negative while
    // dispatchers start pulling (rolled back on rejection).
    if (queued) {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(static_cast<int64_t>(queued));
    }
    if (!queue_.pushBatch(std::move(pending))) {
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            sweeps_.erase(id);
        }
        // The rejected sweep must not resurrect at recovery: cancel it
        // in the journal too.
        journalSweepCancel(id);
        if (queued) {
            std::lock_guard<std::mutex> lock(metricsMutex_);
            queueDepth_->add(-static_cast<int64_t>(queued));
        }
        harness::Json reply = errorReply(
            "queue backpressure: " + std::to_string(queued) +
            " job(s) would exceed the high-water mark");
        reply.set("code", "backpressure");
        reply.set("queue_depth", uint64_t(queue_.depth()));
        reply.set("high_water", uint64_t(queue_.highWater()));
        return reply;
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        sweepsSubmitted_->add(1);
        jobsCached_->add(cached);
        jobsDone_->add(cached);
    }
    sweepCv_.notify_all();

    harness::Json reply = okReply();
    reply.set("sweep_id", id);
    reply.set("jobs", uint64_t(sweep->jobs.size()));
    reply.set("cached", uint64_t(cached));
    return reply;
}

void
Server::shareTraces(Sweep &sweep)
{
    sweep.traces = std::make_unique<harness::TraceShare>(&traceShareStats_);
    for (const SweepJob &entry : sweep.jobs) {
        if (!entry.done)
            sweep.traces->add(harness::TraceShare::keyOf(entry.job));
    }
}

void
Server::runSweepJob(const std::shared_ptr<Sweep> &sweep, size_t index,
                    unsigned slot)
{
    SweepJob &entry = sweep->jobs[index];
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(-1);
        runningJobs_->add(1);
    }
    harness::JobResult result;
    if (entry.cancel->load(std::memory_order_relaxed)) {
        // Cancelled while still queued: synthesize the row the
        // executor would produce instead of burning a slot on it.
        result.ok = false;
        result.timedOut = true;
        result.error = "cancelled";
        sweep->traces->claim(harness::TraceShare::keyOf(entry.job));
    } else {
        // executeJob never throws and never crashes the process —
        // panics become structured failure rows, hangs are cancelled
        // by the watchdog (the daemon wires its own cancel token in as
        // well, so `cancel`/shutdown stop even jobs with no timeout of
        // their own).
        result = executeJob(entry.job, artifacts_, entry.cancel.get(),
                            sweep->traces.get());
    }

    // The row's wire bytes, made once: the index, the results stream
    // and the journal all carry them. Index and count the row before
    // publishing it: a client holding every row of its sweep may
    // resubmit or ask for stats at once, and must then find the index
    // entry and the completed-job counters.
    std::string row = encodeJobResult(result).dump();
    if (result.ok)
        indexResult(entry.key, row);
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        runningJobs_->add(-1);
        jobsDone_->add(1);
        if (slot < slotJobs_.size())
            ++slotJobs_[slot];
        if (!result.ok)
            jobsFailed_->add(1);
        jobWallMs_->record(
            static_cast<uint64_t>(result.wallSeconds * 1000.0));
    }
    bool journal_row;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        entry.row = std::move(row);
        entry.ok = result.ok;
        entry.done = true;
        ++sweep->completed;
        if (!entry.ok)
            ++sweep->failed;
        // Rows produced while stopping or after a cancel are artifacts
        // of the interruption ("cancelled" failures), not results —
        // journaling them would persist wrong rows across a restart.
        // Genuine failures ARE journaled: recovery must restore the
        // exact row (original wallSeconds included) for byte identity.
        journal_row = !sweep->cancelled &&
                      !stopping_.load(std::memory_order_relaxed);
    }
    if (journal_row) {
        journalJobDone(*sweep, index);
        maybeCompactJournal(false);
    }
    sweepCv_.notify_all();
}

bool
Server::lookupResult(const std::string &key, std::string &row)
{
    std::lock_guard<std::mutex> lock(indexMutex_);
    auto it = resultIndex_.find(key);
    if (it == resultIndex_.end())
        return false;
    indexLru_.splice(indexLru_.end(), indexLru_, it->second);
    row = it->second->row;
    return true;
}

void
Server::indexResult(const std::string &key, const std::string &row)
{
    uint64_t bytes = key.size() + row.size();
    std::lock_guard<std::mutex> lock(indexMutex_);
    auto it = resultIndex_.find(key);
    if (it != resultIndex_.end()) {
        IndexedRow &entry = *it->second;
        indexBytes_ = indexBytes_ - entry.bytes + bytes;
        entry.row = row;
        entry.bytes = bytes;
        indexLru_.splice(indexLru_.end(), indexLru_, it->second);
    } else {
        indexLru_.push_back(IndexedRow{key, row, bytes});
        resultIndex_.emplace(indexLru_.back().key,
                             std::prev(indexLru_.end()));
        indexBytes_ += bytes;
    }
    while (config_.cacheMaxBytes && indexBytes_ > config_.cacheMaxBytes) {
        const IndexedRow &oldest = indexLru_.front();
        indexBytes_ -= oldest.bytes;
        resultIndex_.erase(std::string_view(oldest.key));
        indexLru_.pop_front();
        ++indexEvictions_;
    }
}

harness::Json
Server::handleStatus(const harness::Json &request)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return errorReply("status needs sweep_id");
    const std::string id = id_json->asString();

    std::lock_guard<std::mutex> lock(sweepMutex_);
    auto it = sweeps_.find(id);
    if (it == sweeps_.end())
        return errorReply("unknown sweep_id");
    const Sweep &sweep = *it->second;
    harness::Json reply = okReply();
    reply.set("state", sweep.cancelled ? "cancelled"
              : sweep.completed == sweep.jobs.size() ? "done"
                                                     : "running");
    reply.set("total", uint64_t(sweep.jobs.size()));
    reply.set("done", uint64_t(sweep.completed));
    reply.set("cached", uint64_t(sweep.cached));
    reply.set("failed", uint64_t(sweep.failed));
    return reply;
}

bool
Server::handleResults(const harness::Json &request, LineChannel &channel)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return channel.writeJson(errorReply("results needs sweep_id"));
    const std::string id = id_json->asString();
    std::shared_ptr<Sweep> sweep;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it != sweeps_.end())
            sweep = it->second;
    }
    if (!sweep)
        return channel.writeJson(errorReply("unknown sweep_id"));

    // Stream rows in submission order, each as soon as it is done —
    // index hits flow immediately, live jobs as they finish. Submission
    // order (not completion order) keeps the stream deterministic.
    for (size_t i = 0; i < sweep->jobs.size(); ++i) {
        harness::Json row;
        {
            std::unique_lock<std::mutex> lock(sweepMutex_);
            sweepCv_.wait(lock, [&] {
                return sweep->jobs[i].done ||
                       (sweep->cancelled && stopping_.load());
            });
            if (!sweep->jobs[i].done)
                return channel.writeJson(errorReply("daemon stopping"));
            row = okReply();
            row.set("job", uint64_t(i));
            row.set("cached", sweep->jobs[i].fromCache);
            row.set("result", harness::Json::verbatim(sweep->jobs[i].row));
        }
        if (!channel.writeJson(row))
            return false;  // peer went away; jobs keep running
    }
    harness::Json done = okReply();
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        done.set("complete", true);
        done.set("total", uint64_t(sweep->jobs.size()));
        done.set("cached", uint64_t(sweep->cached));
        done.set("failed", uint64_t(sweep->failed));
    }
    return channel.writeJson(done);
}

harness::Json
Server::handleCancel(const harness::Json &request)
{
    const harness::Json *id_json = request.find("sweep_id");
    if (!id_json || id_json->kind() != harness::Json::Kind::String)
        return errorReply("cancel needs sweep_id");
    const std::string id = id_json->asString();

    size_t cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(sweepMutex_);
        auto it = sweeps_.find(id);
        if (it == sweeps_.end())
            return errorReply("unknown sweep_id");
        Sweep &sweep = *it->second;
        sweep.cancelled = true;
        for (SweepJob &job : sweep.jobs) {
            if (!job.done) {
                job.cancel->store(true, std::memory_order_relaxed);
                ++cancelled;
            }
        }
    }
    // A cancelled sweep must stay cancelled across a restart.
    journalSweepCancel(id);
    sweepCv_.notify_all();
    harness::Json reply = okReply();
    reply.set("cancelled", uint64_t(cancelled));
    return reply;
}

harness::Json
Server::handleStats()
{
    harness::Json reply = okReply();
    double uptime = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started_)
                        .count();
    reply.set("queue_depth", uint64_t(queue_.depth()));
    reply.set("high_water", uint64_t(queue_.highWater()));
    reply.set("worker_threads", uint64_t(dispatchThreads_.size()));
    // Recovery accounting: what this daemon revived from its journal
    // at start() (all zero after a clean start).
    reply.set("recovered_sweeps", recoveredSweeps_);
    reply.set("replayed_records", replayedRecords_);
    reply.set("requeued_jobs", requeuedJobs_);
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        if (journal_.isOpen()) {
            const JournalStats &js = journal_.stats();
            harness::Json journal_json = harness::Json::object();
            journal_json.set("bytes", js.sizeBytes);
            journal_json.set("appended", js.appended);
            journal_json.set("append_failures", js.appendFailures);
            journal_json.set("compactions", js.compactions);
            journal_json.set("torn_bytes", js.tornBytes);
            reply.set("journal", std::move(journal_json));
        }
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        reply.set("uptime_seconds", uptime);
        reply.set("running_jobs", uint64_t(std::max<int64_t>(
                                      0, runningJobs_->value)));
        reply.set("jobs_done", jobsDone_->value);
        reply.set("jobs_failed", jobsFailed_->value);
        reply.set("jobs_cached", jobsCached_->value);
        reply.set("sweeps_submitted", sweepsSubmitted_->value);
        reply.set("jobs_per_second",
                  uptime > 0
                      ? static_cast<double>(jobsDone_->value) / uptime
                      : 0.0);
        reply.set("metrics", metrics_.toJson());
    }
    // Per-slot execution accounting: jobs each dispatcher completed.
    harness::Json per_worker = harness::Json::array();
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        for (size_t i = 0; i < slotJobs_.size(); ++i) {
            harness::Json row = harness::Json::object();
            row.set("worker", uint64_t(i));
            row.set("jobs_completed", slotJobs_[i]);
            per_worker.push(std::move(row));
        }
    }
    reply.set("per_worker", std::move(per_worker));
    reply.set("artifact_hits", artifacts_.hits());
    reply.set("artifact_builds", artifacts_.builds());
    // Handler-replay trace sharing across each sweep's jobs (DESIGN.md
    // section 19); host-side only, never part of a row.
    harness::Json share_json = harness::Json::object();
    share_json.set("seeded_jobs", traceShareStats_.seeded.load());
    share_json.set("stores_published", traceShareStats_.published.load());
    share_json.set("seeds_rejected", traceShareStats_.rejected.load());
    share_json.set("peak_retained_bytes",
                   traceShareStats_.peakBytes.load());
    reply.set("trace_share", std::move(share_json));
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        harness::Json index_json = harness::Json::object();
        index_json.set("rows", uint64_t(indexLru_.size()));
        index_json.set("bytes", indexBytes_);
        index_json.set("evictions", indexEvictions_);
        reply.set("result_index", std::move(index_json));
    }
    return reply;
}

// ---------------------------------------------------------------------
// Durability: socket lock, journal, recovery (DESIGN.md section 17)
// ---------------------------------------------------------------------

bool
Server::openJournal(std::string &error)
{
    ::mkdir(config_.cacheDir.c_str(), 0775);
    bool busy = false;
    dirLockFd_ = lockFile(config_.cacheDir + "/" + kDirLockName, busy,
                          error);
    if (busy) {
        error = "another daemon is live on cache directory " +
                config_.cacheDir + " (" + error + ")";
        return false;
    }
    JournalFsyncPolicy policy;
    if (dirLockFd_ < 0) {
        // The directory is unusable; fall through to memory-only.
    } else if (!JournalFsyncPolicy::parse(config_.journalFsync, policy)) {
        error = "bad journal fsync policy: " + config_.journalFsync;
    } else if (journal_.open(config_.cacheDir + "/" + kJournalName,
                             policy, error)) {
        if (!recoverFromJournal(error))
            journal_.close();  // degrade: serve without a journal
    }
    if (!error.empty())
        std::fprintf(stderr, "rtdc_serve: journal disabled: %s\n",
                     error.c_str());
    error.clear();
    return true;
}

void
Server::releaseLocks()
{
    if (socketLockFd_ >= 0) {
        ::close(socketLockFd_);  // closing drops the record lock
        socketLockFd_ = -1;
        ::unlink((config_.socketPath + ".lock").c_str());
    }
    // The directory's lock file stays: it sits beside the journal, and
    // the next daemon on the directory locks the same file.
    if (dirLockFd_ >= 0) {
        ::close(dirLockFd_);
        dirLockFd_ = -1;
    }
}

void
Server::journalSweepBegin(const Sweep &sweep, harness::Json encodedJobs)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    harness::Json payload = harness::Json::object();
    payload.set("id", sweep.id);
    payload.set("label", sweep.label);
    payload.set("jobs", std::move(encodedJobs));
    journal_.append(Journal::kSweepBegin, payload);
}

void
Server::journalJobDone(const Sweep &sweep, size_t index)
{
    // entry.done was published under sweepMutex_ before this call;
    // after that no writer touches the row, so the lock-free read of
    // the result here is safe (this thread wrote it).
    const SweepJob &entry = sweep.jobs[index];
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    harness::Json payload = harness::Json::object();
    payload.set("id", sweep.id);
    payload.set("index", uint64_t(index));
    payload.set("cached", entry.fromCache);
    payload.set("result", harness::Json::verbatim(entry.row));
    journal_.append(Journal::kJobDone, payload);
}

void
Server::journalSweepCancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    harness::Json payload = harness::Json::object();
    payload.set("id", id);
    journal_.append(Journal::kSweepCancel, payload);
}

std::vector<JournalRecord>
Server::snapshotJournalRecords()
{
    // Caller holds journalMutex_; taking indexMutex_ and then
    // sweepMutex_ inside it is the documented lock order. The snapshot
    // is exactly what recovery would need: every indexed row, least
    // recently used first so that replay restores the LRU order, then a
    // Begin per live unfinished sweep plus a Done per settled row.
    std::vector<JournalRecord> records;
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        records.reserve(indexLru_.size());
        for (const IndexedRow &entry : indexLru_) {
            harness::Json payload = harness::Json::object();
            payload.set("key", entry.key);
            payload.set("result", harness::Json::verbatim(entry.row));
            records.push_back(JournalRecord{Journal::kRow,
                                            std::move(payload)});
        }
    }
    std::lock_guard<std::mutex> lock(sweepMutex_);
    for (const auto &[id, sweep] : sweeps_) {
        if (sweep->cancelled || sweep->completed >= sweep->jobs.size())
            continue;
        JournalRecord begin;
        begin.type = Journal::kSweepBegin;
        harness::Json payload = harness::Json::object();
        payload.set("id", sweep->id);
        payload.set("label", sweep->label);
        harness::Json encoded = harness::Json::array();
        for (const SweepJob &entry : sweep->jobs)
            encoded.push(encodeJob(entry.job));
        payload.set("jobs", std::move(encoded));
        begin.payload = std::move(payload);
        records.push_back(std::move(begin));
        for (size_t i = 0; i < sweep->jobs.size(); ++i) {
            const SweepJob &entry = sweep->jobs[i];
            if (!entry.done)
                continue;
            JournalRecord done;
            done.type = Journal::kJobDone;
            harness::Json row = harness::Json::object();
            row.set("id", sweep->id);
            row.set("index", uint64_t(i));
            row.set("cached", entry.fromCache);
            row.set("result", harness::Json::verbatim(entry.row));
            done.payload = std::move(row);
            records.push_back(std::move(done));
        }
    }
    return records;
}

void
Server::maybeCompactJournal(bool force)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    uint64_t size = journal_.stats().sizeBytes;
    if (!force) {
        // Size threshold plus a growth gate over the last compaction's
        // floor: when the *live* state itself is near the threshold,
        // compacting after every completed job would go quadratic.
        if (size < config_.journalCompactBytes ||
            size < journalCompactFloor_ * 2)
            return;
    }
    if (journal_.compact(snapshotJournalRecords()))
        journalCompactFloor_ = journal_.stats().sizeBytes;
}

bool
Server::recoverFromJournal(std::string &error)
{
    // Single-threaded (no dispatchers, no accept loop yet), so the
    // replay can build sweep state without locks — they are taken
    // anyway for uniformity with the running daemon.
    std::map<std::string, std::shared_ptr<Sweep>> live;
    uint64_t row_records = 0;
    bool ok = journal_.replay(
        [&](uint32_t type, const harness::Json &payload) {
            if (type == Journal::kRow) {
                const harness::Json *key = payload.find("key");
                const harness::Json *result = payload.find("result");
                // Decoded, then re-encoded: the decode vets the row, and
                // a parsed row would re-dump its exact doubles at ten
                // digits.
                harness::JobResult row;
                if (key && key->kind() == harness::Json::Kind::String &&
                    result && decodeJobResult(*result, row) && row.ok) {
                    indexResult(key->asString(),
                                encodeJobResult(row).dump());
                    ++row_records;
                }
                return;
            }
            const harness::Json *id_json = payload.find("id");
            if (!id_json ||
                id_json->kind() != harness::Json::Kind::String)
                return;
            const std::string &id = id_json->asString();
            if (type == Journal::kSweepBegin) {
                const harness::Json *label = payload.find("label");
                const harness::Json *jobs = payload.find("jobs");
                if (!label ||
                    label->kind() != harness::Json::Kind::String ||
                    !jobs ||
                    jobs->kind() != harness::Json::Kind::Array)
                    return;
                auto sweep = std::make_shared<Sweep>();
                sweep->id = id;
                // Journals written before the queue became FIFO also
                // carry a "priority" member; it is ignored.
                sweep->label = label->asString();
                sweep->jobs.reserve(jobs->size());
                for (size_t i = 0; i < jobs->size(); ++i) {
                    SweepJob entry;
                    if (!decodeJob(jobs->at(i), entry.job))
                        return;  // foreign/stale record: skip sweep
                    entry.key = jobContentKey(entry.job);
                    entry.cancel =
                        std::make_shared<std::atomic<bool>>(false);
                    sweep->jobs.push_back(std::move(entry));
                }
                // Last Begin of an id wins (a duplicate from a racing
                // attach, or a fresh instance after a cancel).
                live[id] = std::move(sweep);
            } else if (type == Journal::kJobDone) {
                auto it = live.find(id);
                const harness::Json *index = payload.find("index");
                const harness::Json *result = payload.find("result");
                if (it == live.end() || !index ||
                    index->kind() != harness::Json::Kind::Int ||
                    !result)
                    return;
                Sweep &sweep = *it->second;
                size_t i = static_cast<size_t>(index->asInt());
                if (i >= sweep.jobs.size() || sweep.jobs[i].done)
                    return;
                SweepJob &entry = sweep.jobs[i];
                harness::JobResult row;
                if (!decodeJobResult(*result, row))
                    return;  // undecodable row: the job just re-runs
                entry.row = encodeJobResult(row).dump();
                entry.ok = row.ok;
                if (entry.ok)
                    indexResult(entry.key, entry.row);
                entry.done = true;
                if (const harness::Json *c = payload.find("cached");
                    c && c->kind() == harness::Json::Kind::Bool &&
                    c->asBool()) {
                    entry.fromCache = true;
                    ++sweep.cached;
                }
                ++sweep.completed;
                if (!entry.ok)
                    ++sweep.failed;
            } else if (type == Journal::kSweepCancel) {
                live.erase(id);
            }
        },
        error);
    if (!ok)
        return false;
    replayedRecords_ = journal_.stats().replayedRecords;

    // Adopt the recovered sweeps and requeue every job whose row the
    // journal does not hold (one the crash cut off, or an append the
    // fault shim failed). forcePush: these jobs were admitted once —
    // the high-water mark only refuses *new* work.
    size_t requeued_total = 0;
    for (auto &[id, sweep] : live) {
        shareTraces(*sweep);
        std::vector<QueuedJob> pending;
        for (size_t i = 0; i < sweep->jobs.size(); ++i) {
            if (!sweep->jobs[i].done)
                pending.push_back(QueuedJob{sweep, i});
        }
        size_t queued = pending.size();
        if (queued)
            queue_.forcePush(std::move(pending));
        requeued_total += queued;
        {
            std::lock_guard<std::mutex> lock(sweepMutex_);
            sweeps_[id] = sweep;
        }
        ++recoveredSweeps_;
    }
    requeuedJobs_ = requeued_total;
    if (requeued_total) {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        queueDepth_->add(static_cast<int64_t>(requeued_total));
    }
    if (recoveredSweeps_)
        std::fprintf(stderr,
                     "rtdc_serve: recovered %llu sweep(s) from the "
                     "journal (%llu record(s) replayed, %llu job(s) "
                     "requeued)\n",
                     static_cast<unsigned long long>(recoveredSweeps_),
                     static_cast<unsigned long long>(replayedRecords_),
                     static_cast<unsigned long long>(requeued_total));

    // Checkpoint what we just rebuilt: the journal restarts from the
    // compacted snapshot instead of re-growing the whole history. A
    // journal of distinct rows that all fit the bound is that snapshot
    // already, and is left as it is.
    bool compact;
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        compact = replayedRecords_ == row_records &&
                  indexLru_.size() == row_records;
    }
    if (!compact)
        maybeCompactJournal(true);
    return true;
}

} // namespace rtd::serve
