/**
 * @file
 * Wire framing of the rtdc_serve protocol (DESIGN.md section 14).
 *
 * The protocol is line-delimited JSON over a local (AF_UNIX) stream
 * socket: every request and every reply is exactly one JSON object on
 * one '\n'-terminated line. Grammar:
 *
 *   request  := { "op": OPNAME, ...op-specific members }
 *   reply    := { "ok": true, ... } | { "ok": false, "error": STRING }
 *
 *   op "ping"     -> { "ok": true }
 *   op "submit"   { "label": S, "jobs": [JOB...] }
 *                 -> { "ok": true, "sweep_id": S, "jobs": N,
 *                      "cached": N, "attached": B? }
 *                    (cached = result-index hits that never touch the
 *                     queue). sweep_id is *content-derived* (16 hex
 *                    chars of a stable hash over label + jobs — see
 *                    wire::sweepContentId), so submitting the same
 *                    sweep twice while the first instance is still
 *                    live attaches to it ("attached": true) instead of
 *                    running it twice: submits are idempotent, which
 *                    is what lets a client resume across daemon
 *                    restarts.
 *                 | { "ok": false, "code": "backpressure",
 *                     "queue_depth": N, "high_water": N, "error": S }
 *                    when the uncached jobs would push the queue past
 *                    its high-water mark (nothing is enqueued; the
 *                    client backs off and resubmits). Jobs run in
 *                    submission order; a "priority" member from an
 *                    older client is ignored.
 *   op "status"   { "sweep_id": S }
 *                 -> { "ok": true, "state": "running"|"done"|
 *                      "cancelled", "total": N, "done": N,
 *                      "cached": N, "failed": N }
 *   op "results"  { "sweep_id": S }
 *                 -> a stream: one { "ok": true, "job": i,
 *                      "result": JOBRESULT } line per job as each
 *                    completes (result-index hits stream immediately),
 *                    terminated by { "ok": true, "complete": true,
 *                      "total": N, "cached": N, "failed": N }
 *   op "cancel"   { "sweep_id": S } -> { "ok": true, "cancelled": N }
 *   op "stats"    -> { "ok": true, "queue_depth": N, "high_water": N,
 *                      "worker_threads": N (dispatcher threads),
 *                      "recovered_sweeps": N, "replayed_records": N,
 *                      "requeued_jobs": N (journal recovery, see
 *                        journal.h; 0 on a clean start),
 *                      "per_worker": [ { "worker": i,
 *                        "jobs_completed": N } ... ] (one per thread),
 *                      ...counters, "result_index": { "rows": N,
 *                        "bytes": N, "evictions": N },
 *                      "journal": {...}?, "metrics": {...} }
 *   op "shutdown" -> { "ok": true } then the daemon stops serving.
 *
 * JOB and JOBRESULT are the serve::wire encodings (wire.h). Unknown
 * ops and malformed lines get an { "ok": false } reply; the connection
 * stays open (one bad request must not kill a client's other sweeps).
 * One exception: a request line longer than the channel's bound gets
 * { "ok": false, "code": "line_too_long", ... } and the connection is
 * closed — framing can't resynchronize inside an unread line.
 *
 * This header also owns the low-level socket plumbing shared by daemon
 * and client: listen/connect on a unix path and a buffered LineChannel
 * that splits the stream back into lines (tolerating CRLF peers).
 */

#ifndef RTDC_SERVE_PROTO_H
#define RTDC_SERVE_PROTO_H

#include <cstddef>
#include <string>

#include "harness/json.h"

namespace rtd::serve {

/**
 * Create, bind, and listen on a unix stream socket at @p path (an
 * existing stale socket file is replaced). Returns the listening fd,
 * or -1 with @p error filled.
 */
int listenUnix(const std::string &path, std::string &error);

/** Connect to the daemon at @p path; -1 with @p error on failure. */
int connectUnix(const std::string &path, std::string &error);

/**
 * Buffered '\n'-delimited framing over one socket fd. Reads tolerate
 * CRLF line endings and partial segments; writes always emit exactly
 * one '\n' per message and retry short writes. Not thread-safe: each
 * connection is owned by one thread on each side.
 */
class LineChannel
{
  public:
    /**
     * Default per-line byte bound. Generous — a tens-of-thousands-of-
     * jobs matrix submit is tens of MiB — but finite: a peer that
     * streams bytes without ever sending '\n' must not grow the
     * daemon's buffer without limit (an anti-OOM bound, not a protocol
     * limit).
     */
    static constexpr size_t kDefaultMaxLine = 64ull << 20;

    /** Takes ownership of @p fd (closed on destruction). A line longer
     *  than @p max_line fails the read with lineTooLong() set. */
    explicit LineChannel(int fd, size_t max_line = kDefaultMaxLine)
        : fd_(fd), maxLine_(max_line ? max_line : kDefaultMaxLine)
    {
    }
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    bool valid() const { return fd_ >= 0; }

    /**
     * Read the next line (without its terminator) into @p line.
     * Returns false on EOF, a read error, or an over-long line (check
     * lineTooLong()) — the connection is done either way.
     */
    bool readLine(std::string &line);

    /** True when the last readLine failed because the incoming line
     *  exceeded the max_line bound. */
    bool lineTooLong() const { return lineTooLong_; }

    /** Write @p line plus '\n'. False on a write error. */
    bool writeLine(const std::string &line);

    /** Serialize @p message compactly and write it as one line. */
    bool writeJson(const harness::Json &message);

    /**
     * Read one line and parse it; false on EOF/parse error (with
     * @p error filled on a parse error, empty on clean EOF).
     */
    bool readJson(harness::Json &message, std::string &error);

    /** Close early (further reads/writes fail). */
    void close();

    /** Underlying fd, for poll()-style readiness waits. */
    int fd() const { return fd_; }

  private:
    /** Bytes asked of each read(). */
    static constexpr size_t kReadChunk = 64 * 1024;

    /** Write @p framed (already '\n'-terminated) whole. */
    bool sendAll(const std::string &framed);

    int fd_ = -1;
    size_t maxLine_ = kDefaultMaxLine;
    bool lineTooLong_ = false;
    std::string buffer_;
    /** Prefix of buffer_ already searched for '\n' without a hit. */
    size_t scanned_ = 0;
};

/// @name Reply builders
/// @{
harness::Json okReply();
harness::Json errorReply(const std::string &message);
/// @}

} // namespace rtd::serve

#endif // RTDC_SERVE_PROTO_H
