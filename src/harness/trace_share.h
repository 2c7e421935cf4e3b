/**
 * @file
 * TraceShare: handler-replay traces shared across the jobs of one batch
 * that run the same compressed image (DESIGN.md section 19).
 *
 * A fill's handler trace depends only on the compressed image, the
 * handler text and the fill unit, never on the machine, so the jobs of
 * a sweep that run one image at different cache sizes, memory latencies
 * or predictors would each record the same traces again. A TraceShare
 * is built from a batch's job list and counts, per sharing key, the
 * jobs that have not started yet. The first job of a key to finish
 * cleanly while another job of its key has yet to start publishes its
 * frozen store; each later job of the key starts from it and records
 * only the units it lacks. Every job counts its key down when it
 * starts (or is dropped unrun); the share lets go of the store when
 * the key's last job starts, and the store is freed when that job is
 * done. A key used once retains nothing.
 *
 * Sharing never changes a result: the Cpu ignores a store recorded
 * under another fingerprint, and a replayed trace is exactly what the
 * job would have recorded itself.
 */

#ifndef RTDC_HARNESS_TRACE_SHARE_H
#define RTDC_HARNESS_TRACE_SHARE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/handler_replay.h"
#include "harness/job.h"

namespace rtd::harness {

/** What trace sharing did; thread-safe, may be shared by many
 *  TraceShares (the serve daemon keeps one for all its sweeps). */
struct TraceShareStats
{
    std::atomic<uint64_t> seeded{0};    ///< runs started from a store
    std::atomic<uint64_t> published{0}; ///< stores frozen and shared
    /** Stores a run ignored because its fingerprint differed. */
    std::atomic<uint64_t> rejected{0};
    /** Bytes of published stores still alive (in the share or in a
     *  running job) right now, and their maximum. */
    std::atomic<uint64_t> retainedBytes{0};
    std::atomic<uint64_t> peakBytes{0};

    /** Add @p bytes to the retained total (and the peak). */
    void retain(uint64_t bytes);
    /** Take @p bytes off the retained total. */
    void release(uint64_t bytes);
};

/** The trace stores one batch of jobs shares. Thread-safe. */
class TraceShare
{
  public:
    /** An empty share counting into @p stats (default: its own). */
    explicit TraceShare(TraceShareStats *stats = nullptr);
    /** A share with every job of @p jobs counted. */
    explicit TraceShare(const std::vector<Job> &jobs);
    TraceShare(const TraceShare &) = delete;
    TraceShare &operator=(const TraceShare &) = delete;

    /**
     * The sharing key of @p job: the image key plus the handler inputs
     * (scheme, second register file, I-line size). Empty when the job
     * can neither seed nor publish: no line-granular code scheme, the
     * Oracle engine, tracing, a fault plan or an observer.
     */
    static std::string keyOf(const Job &job);

    /** Count one more pending job (no-op for an empty key). */
    void add(const std::string &key);

    /**
     * A job of @p key starts, or is dropped unrun: count it off the
     * key's pending jobs. Returns the store it should seed from (null
     * when none is published yet). The share drops the store when the
     * key's last job claims it.
     */
    std::shared_ptr<const cpu::FrozenTraces> claim(const std::string &key);

    /** Seed @p system (before its run) from @p base. */
    void seed(core::System &system,
              std::shared_ptr<const cpu::FrozenTraces> base);

    /**
     * After @p system ran: publish its frozen store under @p key when
     * none is published yet, a job of the key has yet to start and the
     * run is eligible (Cpu::freezeTraces).
     */
    void offer(const std::string &key, const core::System &system);

    const TraceShareStats &stats() const { return *stats_; }

  private:
    struct Entry
    {
        size_t pending = 0;
        std::shared_ptr<const cpu::FrozenTraces> traces;
    };

    // The stats outlive the entries: a store's deleter releases its
    // bytes into them.
    TraceShareStats own_;
    TraceShareStats *stats_;
    std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_TRACE_SHARE_H
