/**
 * @file
 * SweepRunner: executes a list of Jobs across worker threads.
 *
 * Results come back in a vector aligned with the submitted job list —
 * completion order never leaks into the output, which (together with
 * jobs being pure functions of their values, see job.h) makes a
 * parallel sweep byte-identical to a serial one.
 *
 * Progress goes to stderr (never stdout — the registered sweeps promise
 * byte-stable human tables on stdout): a throttled "k/n jobs" line
 * while running when stderr is a terminal, and one final summary line
 * with wall-clock time and artifact-cache effectiveness.
 */

#ifndef RTDC_HARNESS_RUNNER_H
#define RTDC_HARNESS_RUNNER_H

#include <atomic>
#include <string>
#include <vector>

#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/trace_share.h"

namespace rtd::harness {

/**
 * Execute one job, once: watchdog and crash isolation (fatal()/panic()
 * anywhere in the generate → build → simulate pipeline become a
 * structured failure row, never a process exit). A job is a pure
 * function of its value, so a failed job would fail the same way again
 * and there is no retry. This is the single definition of "run a job"
 * shared by the batch SweepRunner and the rtdc_serve daemon's queue
 * workers.
 *
 * @param external_cancel optional additional cancellation source (the
 *        daemon's per-job cancel flag), OR-ed with the job's watchdog;
 *        when it fires the result is a timed-out failure row.
 * @param share optional handler-replay trace share of the job's batch
 *        (which counted the job): the job claims its key, seeds its run
 *        from the store the claim returned, and may publish its own
 *        store after the run.
 */
JobResult executeJob(const Job &job, ArtifactCache &cache,
                     const std::atomic<bool> *external_cancel = nullptr,
                     TraceShare *share = nullptr);

/** Worker count for a thread count of 0: max(1, hardware threads). */
unsigned defaultThreadCount();

/**
 * Anything that can execute a list of sweep jobs and return their
 * results in job-list order. SweepRunner is the in-process
 * implementation; serve::RemoteExecutor submits the same jobs to a
 * persistent rtdc_serve daemon instead. Registered sweeps run through
 * this seam (SweepOptions::executor), which is what makes a daemon-
 * served sweep byte-identical to a batch one: the job lists and all
 * downstream table/JSON rendering are shared, only the execution
 * transport differs.
 */
class JobExecutor
{
  public:
    virtual ~JobExecutor() = default;

    /**
     * Execute every job and return their results in job-list order.
     * @p cache shares expensive intermediates for local execution;
     * remote implementations may ignore it (the daemon owns its own).
     */
    virtual std::vector<JobResult> run(const std::string &label,
                                       const std::vector<Job> &jobs,
                                       ArtifactCache &cache) = 0;
};

/** Parallel executor for sweep jobs. */
class SweepRunner : public JobExecutor
{
  public:
    /** @param threads worker count; 0 means one per hardware thread. */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Execute every job on min(threads, jobs) worker threads, which
     * start jobs in list order, and return their results in job-list
     * order. Expensive intermediates are shared
     * through @p cache, handler-replay traces through one TraceShare
     * per call. @p label prefixes the progress lines.
     */
    std::vector<JobResult> run(const std::string &label,
                               const std::vector<Job> &jobs,
                               ArtifactCache &cache) override;

  private:
    unsigned threads_;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_RUNNER_H
