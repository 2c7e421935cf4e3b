#include "harness/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "support/logging.h"

namespace rtd::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Per-job wall-clock watchdog: sets the job's cancellation flag
 * (polled by the Cpu, see CpuConfig::cancel) once the deadline passes
 * or an external cancellation source (the serve daemon's per-job cancel
 * op) fires. Destruction disarms and joins, so a finished job never
 * leaks a timer thread.
 */
class Watchdog
{
  public:
    Watchdog(double seconds, const std::atomic<bool> *external,
             std::atomic<bool> &flag)
    {
        thread_ = std::thread([this, seconds, external, &flag] {
            Clock::time_point deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        seconds > 0 ? seconds : 0));
            std::unique_lock<std::mutex> lock(mutex_);
            while (!disarmed_) {
                if (external &&
                    external->load(std::memory_order_relaxed)) {
                    flag.store(true, std::memory_order_relaxed);
                    return;
                }
                if (seconds > 0 && Clock::now() >= deadline) {
                    flag.store(true, std::memory_order_relaxed);
                    return;
                }
                cv_.wait_for(lock, std::chrono::milliseconds(20),
                             [this] { return disarmed_; });
            }
        });
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            disarmed_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool disarmed_ = false;
    std::thread thread_;
};

} // namespace

JobResult
executeJob(const Job &job, ArtifactCache &cache,
           const std::atomic<bool> *external_cancel, TraceShare *share)
{
    Clock::time_point job_start = Clock::now();
    const std::string share_key = share ? TraceShare::keyOf(job) : "";
    if (share_key.empty())
        share = nullptr;
    const std::shared_ptr<const cpu::FrozenTraces> base =
        share ? share->claim(share_key) : nullptr;
    JobResult out;
    std::atomic<bool> cancel{false};
    // A deadline needs the watchdog thread; a pure external token does
    // not — the Cpu polls CpuConfig::cancel itself, so the token wires
    // straight in. That saves one watchdog thread per daemon job, whose
    // only deadline is the daemon's own cancel token.
    bool deadline = job.timeoutSeconds > 0;
    // Never throws and never terminates the process: fatal()/panic()/
    // RTDC_ASSERT anywhere in the generate → build → simulate pipeline
    // are converted to SimError by the ScopedErrorTrap and reported as a
    // structured failure, so one poisoned job cannot take down its
    // sweep siblings.
    try {
        ScopedErrorTrap trap;
        std::optional<Watchdog> watchdog;
        if (deadline)
            watchdog.emplace(job.timeoutSeconds, external_cancel, cancel);
        std::shared_ptr<const core::BuiltImage> built =
            cache.builtImage(job.workload, job.config);
        core::SystemConfig config = job.config;
        if (deadline)
            config.cpu.cancel = &cancel;
        else if (external_cancel)
            config.cpu.cancel = external_cancel;
        core::System system(built, config);
        if (base)
            share->seed(system, base);
        out.result = system.run();
        if (share)
            share->offer(share_key, system);
        if (out.result.stats.cancelled) {
            out.ok = false;
            out.timedOut = true;
            if (external_cancel &&
                external_cancel->load(std::memory_order_relaxed)) {
                out.error = "cancelled";
            } else {
                char buf[64];
                std::snprintf(buf, sizeof buf, "timed out after %.3gs",
                              job.timeoutSeconds);
                out.error = buf;
            }
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.result = core::SystemResult{};
        out.error = e.what();
    }
    out.wallSeconds = secondsSince(job_start);
    return out;
}

unsigned
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads ? threads : defaultThreadCount())
{
}

std::vector<JobResult>
SweepRunner::run(const std::string &label, const std::vector<Job> &jobs,
                 ArtifactCache &cache)
{
    std::vector<JobResult> results(jobs.size());
    uint64_t hits_before = cache.hits();
    uint64_t builds_before = cache.builds();
    Clock::time_point start = Clock::now();

    std::mutex progress_mutex;
    size_t completed = 0;
    Clock::time_point last_report = start;
    bool interactive = isatty(2) != 0;

    TraceShare share(jobs);
    // Workers take job indices from one counter, so jobs start in list
    // order; executeJob never throws, so a worker needs no error path.
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < jobs.size();) {
            const Job &job = jobs[i];
            JobResult &out = results[i];
            out = executeJob(job, cache, nullptr, &share);

            std::lock_guard<std::mutex> lock(progress_mutex);
            ++completed;
            if (!out.ok) {
                std::fprintf(stderr, "[%s] job %s failed: %s\n",
                             label.c_str(), job.tag.c_str(),
                             out.error.c_str());
            }
            if (interactive && secondsSince(last_report) >= 0.5) {
                last_report = Clock::now();
                std::fprintf(stderr, "[%s] %zu/%zu jobs, %.1fs\n",
                             label.c_str(), completed, jobs.size(),
                             secondsSince(start));
            }
        }
    };
    std::vector<std::thread> workers(
        std::min<size_t>(threads_, jobs.size()));
    for (std::thread &thread : workers)
        thread = std::thread(worker);
    for (std::thread &thread : workers)
        thread.join();

    std::fprintf(stderr,
                 "[%s] %zu jobs in %.2fs on %u thread%s "
                 "(artifact cache: %llu hits, %llu builds; trace share: "
                 "%llu seeded, peak %.1f MB)\n",
                 label.c_str(), jobs.size(), secondsSince(start),
                 threads_, threads_ == 1 ? "" : "s",
                 static_cast<unsigned long long>(cache.hits() -
                                                 hits_before),
                 static_cast<unsigned long long>(cache.builds() -
                                                 builds_before),
                 static_cast<unsigned long long>(share.stats().seeded),
                 share.stats().peakBytes / 1e6);
    return results;
}

} // namespace rtd::harness
