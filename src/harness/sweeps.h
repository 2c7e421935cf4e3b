/**
 * @file
 * Registered sweeps: every result the reproduction reports (the
 * paper's Tables 2-3 and Figures 4-5, the Kirovski and 16-bit
 * baselines, placement, the ablations, the data side and the machine
 * matrix) as a named, harness-executed sweep.
 *
 * Each sweep function prints its human tables (stdout is byte-stable)
 * and returns a filled ResultSink; runSweep() additionally writes the
 * sink to `BENCH_<name>.json`. The `rtdc_sweep` and `rtdc_client
 * sweep` CLIs are thin wrappers over this registry.
 */

#ifndef RTDC_HARNESS_SWEEPS_H
#define RTDC_HARNESS_SWEEPS_H

#include <string>
#include <utility>
#include <vector>

#include "harness/result_sink.h"

namespace rtd::harness {

class JobExecutor;  // runner.h

/** How to execute a registered sweep. */
struct SweepOptions
{
    unsigned jobs = 0;     ///< worker threads; 0 = all hardware threads
    double scale = 1.0;    ///< dynamic-length scale factor
    bool writeJson = true; ///< write BENCH_<sweep>.json after the run
    std::string outPath;   ///< JSON path; empty = BENCH_<sweep>.json
    /**
     * Run every job with SystemConfig::observe enabled (metrics +
     * heatmap, no event trace) and roll each job's metrics into the
     * sink under the "metrics" key. Off by default: stdout and JSON
     * stay byte-identical to pre-observability builds.
     */
    bool observe = false;
    /**
     * Where the sweep's jobs actually run. Null = a local SweepRunner
     * with `jobs` threads (the historical behavior). The serve client
     * plugs its RemoteExecutor in here, which is how `rtdc_client sweep`
     * reuses the registered sweeps' job construction and rendering
     * verbatim — only the transport differs, so the daemon-answered
     * sweep is byte-identical to the batch one.
     */
    JobExecutor *executor = nullptr;
    /**
     * Fault-injection for the harness itself: every job whose tag
     * contains this substring has its workload poisoned (hotProcs = 0,
     * which the generator rejects), so the job fails and the sweep
     * demonstrates keep-going + nonzero-exit semantics. Empty = off.
     */
    std::string poisonTag;
    /**
     * When non-null, every failed job appends (tag, error) here —
     * runSweep uses it for the keep-going summary and its exit code.
     */
    std::vector<std::pair<std::string, std::string>> *failures = nullptr;

    /** Defaults from the environment: the scale from RTDC_BENCH_SCALE,
     *  which is fatal when malformed or not positive. */
    static SweepOptions fromEnv();
};

/** One registered sweep. */
struct SweepInfo
{
    const char *name;
    const char *description;
    ResultSink (*fn)(const SweepOptions &);
};

/** All registered sweeps (stable order). */
const std::vector<SweepInfo> &sweeps();

/** Lookup by name; nullptr when unknown. */
const SweepInfo *findSweep(const std::string &name);

/**
 * Apply a sweep command line over @p opts: one positional sweep name
 * (into @p name) plus --jobs N, --scale F, --out FILE, --no-json,
 * --observe and --poison SUB; shared by rtdc_sweep and
 * `rtdc_client sweep`. A number that is malformed, has trailing
 * characters or is not positive is fatal; an unknown option, a missing
 * value, or no or a second name returns false, for the caller's usage
 * message.
 */
bool parseSweepArgs(const std::vector<std::string> &args,
                    SweepOptions &opts, std::string &name);

/**
 * Run a registered sweep: print its tables, then write JSON per
 * @p opts. Failed jobs never abort the sweep (keep-going: the remaining
 * jobs run and the outputs are still written); they are summarized on
 * stderr afterwards and turn the exit code nonzero.
 *
 * Returns a process exit code: 0 = success, 1 = output file error,
 * 2 = unknown sweep, 3 = sweep completed but at least one job failed.
 */
int runSweep(const std::string &name, const SweepOptions &opts);

} // namespace rtd::harness

#endif // RTDC_HARNESS_SWEEPS_H
