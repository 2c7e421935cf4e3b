/**
 * @file
 * The sweep job model.
 *
 * A Job names exactly one simulation point: which synthetic workload to
 * generate and how to run it (machine, scheme, regions, order, ...).
 * Jobs are *values* — they carry no live state and no shared mutable
 * references, which is what makes it safe to execute an arbitrary subset
 * of a sweep on any worker thread in any order.
 *
 * Determinism contract (see DESIGN.md §Harness): all randomness of a job
 * flows from its WorkloadSpec seed through the deterministic
 * WorkloadGenerator, and the simulator itself is deterministic, so a
 * job's SystemResult is a pure function of the Job value. The runner
 * stores results indexed by submission order, so a parallel sweep is
 * byte-identical to a serial one.
 */

#ifndef RTDC_HARNESS_JOB_H
#define RTDC_HARNESS_JOB_H

#include <string>

#include "core/system.h"
#include "workload/generator.h"

namespace rtd::harness {

/** One simulation point of a sweep. */
struct Job
{
    /** Human-readable point name, e.g. "figure4/cc1/16KB/dictionary". */
    std::string tag;
    /** The workload to generate (seeded, fully deterministic). */
    workload::WorkloadSpec workload;
    /** How to simulate it. */
    core::SystemConfig config;

    /**
     * Wall-clock watchdog (DESIGN.md section 12): after this many
     * seconds the runner requests cooperative cancellation through
     * CpuConfig::cancel and reports the job as timed out. 0 = no
     * timeout.
     */
    double timeoutSeconds = 0.0;
};

/** What one executed Job produced. */
struct JobResult
{
    core::SystemResult result;
    double wallSeconds = 0.0;  ///< this job's execution time (host)

    /// @name Structured failure state (crash isolation)
    /// @{
    bool ok = true;        ///< result is valid (no error, no timeout)
    bool timedOut = false; ///< stopped by Job::timeoutSeconds
    /** Always 1: a job runs once (rows keep the member). */
    unsigned attempts = 1;
    /** Diagnostic of the failure (empty when ok). */
    std::string error;
    /// @}
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_JOB_H
