/**
 * @file
 * JSON wire codecs for the serve protocol (DESIGN.md section 14).
 *
 * Everything the daemon and client exchange beyond the protocol
 * envelope — jobs going in, results coming out — round-trips through
 * these encoders. Two properties carry the subsystem's guarantees:
 *
 *  - **Exactness.** A decoded Job must describe the *same* simulation
 *    point as the submitted one, or the daemon silently simulates a
 *    different machine. Doubles are therefore emitted with
 *    Json::exactDouble (17 significant digits, bit-exact round-trip)
 *    and integers ride the harness Json's exact 64-bit path. Enums
 *    travel as integers and are range-checked on decode.
 *
 *  - **Determinism.** encodeJob's member order is fixed, so the
 *    compact dump of a job value is a canonical string. jobContentKey
 *    builds on that: the key of a job is the compact JSON of its
 *    {workload, config} pair — everything that determines the
 *    SystemResult, and nothing that doesn't (tag and timeout are
 *    excluded). The daemon's incremental result index keys
 *    on it, in memory and in the journal.
 *
 * Decoders return false on malformed/mistyped/out-of-range input and
 * leave the output in an unspecified-but-safe state; the caller replies
 * with a protocol error instead of crashing.
 */

#ifndef RTDC_SERVE_WIRE_H
#define RTDC_SERVE_WIRE_H

#include <string>
#include <vector>

#include "harness/job.h"
#include "harness/json.h"

namespace rtd::serve {

/// @name Job direction (client -> daemon)
/// @{
harness::Json encodeWorkload(const workload::WorkloadSpec &spec);
bool decodeWorkload(const harness::Json &json,
                    workload::WorkloadSpec &spec);

/**
 * SystemConfig codec. The two runtime-only pointers (cpu.cancel,
 * cpu.observer) are not wire state: they encode as absent and decode
 * as null — the daemon installs its own cancellation token per job.
 */
harness::Json encodeConfig(const core::SystemConfig &config);
bool decodeConfig(const harness::Json &json, core::SystemConfig &config);

harness::Json encodeJob(const harness::Job &job);
bool decodeJob(const harness::Json &json, harness::Job &job);
/// @}

/// @name Result direction (daemon -> client)
/// @{
harness::Json encodeRunStats(const cpu::RunStats &stats);
bool decodeRunStats(const harness::Json &json, cpu::RunStats &stats);

/**
 * The engine-parity comparator: empty when @p a and @p b encode to the
 * same encodeRunStats() JSON, else "key: <a> vs <b>" for the first
 * member that differs. Every RunStats field the wire carries is
 * compared, so a new field cannot be left out of a parity check.
 */
std::string runStatsDiff(const cpu::RunStats &a, const cpu::RunStats &b);

harness::Json encodeSystemResult(const core::SystemResult &result);
bool decodeSystemResult(const harness::Json &json,
                        core::SystemResult &result);

harness::Json encodeJobResult(const harness::JobResult &result);
bool decodeJobResult(const harness::Json &json,
                     harness::JobResult &result);
/// @}

/**
 * Canonical content key of a job: compact JSON of {workload, config}.
 * Two jobs with equal keys produce byte-identical SystemResults (the
 * determinism contract of harness::Job), which is what licenses the
 * daemon's result index to answer a resubmitted job from the previous
 * sweep's row. The tag and the timeout are deliberately excluded: they
 * affect *whether* a result is obtained, never its value.
 */
std::string jobContentKey(const harness::Job &job);

/** The canonical encodings of one job (see canonicalJob()). */
struct CanonicalJob
{
    std::string json;  ///< encodeJob(job).dump()
    std::string key;   ///< jobContentKey(job)
};

/**
 * Both canonical encodings of @p job from one encode and one dump of
 * its workload and config: the daemon's submit path needs the job's
 * bytes (sweep id, journal) and its content key (result index) for
 * every job, and each is byte-identical to its one-purpose function.
 */
CanonicalJob canonicalJob(const harness::Job &job);

/**
 * Content-derived sweep id: 16 hex digits of a stable hash over the
 * label and the canonical (encodeJob) encoding of every job, in
 * submission order. Submitting the same label + job list always yields
 * the same id, which is what makes submits idempotent — a client that
 * lost its connection (or its daemon) re-submits and *attaches* to the
 * still-live sweep instead of re-running it, and a daemon recovering
 * from its journal re-derives the same id the client will ask for.
 * @p jobJson holds each job's compact encodeJob dump
 * (CanonicalJob::json).
 */
std::string sweepContentId(const std::string &label,
                           const std::vector<std::string> &jobJson);

} // namespace rtd::serve

#endif // RTDC_SERVE_WIRE_H
