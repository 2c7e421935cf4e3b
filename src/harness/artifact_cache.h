/**
 * @file
 * Memoizing cache for expensive intermediate sweep products.
 *
 * A design-space sweep runs the same program under many machine
 * configurations; generating the program and linking + compressing its
 * image are pure functions of a subset of the job, so the cache shares
 * them across jobs:
 *
 *  - Program: keyed by the full WorkloadSpec content (every knob plus
 *    the seed) — a 10-point I-cache sweep generates each program once.
 *  - BuiltImage (linked image + compressed image/dictionaries): keyed by
 *    the program key plus the fields of SystemConfig the link/compress
 *    step actually reads (scheme, regions, order, and the integrity and
 *    data-compression settings when on). A dictionary sweep over cache
 *    sizes compresses each program once.
 *
 * Keys are canonical serializations of the inputs (content keys, not
 * addresses), so logically identical values hit regardless of which job
 * asks first. All artifacts are immutable after construction and handed
 * out as shared_ptr<const T>; concurrent lookups of the same key block
 * on a single builder instead of duplicating work.
 */

#ifndef RTDC_HARNESS_ARTIFACT_CACHE_H
#define RTDC_HARNESS_ARTIFACT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/system.h"
#include "workload/generator.h"

namespace rtd::harness {

/** FNV-1a 64-bit content hash (stable across runs and platforms). */
uint64_t stableHash64(std::string_view bytes);

/** Thread-safe memoizing store for sweep artifacts. */
class ArtifactCache
{
  public:
    ArtifactCache() = default;
    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    /** The generated program for @p spec (built at most once). */
    std::shared_ptr<const prog::Program>
    program(const workload::WorkloadSpec &spec);

    /**
     * The linked + compressed image for (@p spec, @p config), sharing
     * the underlying Program. Safe to hand to core::System on any
     * thread; the System must be configured with a @p config whose
     * image-relevant fields match (the sweep runner guarantees this by
     * construction).
     */
    std::shared_ptr<const core::BuiltImage>
    builtImage(const workload::WorkloadSpec &spec,
               const core::SystemConfig &config);

    /// @name Instrumentation
    /// @{
    uint64_t hits() const { return hits_.load(); }
    uint64_t builds() const { return builds_.load(); }
    /// @}

    /// @name Canonical content keys (exposed for tests/diagnostics)
    /// @{
    static std::string workloadKey(const workload::WorkloadSpec &spec);
    static std::string imageKey(const workload::WorkloadSpec &spec,
                                const core::SystemConfig &config);
    /// @}

  private:
    /**
     * Single-builder memoization: the first caller of a key builds while
     * later callers of the same key wait on its future.
     */
    std::shared_ptr<const void> getOrBuild(
        const std::string &key,
        const std::function<std::shared_ptr<const void>()> &build);

    std::mutex mutex_;
    std::map<std::string, std::shared_future<std::shared_ptr<const void>>>
        entries_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> builds_{0};
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_ARTIFACT_CACHE_H
