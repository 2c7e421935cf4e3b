/**
 * @file
 * Machine-configuration matrix generator (DESIGN.md section 9).
 *
 * The paper's figures each vary one machine axis at a time. The matrix
 * generator builds the *cross product*: every benchmark under every
 * combination of I-cache geometry, D-cache size, memory latency,
 * predictor size, and compression scheme — the largest sweep the
 * batch runner and the serve daemon execute (hundreds of jobs, heavy
 * artifact reuse across points that share a workload and image).
 *
 * Job order is deterministic and documented: benchmarks outermost,
 * then icacheBytes, icacheLineBytes, dcacheBytes, memLatencyCycles,
 * predictorEntries, and the scenario axis (compression scheme x
 * data-compression mode) innermost. Keeping the scenario innermost
 * (with the fully-native (None, Off) pair conventionally first) puts
 * each machine point's native baseline directly before its compressed
 * variants, which is what the slowdown rendering and the artifact
 * cache's image sharing both want. matrixJobCount() is exact, so
 * clients can size/reject a matrix before building it.
 */

#ifndef RTDC_HARNESS_MATRIX_H
#define RTDC_HARNESS_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressed_image.h"
#include "core/system.h"
#include "harness/job.h"
#include "harness/sweeps.h"

namespace rtd::harness {

/**
 * One point on the matrix's innermost axis: a code scheme combined
 * with the code/data/both data-compression mode (DESIGN.md section
 * 18). The data side always uses the dictionary data codec at its
 * default page size, so the scenario axis stays one-dimensional.
 */
struct MatrixScenario
{
    compress::Scheme scheme = compress::Scheme::None;
    core::DataCompression data = core::DataCompression::Off;
};

/** Tag suffix of one scenario: "<scheme>" or "<scheme>.dmem". */
std::string matrixScenarioName(const MatrixScenario &scenario);

/** The axes of a machine-configuration matrix sweep. */
struct MatrixAxes
{
    /** Benchmark names (workload::paperBenchmark). */
    std::vector<std::string> benchmarks;
    /** Scenario axis (scheme x data compression). Keep (None, Off)
     *  first for baseline pairing. */
    std::vector<MatrixScenario> scenarios;
    std::vector<uint32_t> icacheBytes;
    std::vector<uint32_t> icacheLineBytes;
    std::vector<uint32_t> dcacheBytes;
    std::vector<unsigned> memLatencyCycles;
    std::vector<unsigned> predictorEntries;
    /** Dynamic-length scale for every workload. */
    double scale = 1.0;

    /**
     * The stock matrix: all 8 paper benchmarks x {native, dictionary,
     * codepack} x {off, data-only, both} scenario pairs (6 of them) x
     * I$ {4K, 16K, 64K} x line 32B x D$ 8K x memory {10, 40} cycles x
     * predictor {512, 2048} entries — 576 jobs.
     */
    static MatrixAxes defaults();
};

/** Exact number of jobs buildMatrixJobs(axes) produces. */
size_t matrixJobCount(const MatrixAxes &axes);

/**
 * Build the full job list in the documented deterministic order. Tags
 * are "matrix/<bench>/i<I$>K.l<line>/d<D$>K/m<lat>/p<pred>/<scenario>"
 * with the scenario suffix from matrixScenarioName(). Fatal on an
 * unknown benchmark name (same contract as workload::paperBenchmark).
 */
std::vector<Job> buildMatrixJobs(const MatrixAxes &axes);

/**
 * The registered "matrix" sweep: run MatrixAxes::defaults() at
 * opts.scale, print per-scheme geomean-slowdown tables, and emit one
 * JSON row per compressed job (slowdown vs the same machine point's
 * native run). Exposed for sweeps.cc's registry.
 */
ResultSink runMatrixSweep(const SweepOptions &opts);

} // namespace rtd::harness

#endif // RTDC_HARNESS_MATRIX_H
