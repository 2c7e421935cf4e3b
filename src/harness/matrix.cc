#include "harness/matrix.h"

#include <cmath>
#include <cstdio>

#include "core/experiment.h"
#include "harness/runner.h"
#include "support/table.h"
#include "workload/benchmarks.h"

using rtd::compress::Scheme;

namespace rtd::harness {

std::string
matrixScenarioName(const MatrixScenario &scenario)
{
    std::string name = compress::schemeName(scenario.scheme);
    if (scenario.data != core::DataCompression::Off)
        name += ".dmem";
    return name;
}

MatrixAxes
MatrixAxes::defaults()
{
    MatrixAxes axes;
    for (const auto &benchmark : workload::paperBenchmarks())
        axes.benchmarks.push_back(benchmark.spec.name);
    using core::DataCompression;
    axes.scenarios = {
        {Scheme::None, DataCompression::Off},
        {Scheme::Dictionary, DataCompression::Off},
        {Scheme::CodePack, DataCompression::Off},
        {Scheme::None, DataCompression::DataOnly},
        {Scheme::Dictionary, DataCompression::Both},
        {Scheme::CodePack, DataCompression::Both},
    };
    axes.icacheBytes = {4 * 1024, 16 * 1024, 64 * 1024};
    axes.icacheLineBytes = {32};
    axes.dcacheBytes = {8 * 1024};
    axes.memLatencyCycles = {10, 40};
    axes.predictorEntries = {512, 2048};
    return axes;
}

size_t
matrixJobCount(const MatrixAxes &axes)
{
    return axes.benchmarks.size() * axes.icacheBytes.size() *
           axes.icacheLineBytes.size() * axes.dcacheBytes.size() *
           axes.memLatencyCycles.size() * axes.predictorEntries.size() *
           axes.scenarios.size();
}

std::vector<Job>
buildMatrixJobs(const MatrixAxes &axes)
{
    std::vector<Job> jobs;
    jobs.reserve(matrixJobCount(axes));
    for (const std::string &name : axes.benchmarks) {
        workload::WorkloadSpec spec = workload::scaledSpec(
            workload::paperBenchmark(name), axes.scale);
        for (uint32_t icache : axes.icacheBytes) {
            for (uint32_t line : axes.icacheLineBytes) {
                for (uint32_t dcache : axes.dcacheBytes) {
                    for (unsigned latency : axes.memLatencyCycles) {
                        for (unsigned predictor :
                             axes.predictorEntries) {
                            cpu::CpuConfig machine =
                                core::paperMachine(icache);
                            machine.icache.lineBytes = line;
                            machine.dcache.sizeBytes = dcache;
                            machine.memTiming.firstAccessCycles =
                                latency;
                            machine.predictorEntries = predictor;
                            char point[96];
                            std::snprintf(
                                point, sizeof point,
                                "matrix/%s/i%uK.l%u/d%uK/m%u/p%u",
                                name.c_str(), icache / 1024, line,
                                dcache / 1024, latency, predictor);
                            for (const MatrixScenario &scenario :
                                 axes.scenarios) {
                                Job job;
                                job.tag = std::string(point) + "/" +
                                          matrixScenarioName(scenario);
                                job.workload = spec;
                                job.config.cpu = machine;
                                job.config.scheme = scenario.scheme;
                                job.config.dataCompression =
                                    scenario.data;
                                jobs.push_back(std::move(job));
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

ResultSink
runMatrixSweep(const SweepOptions &opts)
{
    std::printf("=== Matrix: machine-configuration cross product ===\n");
    double scale = announceScale(opts.scale);
    ResultSink sink("matrix");
    sink.setScale(scale);

    MatrixAxes axes = MatrixAxes::defaults();
    axes.scale = scale;
    std::vector<Job> jobs = buildMatrixJobs(axes);
    const std::vector<MatrixScenario> &scenarios = axes.scenarios;
    std::printf("%zu jobs: %zu benchmarks x %zu I$ x %zu lines x %zu "
                "D$ x %zu mem x %zu pred x %zu scenarios\n",
                jobs.size(), axes.benchmarks.size(),
                axes.icacheBytes.size(), axes.icacheLineBytes.size(),
                axes.dcacheBytes.size(), axes.memLatencyCycles.size(),
                axes.predictorEntries.size(), scenarios.size());

    ArtifactCache cache;
    std::vector<JobResult> results;
    {
        // The matrix funnels through the same executor seam as every
        // registered sweep (sweeps.cc runJobs), inlined here because
        // matrix.cc is a separate TU from the registry's helpers.
        if (!opts.poisonTag.empty()) {
            for (Job &job : jobs) {
                if (job.tag.find(opts.poisonTag) != std::string::npos)
                    job.workload.hotProcs = 0;
            }
        }
        if (opts.observe) {
            for (Job &job : jobs) {
                job.config.observe.enabled = true;
                job.config.observe.trace = false;
            }
        }
        if (opts.executor)
            results = opts.executor->run("matrix", jobs, cache);
        else
            results = SweepRunner(opts.jobs).run("matrix", jobs, cache);
        if (opts.failures) {
            for (size_t i = 0; i < results.size(); ++i) {
                if (!results[i].ok)
                    opts.failures->emplace_back(jobs[i].tag,
                                                results[i].error);
            }
        }
    }
    if (opts.observe) {
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].ok && !results[i].result.metrics.isNull())
                sink.addMetrics(jobs[i].tag, results[i].result.metrics);
        }
    }

    // Index math mirrors buildMatrixJobs' loop nest exactly.
    size_t ns = scenarios.size();
    size_t points = jobs.size() / (ns ? ns : 1);
    size_t native_scheme = ns;  // index of (None, Off), if present
    for (size_t s = 0; s < ns; ++s) {
        if (scenarios[s].scheme == Scheme::None &&
            scenarios[s].data == core::DataCompression::Off)
            native_scheme = s;
    }

    // Per (scheme, I$) geomean + max slowdown across every other axis.
    // Geomeans are the right collapse for ratios; failed or unpaired
    // jobs are skipped (keep-going) and the row notes the count used.
    struct Agg
    {
        double logSum = 0;
        double maxSlowdown = 0;
        size_t n = 0;
    };
    std::vector<Agg> agg(ns * axes.icacheBytes.size());

    size_t per_bench = points / axes.benchmarks.size();
    size_t per_icache = per_bench / axes.icacheBytes.size();
    for (size_t point = 0; point < points; ++point) {
        size_t icache_i = (point % per_bench) / per_icache;
        const JobResult *native =
            native_scheme < ns ? &results[point * ns + native_scheme]
                               : nullptr;
        for (size_t s = 0; s < ns; ++s) {
            if (s == native_scheme)
                continue;
            const JobResult &run = results[point * ns + s];
            if (!run.ok || !native || !native->ok)
                continue;
            double slow =
                core::slowdown(run.result, native->result);
            Json row = Json::object();
            row.set("benchmark",
                    axes.benchmarks[point / per_bench]);
            row.set("scheme",
                    compress::schemeName(scenarios[s].scheme));
            row.set("data_compression",
                    core::dataCompressionName(scenarios[s].data));
            row.set("icache_kb", axes.icacheBytes[icache_i] / 1024);
            row.set("line_bytes",
                    jobs[point * ns + s].config.cpu.icache.lineBytes);
            row.set("dcache_kb",
                    jobs[point * ns + s].config.cpu.dcache.sizeBytes /
                        1024);
            row.set("mem_latency_cycles",
                    jobs[point * ns + s]
                        .config.cpu.memTiming.firstAccessCycles);
            row.set("predictor_entries",
                    jobs[point * ns + s].config.cpu.predictorEntries);
            row.set("native_miss_ratio_pct",
                    100 * native->result.stats.icacheMissRatio());
            row.set("slowdown", slow);
            sink.addRow(std::move(row));

            Agg &a = agg[s * axes.icacheBytes.size() + icache_i];
            a.logSum += std::log(slow > 0 ? slow : 1.0);
            a.maxSlowdown = std::max(a.maxSlowdown, slow);
            ++a.n;
        }
    }

    Table table({"scenario", "I$", "geomean slowdown", "max slowdown",
                 "points"});
    for (size_t s = 0; s < ns; ++s) {
        if (s == native_scheme)
            continue;
        for (size_t i = 0; i < axes.icacheBytes.size(); ++i) {
            const Agg &a = agg[s * axes.icacheBytes.size() + i];
            table.addRow({
                matrixScenarioName(scenarios[s]),
                std::to_string(axes.icacheBytes[i] / 1024) + "KB",
                a.n ? fmtDouble(std::exp(a.logSum /
                                         static_cast<double>(a.n)),
                                2)
                    : "-",
                a.n ? fmtDouble(a.maxSlowdown, 2) : "-",
                std::to_string(a.n),
            });
        }
    }
    std::printf("\n%s", table.render().c_str());
    std::printf("\nExpected shape: the matrix reproduces Figure 4's "
                "trend on every axis slice —\nslowdown tracks the "
                "native miss ratio, so it falls with I$ size and "
                "rises with\nmemory speed (the handler's instructions "
                "don't get faster when DRAM does).\n");
    return sink;
}

} // namespace rtd::harness
