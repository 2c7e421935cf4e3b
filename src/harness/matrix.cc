#include "harness/matrix.h"

#include <cstdio>

#include "core/experiment.h"
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

} // namespace rtd::harness
