#include "harness/sweeps.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>

#include "core/experiment.h"
#include "dmem/data_region.h"
#include "harness/matrix.h"
#include "harness/runner.h"
#include "isa16/thumb.h"
#include "profile/placement.h"
#include "profile/selection.h"
#include "support/logging.h"
#include "support/stats.h"
#include "support/table.h"
#include "workload/benchmarks.h"

using rtd::compress::Scheme;

namespace rtd::harness {

namespace {

/** Build one simulation-point job. */
Job
pointJob(std::string tag, const workload::WorkloadSpec &spec,
         const cpu::CpuConfig &machine, Scheme scheme, bool rf = false,
         std::vector<prog::Region> regions = {}, bool profiling = false)
{
    Job job;
    job.tag = std::move(tag);
    job.workload = spec;
    job.config.cpu = machine;
    job.config.scheme = scheme;
    job.config.secondRegFile = rf;
    job.config.regions = std::move(regions);
    job.config.profiling = profiling;
    return job;
}

/** Enable per-job observability when SweepOptions::observe asks for it:
 *  metrics + heat, no event trace (a sweep's rings would dwarf its
 *  results; use rtdc_trace for timelines). */
void
applyObserve(std::vector<Job> &jobs, const SweepOptions &opts)
{
    if (!opts.observe)
        return;
    for (Job &job : jobs) {
        job.config.observe.enabled = true;
        job.config.observe.trace = false;
    }
}

/**
 * Run one job list the way SweepOptions asks: observe/poison knobs
 * applied, executed locally or through the configured JobExecutor, and
 * failures recorded for runSweep's keep-going summary. Every sweep
 * function funnels through here, which is the whole executor seam —
 * a remote sweep builds jobs and renders tables with exactly this code.
 */
std::vector<JobResult>
runJobs(const std::string &label, std::vector<Job> &jobs,
        ArtifactCache &cache, const SweepOptions &opts)
{
    applyObserve(jobs, opts);
    if (!opts.poisonTag.empty()) {
        for (Job &job : jobs) {
            if (job.tag.find(opts.poisonTag) != std::string::npos)
                job.workload.hotProcs = 0;  // generator rejects this
        }
    }
    std::vector<JobResult> results;
    if (opts.executor)
        results = opts.executor->run(label, jobs, cache);
    else
        results = SweepRunner(opts.jobs).run(label, jobs, cache);
    if (opts.failures) {
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok)
                opts.failures->emplace_back(jobs[i].tag,
                                            results[i].error);
        }
    }
    return results;
}

/** Roll each observed job's metrics into the sink (tag-keyed). */
void
collectMetrics(ResultSink &sink, const std::vector<Job> &jobs,
               const std::vector<JobResult> &results,
               const SweepOptions &opts)
{
    if (!opts.observe)
        return;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (results[i].ok && !results[i].result.metrics.isNull())
            sink.addMetrics(jobs[i].tag, results[i].result.metrics);
    }
}

/** Print a sweep's title and scale banner and open its sink; with a
 *  @p machine, also record it and print its header line. */
ResultSink
openSink(const char *name, const char *title, double scale,
         const cpu::CpuConfig *machine = nullptr)
{
    std::fputs(title, stdout);
    announceScale(scale);
    ResultSink sink(name);
    sink.setScale(scale);
    if (machine) {
        sink.setMachine(*machine);
        sink.printMachineHeader();
    }
    return sink;
}

// ---------------------------------------------------------------------
// Figure 4: I-cache miss ratio vs execution time.
// Jobs per (benchmark, I$ size): native, D, D+RF, CP, CP+RF.
// ---------------------------------------------------------------------

ResultSink
runFigure4(const SweepOptions &opts)
{
    double scale = opts.scale;
    ResultSink sink = openSink(
        "figure4",
        "=== Figure 4: I-cache miss ratio vs execution time ===\n", scale);

    const uint32_t cache_sizes[] = {4 * 1024, 16 * 1024, 64 * 1024};
    const auto &benchmarks = workload::paperBenchmarks();

    enum Variant { kNative, kDict, kDictRf, kCp, kCpRf, kVariants };
    auto at = [](size_t b, size_t s, size_t v) {
        return (b * 3 + s) * kVariants + v;
    };

    std::vector<Job> jobs;
    for (const auto &benchmark : benchmarks) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(benchmark, scale);
        for (uint32_t icache_bytes : cache_sizes) {
            cpu::CpuConfig machine = core::paperMachine(icache_bytes);
            std::string tag = "figure4/" + spec.name + "/" +
                              std::to_string(icache_bytes / 1024) + "KB";
            jobs.push_back(
                pointJob(tag + "/native", spec, machine, Scheme::None));
            jobs.push_back(
                pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
            jobs.push_back(pointJob(tag + "/D+RF", spec, machine,
                                    Scheme::Dictionary, true));
            jobs.push_back(
                pointJob(tag + "/CP", spec, machine, Scheme::CodePack));
            jobs.push_back(pointJob(tag + "/CP+RF", spec, machine,
                                    Scheme::CodePack, true));
        }
    }

    ArtifactCache cache;
    std::vector<JobResult> results =
        runJobs("figure4", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    for (Scheme scheme : {Scheme::Dictionary, Scheme::CodePack}) {
        std::printf("\n--- Figure 4%s: %s ---\n",
                    scheme == Scheme::Dictionary ? "a" : "b",
                    compress::schemeName(scheme));
        Table table({"benchmark", "I$", "miss ratio", "slowdown",
                     "slowdown+RF"});
        size_t base_variant =
            scheme == Scheme::Dictionary ? kDict : kCp;
        for (size_t b = 0; b < benchmarks.size(); ++b) {
            for (size_t s = 0; s < 3; ++s) {
                const core::SystemResult &native =
                    results[at(b, s, kNative)].result;
                const core::SystemResult &base =
                    results[at(b, s, base_variant)].result;
                const core::SystemResult &rf =
                    results[at(b, s, base_variant + 1)].result;
                table.addRow({
                    benchmarks[b].spec.name,
                    std::to_string(cache_sizes[s] / 1024) + "KB",
                    fmtPercent(100 * native.stats.icacheMissRatio(), 3),
                    fmtDouble(core::slowdown(base, native), 2),
                    fmtDouble(core::slowdown(rf, native), 2),
                });

                sink.addRow(
                    {{"figure", scheme == Scheme::Dictionary ? "4a" : "4b"},
                     {"scheme", compress::schemeName(scheme)},
                     {"benchmark", benchmarks[b].spec.name},
                     {"icache_kb", cache_sizes[s] / 1024},
                     {"native_miss_ratio_pct",
                      100 * native.stats.icacheMissRatio()},
                     {"slowdown", core::slowdown(base, native)},
                     {"slowdown_rf", core::slowdown(rf, native)}});
            }
        }
        std::printf("%s", table.render().c_str());
    }
    std::printf("\nExpected shape: slowdown grows with miss ratio; "
                "below 1%% miss the dictionary stays\nunder ~2x and "
                "CodePack under ~5x; the 64 KB cache pulls every "
                "benchmark toward 1x.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Figure 5: selective-compression size/speed curves. Two phases: a
// profiling pass per benchmark, then the scheme x policy x threshold
// grid whose region assignments derive from the profiles.
// ---------------------------------------------------------------------

ResultSink
runFigure5(const SweepOptions &opts)
{
    using profile::SelectionPolicy;

    std::printf(
        "=== Figure 5: selective compression size/speed curves ===\n");
    double scale = announceScale(opts.scale);
    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink("figure5");
    sink.setScale(scale);
    sink.setMachine(machine);
    sink.printMachineHeader();

    const auto &benchmarks = workload::paperBenchmarks();
    const SelectionPolicy policies[] = {SelectionPolicy::ExecutionBased,
                                        SelectionPolicy::MissBased};
    const double thresholds[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.50, 1.0};
    constexpr size_t kThresholds = 7;

    ArtifactCache cache;

    // Phase 1: native baseline + profiling run per benchmark.
    std::vector<workload::WorkloadSpec> specs;
    std::vector<Job> profile_jobs;
    for (const auto &benchmark : benchmarks) {
        specs.push_back(workload::scaledSpec(benchmark, scale));
        const workload::WorkloadSpec &spec = specs.back();
        std::string tag = "figure5/" + spec.name;
        profile_jobs.push_back(
            pointJob(tag + "/native", spec, machine, Scheme::None));
        profile_jobs.push_back(pointJob(tag + "/profile", spec, machine,
                                        Scheme::None, false, {}, true));
    }
    std::vector<JobResult> profiled =
        runJobs("figure5:profile", profile_jobs, cache, opts);
    collectMetrics(sink, profile_jobs, profiled, opts);

    // Phase 2: the selective-compression grid.
    auto at = [&](size_t b, size_t scheme_i, size_t policy_i, size_t t) {
        return ((b * 2 + scheme_i) * 2 + policy_i) * kThresholds + t;
    };
    std::vector<Job> grid;
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const profile::ProcedureProfile &profile =
            profiled[b * 2 + 1].result.profile;
        for (Scheme scheme : {Scheme::Dictionary, Scheme::CodePack}) {
            for (SelectionPolicy policy : policies) {
                for (size_t t = 0; t < kThresholds; ++t) {
                    auto regions = profile::selectNative(profile, policy,
                                                         thresholds[t]);
                    std::string tag =
                        "figure5/" + specs[b].name + "/" +
                        compress::schemeName(scheme) + "/" +
                        profile::policyName(policy) + "/" +
                        fmtPercent(100 * thresholds[t], 0);
                    grid.push_back(pointJob(std::move(tag), specs[b],
                                            machine, scheme, false,
                                            std::move(regions)));
                }
            }
        }
    }
    std::vector<JobResult> results =
        runJobs("figure5", grid, cache, opts);
    collectMetrics(sink, grid, results, opts);

    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const core::SystemResult &native = profiled[b * 2].result;
        std::printf("\n--- %s ---\n", specs[b].name.c_str());
        Table table({"series", "threshold", "ratio", "slowdown"});
        for (size_t scheme_i = 0; scheme_i < 2; ++scheme_i) {
            Scheme scheme = scheme_i == 0 ? Scheme::Dictionary
                                          : Scheme::CodePack;
            for (size_t policy_i = 0; policy_i < 2; ++policy_i) {
                std::string series =
                    std::string(scheme == Scheme::Dictionary ? "D"
                                                             : "CP") +
                    " " + profile::policyName(policies[policy_i]);
                for (size_t t = 0; t < kThresholds; ++t) {
                    const core::SystemResult &run =
                        results[at(b, scheme_i, policy_i, t)].result;
                    table.addRow({
                        series,
                        fmtPercent(100 * thresholds[t], 0),
                        fmtPercent(100 * run.compressionRatio(), 1),
                        fmtDouble(core::slowdown(run, native), 3),
                    });

                    Json row = Json::object();
                    row.set("benchmark", specs[b].name);
                    row.set("scheme", compress::schemeName(scheme));
                    row.set("policy",
                            profile::policyName(policies[policy_i]));
                    row.set("threshold_pct", 100 * thresholds[t]);
                    row.set("compression_ratio_pct",
                            100 * run.compressionRatio());
                    row.set("slowdown", core::slowdown(run, native));
                    sink.addRow(std::move(row));
                }
            }
        }
        std::printf("%s", table.render().c_str());
    }
    return sink;
}

// ---------------------------------------------------------------------
// Table 3: slowdown of fully compressed programs vs native.
// ---------------------------------------------------------------------

ResultSink
runTable3(const SweepOptions &opts)
{
    std::printf("=== Table 3: slowdown compared to native code ===\n");
    double scale = announceScale(opts.scale);
    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink("table3");
    sink.setScale(scale);
    sink.setMachine(machine);
    sink.printMachineHeader();

    const auto &benchmarks = workload::paperBenchmarks();
    enum Variant { kNative, kDict, kDictRf, kCp, kCpRf, kVariants };

    std::vector<Job> jobs;
    for (const auto &benchmark : benchmarks) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(benchmark, scale);
        std::string tag = "table3/" + spec.name;
        jobs.push_back(
            pointJob(tag + "/native", spec, machine, Scheme::None));
        jobs.push_back(
            pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
        jobs.push_back(pointJob(tag + "/D+RF", spec, machine,
                                Scheme::Dictionary, true));
        jobs.push_back(
            pointJob(tag + "/CP", spec, machine, Scheme::CodePack));
        jobs.push_back(pointJob(tag + "/CP+RF", spec, machine,
                                Scheme::CodePack, true));
    }

    ArtifactCache cache;
    std::vector<JobResult> results =
        runJobs("table3", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "D (paper)", "D+RF (paper)", "CP (paper)",
                 "CP+RF (paper)"});
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const core::SystemResult &native =
            results[b * kVariants + kNative].result;
        auto measured = [&](size_t variant) {
            return core::slowdown(results[b * kVariants + variant].result,
                                  native);
        };
        auto cell = [&](size_t variant, double published) {
            return fmtDouble(measured(variant), 2) + " (" +
                   fmtDouble(published, 2) + ")";
        };
        table.addRow({
            benchmarks[b].spec.name,
            cell(kDict, benchmarks[b].paperSlowdownD),
            cell(kDictRf, benchmarks[b].paperSlowdownDRf),
            cell(kCp, benchmarks[b].paperSlowdownCp),
            cell(kCpRf, benchmarks[b].paperSlowdownCpRf),
        });

        Json row = Json::object();
        row.set("benchmark", benchmarks[b].spec.name);
        row.set("slowdown_d", measured(kDict));
        row.set("slowdown_d_rf", measured(kDictRf));
        row.set("slowdown_cp", measured(kCp));
        row.set("slowdown_cp_rf", measured(kCpRf));
        row.set("paper_d", benchmarks[b].paperSlowdownD);
        row.set("paper_d_rf", benchmarks[b].paperSlowdownDRf);
        row.set("paper_cp", benchmarks[b].paperSlowdownCp);
        row.set("paper_cp_rf", benchmarks[b].paperSlowdownCpRf);
        sink.addRow(std::move(row));
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: D < 3x everywhere; CP < 18x; the "
                "second register file\ncuts dictionary overhead by "
                "nearly half but barely moves CodePack (section 5.2).\n");
    return sink;
}

// ---------------------------------------------------------------------
// Ablation: memory latency vs decompression overhead.
// ---------------------------------------------------------------------

ResultSink
runAblationMemory(const SweepOptions &opts)
{
    double scale = opts.scale;
    ResultSink sink = openSink(
        "ablation_memory",
        "=== Ablation: memory latency vs decompression overhead ===\n",
        scale);

    const char *names[] = {"go", "perl", "mpeg2enc"};
    const unsigned latencies[] = {5u, 10u, 20u, 40u};
    enum Variant { kNative, kDict, kCp, kVariants };
    auto at = [&](size_t n, size_t l, size_t v) {
        return (n * 4 + l) * kVariants + v;
    };

    std::vector<Job> jobs;
    for (const char *name : names) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(workload::paperBenchmark(name), scale);
        for (unsigned latency : latencies) {
            cpu::CpuConfig machine = core::paperMachine();
            machine.memTiming.firstAccessCycles = latency;
            std::string tag = std::string("ablation_memory/") + name +
                              "/" + std::to_string(latency) + "cyc";
            jobs.push_back(
                pointJob(tag + "/native", spec, machine, Scheme::None));
            jobs.push_back(
                pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
            jobs.push_back(
                pointJob(tag + "/CP", spec, machine, Scheme::CodePack));
        }
    }

    ArtifactCache cache;
    std::vector<JobResult> results =
        runJobs("ablation_memory", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "mem latency", "native CPI", "D slowdown",
                 "CP slowdown"});
    for (size_t n = 0; n < 3; ++n) {
        for (size_t l = 0; l < 4; ++l) {
            const core::SystemResult &native =
                results[at(n, l, kNative)].result;
            const core::SystemResult &dict =
                results[at(n, l, kDict)].result;
            const core::SystemResult &cp = results[at(n, l, kCp)].result;
            table.addRow({
                names[n],
                std::to_string(latencies[l]) + " cyc",
                fmtDouble(native.stats.cpi(), 2),
                fmtDouble(core::slowdown(dict, native), 2),
                fmtDouble(core::slowdown(cp, native), 2),
            });

            sink.addRow({{"benchmark", names[n]},
                         {"mem_latency_cycles", latencies[l]},
                         {"native_cpi", native.stats.cpi()},
                         {"slowdown_dictionary", core::slowdown(dict, native)},
                         {"slowdown_codepack", core::slowdown(cp, native)}});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: relative slowdown *rises* as memory "
                "gets faster, because the\nhardware fill path speeds up "
                "while the handler's instruction execution does not.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Ablation: I-cache line size under dictionary decompression.
// ---------------------------------------------------------------------

ResultSink
runAblationLinesize(const SweepOptions &opts)
{
    double scale = opts.scale;
    ResultSink sink = openSink(
        "ablation_linesize",
        "=== Ablation: I-cache line size (dictionary) ===\n", scale);

    const char *names[] = {"go", "vortex", "ijpeg"};
    const uint32_t lines[] = {16u, 32u, 64u};
    enum Variant { kNative, kDict, kDictRf, kVariants };
    auto at = [&](size_t n, size_t l, size_t v) {
        return (n * 3 + l) * kVariants + v;
    };

    std::vector<Job> jobs;
    for (const char *name : names) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(workload::paperBenchmark(name), scale);
        for (uint32_t line : lines) {
            cpu::CpuConfig machine = core::paperMachine();
            machine.icache.lineBytes = line;
            std::string tag = std::string("ablation_linesize/") + name +
                              "/" + std::to_string(line) + "B";
            jobs.push_back(
                pointJob(tag + "/native", spec, machine, Scheme::None));
            jobs.push_back(
                pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
            jobs.push_back(pointJob(tag + "/D+RF", spec, machine,
                                    Scheme::Dictionary, true));
        }
    }

    ArtifactCache cache;
    std::vector<JobResult> results =
        runJobs("ablation_linesize", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "line", "miss ratio", "handler insns/miss",
                 "D slowdown", "D+RF slowdown"});
    for (size_t n = 0; n < 3; ++n) {
        for (size_t l = 0; l < 3; ++l) {
            const core::SystemResult &native =
                results[at(n, l, kNative)].result;
            const core::SystemResult &dict =
                results[at(n, l, kDict)].result;
            const core::SystemResult &rf =
                results[at(n, l, kDictRf)].result;
            double per_miss =
                dict.stats.exceptions
                    ? static_cast<double>(dict.stats.handlerInsns) /
                          static_cast<double>(dict.stats.exceptions)
                    : 0.0;
            table.addRow({
                names[n],
                std::to_string(lines[l]) + "B",
                fmtPercent(100 * native.stats.icacheMissRatio(), 3),
                fmtDouble(per_miss, 0),
                fmtDouble(core::slowdown(dict, native), 2),
                fmtDouble(core::slowdown(rf, native), 2),
            });

            sink.addRow({{"benchmark", names[n]},
                         {"line_bytes", lines[l]},
                         {"native_miss_ratio_pct",
                          100 * native.stats.icacheMissRatio()},
                         {"handler_insns_per_miss", per_miss},
                         {"slowdown", core::slowdown(dict, native)},
                         {"slowdown_rf", core::slowdown(rf, native)}});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nHandler cost per miss is 19 + 7*words/line "
                "instructions (Figure 2): 47 for 16 B\nlines, 75 for "
                "32 B, 131 for 64 B; longer lines trade fewer misses "
                "for more work each.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Ablation: handler data-access path (cached vs uncached loads, then a
// D-cache size sweep). One combined job list, two printed tables.
// ---------------------------------------------------------------------

ResultSink
runAblationHandler(const SweepOptions &opts)
{
    double scale = opts.scale;
    ResultSink sink = openSink(
        "ablation_handler", "=== Ablation: handler data-access path ===\n",
        scale);

    const char *names[] = {"cc1", "go", "perl"};
    const uint32_t dcache_kbs[] = {4u, 8u, 32u};

    // Experiment 1 block: per name {native, D, CP, D-uncached,
    // CP-uncached}; experiment 2 block: per (name, D$ KB) {native, D}.
    enum Exp1 { kNative, kDict, kCp, kDictUnc, kCpUnc, kExp1Variants };
    auto at1 = [&](size_t n, size_t v) { return n * kExp1Variants + v; };
    size_t exp2_base = 3 * kExp1Variants;
    auto at2 = [&](size_t n, size_t d, size_t v) {
        return exp2_base + (n * 3 + d) * 2 + v;
    };

    std::vector<Job> jobs;
    for (const char *name : names) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(workload::paperBenchmark(name), scale);
        cpu::CpuConfig machine = core::paperMachine();
        cpu::CpuConfig uncached_machine = machine;
        uncached_machine.handlerDataUncached = true;
        std::string tag = std::string("ablation_handler/") + name;
        jobs.push_back(
            pointJob(tag + "/native", spec, machine, Scheme::None));
        jobs.push_back(
            pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
        jobs.push_back(
            pointJob(tag + "/CP", spec, machine, Scheme::CodePack));
        jobs.push_back(pointJob(tag + "/D-uncached", spec,
                                uncached_machine, Scheme::Dictionary));
        jobs.push_back(pointJob(tag + "/CP-uncached", spec,
                                uncached_machine, Scheme::CodePack));
    }
    for (const char *name : names) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(workload::paperBenchmark(name), scale);
        for (uint32_t kb : dcache_kbs) {
            cpu::CpuConfig machine = core::paperMachine();
            machine.dcache.sizeBytes = kb * 1024;
            std::string tag = std::string("ablation_handler/") + name +
                              "/D$" + std::to_string(kb) + "KB";
            jobs.push_back(
                pointJob(tag + "/native", spec, machine, Scheme::None));
            jobs.push_back(
                pointJob(tag + "/D", spec, machine, Scheme::Dictionary));
        }
    }

    ArtifactCache cache;
    std::vector<JobResult> results =
        runJobs("ablation_handler", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    std::printf("\n--- cached vs uncached handler loads ---\n");
    Table cached_table({"benchmark", "scheme", "D$ cached", "uncached",
                        "penalty"});
    for (size_t n = 0; n < 3; ++n) {
        const core::SystemResult &native = results[at1(n, kNative)].result;
        for (Scheme scheme : {Scheme::Dictionary, Scheme::CodePack}) {
            size_t cached_v = scheme == Scheme::Dictionary ? kDict : kCp;
            size_t uncached_v =
                scheme == Scheme::Dictionary ? kDictUnc : kCpUnc;
            double s_cached = core::slowdown(
                results[at1(n, cached_v)].result, native);
            double s_uncached = core::slowdown(
                results[at1(n, uncached_v)].result, native);
            cached_table.addRow({
                names[n],
                compress::schemeName(scheme),
                fmtDouble(s_cached, 2),
                fmtDouble(s_uncached, 2),
                fmtDouble(s_uncached / s_cached, 2) + "x",
            });

            sink.addRow({{"experiment", "cached_vs_uncached"},
                         {"benchmark", names[n]},
                         {"scheme", compress::schemeName(scheme)},
                         {"slowdown_cached", s_cached},
                         {"slowdown_uncached", s_uncached},
                         {"penalty", s_uncached / s_cached}});
        }
    }
    std::printf("%s", cached_table.render().c_str());

    std::printf("\n--- D-cache size (dictionary residency) ---\n");
    Table dsize_table({"benchmark", "D$", "D slowdown", "handler D-miss "
                       "share"});
    for (size_t n = 0; n < 3; ++n) {
        for (size_t d = 0; d < 3; ++d) {
            const core::SystemResult &native =
                results[at2(n, d, 0)].result;
            const core::SystemResult &dict =
                results[at2(n, d, 1)].result;
            // D-misses added by decompression, per exception.
            double extra =
                dict.stats.exceptions
                    ? static_cast<double>(dict.stats.dcacheMisses -
                                          native.stats.dcacheMisses) /
                          static_cast<double>(dict.stats.exceptions)
                    : 0.0;
            dsize_table.addRow({
                names[n],
                std::to_string(dcache_kbs[d]) + "KB",
                fmtDouble(core::slowdown(dict, native), 2),
                fmtDouble(extra, 2) + " miss/exc",
            });

            sink.addRow({{"experiment", "dcache_size"},
                         {"benchmark", names[n]},
                         {"dcache_kb", dcache_kbs[d]},
                         {"slowdown", core::slowdown(dict, native)},
                         {"extra_dmisses_per_exception", extra}});
        }
    }
    std::printf("%s", dsize_table.render().c_str());
    std::printf("\nCaching the decompressor's tables matters: popular "
                "dictionary entries stay\nresident, which is a large "
                "part of why the dictionary handler beats CodePack.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Table 2: .text compression ratios and the native 16 KB miss ratio.
// The whole-.text LZRW1 ratio is a property of the program, not of a
// run, so it comes from the cached program.
// ---------------------------------------------------------------------

ResultSink
runTable2(const SweepOptions &opts)
{
    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink = openSink(
        "table2", "=== Table 2: compression ratio of .text section ===\n",
        opts.scale, &machine);

    const auto &benchmarks = workload::paperBenchmarks();
    std::vector<workload::WorkloadSpec> specs;
    std::vector<Job> jobs;
    for (const auto &benchmark : benchmarks) {
        specs.push_back(workload::scaledSpec(benchmark, opts.scale));
        for (Scheme scheme :
             {Scheme::None, Scheme::Dictionary, Scheme::CodePack}) {
            jobs.push_back(pointJob("table2/" + benchmark.spec.name + "/" +
                                        compress::schemeName(scheme),
                                    specs.back(), machine, scheme));
        }
    }
    ArtifactCache cache;
    std::vector<JobResult> results = runJobs("table2", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "dyn insns", "miss% (paper)", "orig bytes",
                 "dict bytes", "cp bytes", "dict% (paper)", "cp% (paper)",
                 "lzrw1% (paper)"});
    auto paper = [](double measured, double published, int decimals) {
        return fmtDouble(measured, decimals) + " (" +
               fmtDouble(published, decimals) + ")";
    };
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const workload::PaperBenchmark &bench = benchmarks[b];
        const core::SystemResult &native = results[b * 3].result;
        const core::SystemResult &dict = results[b * 3 + 1].result;
        const core::SystemResult &cp = results[b * 3 + 2].result;
        double miss = 100 * native.stats.icacheMissRatio();
        double dict_pct = 100 * dict.compressionRatio();
        double cp_pct = 100 * cp.compressionRatio();
        double lz_pct = core::lzrw1TextRatio(*cache.program(specs[b]));
        table.addRow({bench.spec.name, fmtCount(native.stats.userInsns),
                      paper(miss, bench.paperMissRatio, 2),
                      fmtCount(native.originalTextBytes),
                      fmtCount(dict.compressedPayloadBytes),
                      fmtCount(cp.compressedPayloadBytes),
                      paper(dict_pct, bench.paperDictRatio, 1),
                      paper(cp_pct, bench.paperCodePackRatio, 1),
                      paper(lz_pct, bench.paperLzrw1Ratio, 1)});
        sink.addRow({{"benchmark", bench.spec.name},
                     {"dyn_insns", native.stats.userInsns},
                     {"miss_ratio_pct", miss},
                     {"text_bytes", native.originalTextBytes},
                     {"dict_bytes", dict.compressedPayloadBytes},
                     {"cp_bytes", cp.compressedPayloadBytes},
                     {"dict_ratio_pct", dict_pct},
                     {"cp_ratio_pct", cp_pct},
                     {"lzrw1_ratio_pct", lz_pct}});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nNote: dynamic instruction counts are intentionally "
                "~40x shorter than the paper's shortened runs;\n"
                "compression ratios and miss ratios are directly "
                "comparable (paper values in parentheses).\n");
    return sink;
}

// ---------------------------------------------------------------------
// Kirovski et al. (paper sections 2 and 5.2): the line-granular schemes
// vs LZRW1 procedures decompressed into a software procedure cache.
// ---------------------------------------------------------------------

ResultSink
runKirovski(const SweepOptions &opts)
{
    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink = openSink(
        "kirovski",
        "=== Procedure-based decompression (Kirovski et al.) vs "
        "cache-line decompression ===\n",
        opts.scale, &machine);

    const char *names[] = {"cc1", "go", "ghostscript", "mpeg2enc"};
    const uint32_t pcache_kbs[] = {4u, 8u, 16u, 64u};
    // Per name: native, dictionary, CodePack, then one procedure-cache
    // run per size.
    constexpr size_t kStride = 3 + std::size(pcache_kbs);

    std::vector<workload::WorkloadSpec> specs;
    std::vector<Job> jobs;
    for (const char *name : names) {
        specs.push_back(
            workload::scaledSpec(workload::paperBenchmark(name), opts.scale));
        std::string tag = std::string("kirovski/") + name + "/";
        for (Scheme scheme :
             {Scheme::None, Scheme::Dictionary, Scheme::CodePack}) {
            jobs.push_back(pointJob(tag + compress::schemeName(scheme),
                                    specs.back(), machine, scheme));
        }
        for (uint32_t kb : pcache_kbs) {
            jobs.push_back(pointJob(tag + std::to_string(kb) + "KB",
                                    specs.back(), machine, Scheme::ProcLzrw1));
            jobs.back().config.procCache.capacityBytes = kb * 1024;
        }
    }
    ArtifactCache cache;
    std::vector<JobResult> results = runJobs("kirovski", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "scheme", "pcache", "ratio", "slowdown",
                 "faults", "evictions", "compacted"});
    for (size_t n = 0; n < std::size(names); ++n) {
        const core::SystemResult &native = results[n * kStride].result;
        for (size_t i = 1; i < kStride; ++i) {
            const core::SystemResult &run = results[n * kStride + i].result;
            const cpu::RunStats &stats = run.stats;
            double ratio_pct = 100 * run.compressionRatio();
            double slow = core::slowdown(run, native);
            if (i < 3) {
                const char *scheme = compress::schemeName(
                    i == 1 ? Scheme::Dictionary : Scheme::CodePack);
                table.addRow({names[n], scheme, "-",
                              fmtPercent(ratio_pct, 1), fmtDouble(slow, 2),
                              "-", "-", "-"});
                sink.addRow({{"benchmark", names[n]},
                             {"scheme", scheme},
                             {"compression_ratio_pct", ratio_pct},
                             {"slowdown", slow}});
                continue;
            }
            if (i == 3) {
                // Whole-.text LZRW1: the paper's lower bound for what
                // procedure-based LZRW1 could achieve (Table 2).
                double lz = core::lzrw1TextRatio(*cache.program(specs[n]));
                table.addRow({names[n], "lzrw1 (whole .text)", "-",
                              fmtPercent(lz, 1), "-", "-", "-", "-"});
                sink.addRow({{"benchmark", names[n]},
                             {"scheme", "lzrw1-text"},
                             {"compression_ratio_pct", lz}});
            }
            uint32_t kb = pcache_kbs[i - 3];
            table.addRow({names[n], "proc-lzrw1", std::to_string(kb) + "KB",
                          fmtPercent(ratio_pct, 1), fmtDouble(slow, 2),
                          fmtCount(stats.procFaults),
                          fmtCount(stats.procEvictions),
                          fmtCount(stats.procCompactedBytes)});
            sink.addRow({{"benchmark", names[n]},
                         {"scheme", "proc-lzrw1"},
                         {"compression_ratio_pct", ratio_pct},
                         {"slowdown", slow},
                         {"pcache_kb", kb},
                         {"proc_faults", stats.procFaults},
                         {"proc_evictions", stats.procEvictions},
                         {"proc_compacted_bytes", stats.procCompactedBytes}});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape (paper section 5.2): the line-"
                "granularity schemes are stable while the\nprocedure "
                "scheme is both slower and far more variable across "
                "procedure-cache sizes on\ncall-oriented code, because "
                "it decompresses whole procedures (including code that\n"
                "is never executed) and pays allocation/compaction "
                "costs. The whole-.text LZRW1 row\nis the paper's lower "
                "bound for procedure-based compression; per-procedure "
                "streams\ncompress less (small windows), the cost the "
                "scheme pays in exchange for random\naccess at "
                "procedure granularity.\n");
    return sink;
}

// ---------------------------------------------------------------------
// 16-bit re-encoding (MIPS16/Thumb, paper section 3.3) pays per
// execution, decompression per miss. The 16-bit runs stay in-process:
// translation is a program transform, which a Job cannot name.
// ---------------------------------------------------------------------

ResultSink
runThumb(const SweepOptions &opts)
{
    using profile::SelectionPolicy;

    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink = openSink(
        "thumb",
        "=== Extension: 16-bit re-encoding (MIPS16/Thumb model) vs "
        "run-time decompression ===\n",
        opts.scale, &machine);

    const auto &benchmarks = workload::paperBenchmarks();
    const char *selective[] = {"mpeg2enc", "pegwit", "cc1"};

    // Per benchmark: native, D+RF, CP+RF; then one profiling run per
    // selective benchmark.
    std::vector<workload::WorkloadSpec> specs;
    std::vector<Job> jobs;
    for (const auto &benchmark : benchmarks) {
        specs.push_back(workload::scaledSpec(benchmark, opts.scale));
        for (Scheme scheme :
             {Scheme::None, Scheme::Dictionary, Scheme::CodePack}) {
            jobs.push_back(pointJob("thumb/" + benchmark.spec.name + "/" +
                                        compress::schemeName(scheme),
                                    specs.back(), machine, scheme,
                                    scheme != Scheme::None));
        }
    }
    auto indexOf = [&](const char *name) {
        size_t b = 0;
        while (specs[b].name != name)
            ++b;
        return b;
    };
    for (const char *name : selective) {
        jobs.push_back(pointJob(std::string("thumb/") + name + "/profile",
                                specs[indexOf(name)], machine,
                                Scheme::None, false, {}, true));
    }
    ArtifactCache cache;
    std::vector<JobResult> results = runJobs("thumb", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    // Benchmark @p b translated where @p mask is 1 (everywhere when it
    // is empty), run in-process; its .text ratio lands in @p ratio_pct.
    auto run16 = [&](size_t b, const std::vector<uint8_t> &mask,
                     double *ratio_pct) {
        std::shared_ptr<const prog::Program> program =
            cache.program(specs[b]);
        isa16::ThumbProgram thumb = isa16::translateProgram(
            *program, mask.empty()
                          ? std::vector<uint8_t>(program->procs.size(), 1)
                          : mask);
        *ratio_pct = percent(thumb.textBytes16(), program->textBytes());
        return core::runNative(thumb.program, machine);
    };

    std::printf("\n--- full translation vs full compression ---\n");
    Table table({"benchmark", "miss%", "16-bit ratio", "16-bit slow",
                 "insn overhead", "D slow", "CP slow"});
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const core::SystemResult &native = results[b * 3].result;
        double miss = 100 * native.stats.icacheMissRatio();
        double ratio16 = 0;
        core::SystemResult thumb = run16(b, {}, &ratio16);
        double slow16 = core::slowdown(thumb, native);
        double overhead =
            percent(thumb.stats.userInsns, native.stats.userInsns) - 100.0;
        double dict = core::slowdown(results[b * 3 + 1].result, native);
        double cp = core::slowdown(results[b * 3 + 2].result, native);
        table.addRow({specs[b].name, fmtPercent(miss, 2),
                      fmtPercent(ratio16, 1), fmtDouble(slow16, 3),
                      fmtPercent(overhead, 1), fmtDouble(dict, 3),
                      fmtDouble(cp, 3)});
        sink.addRow({{"experiment", "full"},
                     {"benchmark", specs[b].name},
                     {"miss_ratio_pct", miss},
                     {"thumb_ratio_pct", ratio16},
                     {"thumb_slowdown", slow16},
                     {"thumb_insn_overhead_pct", overhead},
                     {"slowdown_d_rf", dict},
                     {"slowdown_cp_rf", cp}});
    }
    std::printf("%s", table.render().c_str());

    // Selective 16-bit: the hottest procedures stay 32-bit. Exec-based
    // selection is the natural policy here (cost is per execution).
    std::printf("\n--- selective 16-bit: exec- vs miss-based selection "
                "(loop-oriented benchmarks) ---\n");
    Table sel({"benchmark", "policy", "threshold", "ratio", "slowdown"});
    for (size_t s = 0; s < std::size(selective); ++s) {
        size_t b = indexOf(selective[s]);
        const profile::ProcedureProfile &profile =
            results[3 * benchmarks.size() + s].result.profile;
        for (SelectionPolicy policy : {SelectionPolicy::ExecutionBased,
                                       SelectionPolicy::MissBased}) {
            for (double threshold : {0.20, 0.50}) {
                auto regions =
                    profile::selectNative(profile, policy, threshold);
                std::vector<uint8_t> mask(regions.size());
                for (size_t i = 0; i < regions.size(); ++i)
                    mask[i] = regions[i] == prog::Region::Compressed;
                double ratio16 = 0;
                double slow16 = core::slowdown(run16(b, mask, &ratio16),
                                               results[b * 3].result);
                sel.addRow({selective[s], profile::policyName(policy),
                            fmtPercent(100 * threshold, 0),
                            fmtPercent(ratio16, 1), fmtDouble(slow16, 3)});
                sink.addRow({{"experiment", "selective"},
                             {"benchmark", selective[s]},
                             {"policy", profile::policyName(policy)},
                             {"threshold_pct", 100 * threshold},
                             {"thumb_ratio_pct", ratio16},
                             {"thumb_slowdown", slow16}});
            }
        }
    }
    std::printf("%s", sel.render().c_str());
    std::printf("\nExpected shape: the 16-bit baseline's slowdown is "
                "flat across benchmarks (its cost\nis paid on every "
                "execution) while decompression tracks the miss ratio — "
                "the cost-locus\ncontrast behind section 3.3. In the "
                "selective table the two policies sit within\nplacement "
                "noise of each other because our synthetic translation "
                "overhead (~6%% more\ninstructions; the paper quotes "
                "15-20%% for real Thumb, whose compilers need more\n"
                "fixups) is small at these thresholds. Published Thumb "
                "compresses to ~70%%; the\nsynthetic workloads' "
                "immediate-heavy mix (no 16-bit encodings exist for "
                "immediate\nlogicals) lands higher.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Selective compression + affinity placement (paper section 5.3 future
// work). Two phases, like Figure 5: profile, then native and the
// miss@20% dictionary hybrid, each in original and affinity order.
// ---------------------------------------------------------------------

ResultSink
runPlacement(const SweepOptions &opts)
{
    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink = openSink(
        "placement",
        "=== Extension: unified selective compression + placement "
        "(paper section 5.3 future work) ===\n",
        opts.scale, &machine);

    const auto &benchmarks = workload::paperBenchmarks();
    const char *configs[] = {
        "native, original order", "native, affinity order",
        "D miss@20%, original order", "D miss@20%, affinity order"};
    constexpr size_t kConfigs = std::size(configs);
    ArtifactCache cache;

    std::vector<workload::WorkloadSpec> specs;
    std::vector<Job> profile_jobs;
    for (const auto &benchmark : benchmarks) {
        specs.push_back(workload::scaledSpec(benchmark, opts.scale));
        profile_jobs.push_back(pointJob(
            "placement/" + benchmark.spec.name + "/profile", specs.back(),
            machine, Scheme::None, false, {}, true));
    }
    std::vector<JobResult> profiled =
        runJobs("placement:profile", profile_jobs, cache, opts);
    collectMetrics(sink, profile_jobs, profiled, opts);

    std::vector<Job> jobs;
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const profile::ProcedureProfile &profile =
            profiled[b].result.profile;
        std::vector<prog::Region> regions = profile::selectNative(
            profile, profile::SelectionPolicy::MissBased, 0.20);
        for (size_t c = 0; c < kConfigs; ++c) {
            bool hybrid = c >= 2;
            jobs.push_back(pointJob(
                "placement/" + specs[b].name + "/" + configs[c], specs[b],
                machine, hybrid ? Scheme::Dictionary : Scheme::None, false,
                hybrid ? regions : std::vector<prog::Region>{}));
            if (c % 2) {
                jobs.back().config.order = profile::affinityOrder(
                    profile.execInsns.size(), profile.transitions);
            }
        }
    }
    std::vector<JobResult> results = runJobs("placement", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "config", "miss ratio", "cycles",
                 "vs original"});
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        for (size_t c = 0; c < kConfigs; ++c) {
            const cpu::RunStats &run = results[b * kConfigs + c].result.stats;
            // Each affinity run compares against its original order.
            const cpu::RunStats &reference =
                results[b * kConfigs + c / 2 * 2].result.stats;
            double miss = 100 * run.icacheMissRatio();
            double vs_original = static_cast<double>(run.cycles) /
                                 static_cast<double>(reference.cycles);
            table.addRow({specs[b].name, configs[c], fmtPercent(miss, 3),
                          fmtCount(run.cycles), fmtDouble(vs_original, 3)});
            sink.addRow({{"benchmark", specs[b].name},
                         {"config", configs[c]},
                         {"miss_ratio_pct", miss},
                         {"cycles", run.cycles},
                         {"vs_original", vs_original}});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: affinity placement trims conflict "
                "misses on the call-oriented\nbenchmarks (cc1/go/perl) "
                "and composes with selective compression. Gains are\n"
                "modest here because the synthetic benchmarks' misses "
                "are mostly capacity misses\nfrom working sets that "
                "cycle through the cache, which no ordering fixes —\n"
                "[Pettis90]'s up-to-10%% wins come from conflict-"
                "dominated codes.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Data-side compression (DESIGN.md section 18): code-only vs data-only
// vs both, for both data page codecs, against native.
// ---------------------------------------------------------------------

ResultSink
runDside(const SweepOptions &opts)
{
    using core::DataCompression;
    using dmem::DataScheme;

    cpu::CpuConfig machine = core::paperMachine();
    ResultSink sink = openSink(
        "dside", "=== dside: code-only vs data-only vs both compression ===\n",
        opts.scale, &machine);

    struct Scenario
    {
        const char *label;
        Scheme code;
        DataCompression mode;
        DataScheme codec;
    };
    const Scenario scenarios[] = {
        {"code-only", Scheme::Dictionary, DataCompression::Off,
         DataScheme::None},
        {"data-only", Scheme::None, DataCompression::DataOnly,
         DataScheme::Dictionary},
        {"data-only", Scheme::None, DataCompression::DataOnly,
         DataScheme::Lzrw1},
        {"both", Scheme::Dictionary, DataCompression::Both,
         DataScheme::Dictionary},
        {"both", Scheme::Dictionary, DataCompression::Both,
         DataScheme::Lzrw1},
    };
    // Per benchmark: native, then one job per scenario.
    constexpr size_t kStride = 1 + std::size(scenarios);
    const auto &benchmarks = workload::paperBenchmarks();

    std::vector<Job> jobs;
    for (const auto &benchmark : benchmarks) {
        workload::WorkloadSpec spec =
            workload::scaledSpec(benchmark, opts.scale);
        std::string tag = "dside/" + spec.name + "/";
        jobs.push_back(pointJob(tag + "native", spec, machine, Scheme::None));
        for (const Scenario &s : scenarios) {
            jobs.push_back(pointJob(tag + s.label + "/" +
                                        dmem::dataSchemeName(s.codec),
                                    spec, machine, s.code));
            jobs.back().config.dataCompression = s.mode;
            jobs.back().config.dmem.scheme = s.codec;
        }
    }
    ArtifactCache cache;
    std::vector<JobResult> results = runJobs("dside", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

    Table table({"benchmark", "scenario", "data codec", "cycles",
                 "slowdown", "code%", "data%", "dmem faults", "spills"});
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        const std::string &name = benchmarks[b].spec.name;
        const JobResult &native = results[b * kStride];
        for (size_t i = 0; i < std::size(scenarios); ++i) {
            const Scenario &s = scenarios[i];
            const JobResult &job = results[b * kStride + 1 + i];
            const cpu::RunStats &stats = job.result.stats;
            // Failed jobs are already on the keep-going failure list;
            // every job that ran must have run to the native answer.
            bool ran = job.ok && native.ok;
            if (ran && (stats.machineCheckHalt || !stats.halted)) {
                fatal("dside: %s/%s did not complete", name.c_str(),
                      s.label);
            }
            if (ran && stats.resultValue != native.result.stats.resultValue) {
                fatal("dside: %s/%s computed a different answer than "
                      "native",
                      name.c_str(), s.label);
            }
            bool code = s.code != Scheme::None;
            bool data = s.mode != DataCompression::Off;
            double slow = core::slowdown(job.result, native.result);
            double code_ratio = code ? job.result.compressionRatio() : 0.0;
            double data_ratio =
                data ? job.result.dataCompressionRatio() : 0.0;
            const char *codec = data ? dmem::dataSchemeName(s.codec) : "-";
            table.addRow({name, s.label, codec, fmtCount(stats.cycles),
                          fmtDouble(slow, 3),
                          code ? fmtDouble(100 * code_ratio, 1) : "-",
                          data ? fmtDouble(100 * data_ratio, 1) : "-",
                          std::to_string(stats.dmemFaults),
                          std::to_string(stats.dmemSpills)});
            sink.addRow(
                {{"benchmark", name},
                 {"scenario", s.label},
                 {"data_scheme", codec},
                 {"cycles", stats.cycles},
                 {"slowdown", slow},
                 {"code_ratio", code_ratio},
                 {"data_ratio", data_ratio},
                 {"dmem_faults", stats.dmemFaults},
                 {"dmem_evictions", stats.dmemEvictions},
                 {"dmem_spills", stats.dmemSpills},
                 {"dmem_decompressed_bytes", stats.dmemDecompressedBytes},
                 {"original_data_bytes", job.result.originalDataBytes},
                 {"compressed_data_bytes", job.result.compressedDataBytes}});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: data-only slows down less than "
                "code-only (data faults are\nrarer than I-misses and a "
                "page amortizes better than a line); both stacks\nthe "
                "two costs roughly additively while compressing both "
                "images.\n");
    return sink;
}

// ---------------------------------------------------------------------
// Matrix: the machine-configuration cross product (matrix.h), one table
// of geomean slowdowns per (scenario, I$).
// ---------------------------------------------------------------------

ResultSink
runMatrixSweep(const SweepOptions &opts)
{
    ResultSink sink = openSink(
        "matrix", "=== Matrix: machine-configuration cross product ===\n",
        opts.scale);

    MatrixAxes axes = MatrixAxes::defaults();
    axes.scale = opts.scale;
    std::vector<Job> jobs = buildMatrixJobs(axes);
    const std::vector<MatrixScenario> &scenarios = axes.scenarios;
    std::printf("%zu jobs: %zu benchmarks x %zu I$ x %zu lines x %zu "
                "D$ x %zu mem x %zu pred x %zu scenarios\n",
                jobs.size(), axes.benchmarks.size(),
                axes.icacheBytes.size(), axes.icacheLineBytes.size(),
                axes.dcacheBytes.size(), axes.memLatencyCycles.size(),
                axes.predictorEntries.size(), scenarios.size());

    ArtifactCache cache;
    std::vector<JobResult> results = runJobs("matrix", jobs, cache, opts);
    collectMetrics(sink, jobs, results, opts);

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

/** A whole-string positive integer that fits an unsigned; fatal
 *  otherwise (@p what names the flag). */
unsigned
positiveCount(const char *what, const char *text)
{
    uint64_t value = 0;
    if (!core::parseCount(text, std::numeric_limits<unsigned>::max(),
                          value) ||
        value == 0)
        fatal("bad %s '%s': need a positive integer", what, text);
    return static_cast<unsigned>(value);
}

} // namespace

SweepOptions
SweepOptions::fromEnv()
{
    SweepOptions opts;
    opts.scale = core::benchScaleFromEnv();
    return opts;
}

bool
parseSweepArgs(const std::vector<std::string> &args, SweepOptions &opts,
               std::string &name)
{
    name.clear();
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        bool takesValue = arg == "--jobs" || arg == "--scale" ||
                          arg == "--out" || arg == "--poison";
        if (takesValue && i + 1 >= args.size())
            return false;
        if (arg == "--jobs") {
            opts.jobs = positiveCount("--jobs", args[++i].c_str());
        } else if (arg == "--scale") {
            opts.scale = core::positiveNumber("--scale", args[++i].c_str());
        } else if (arg == "--out") {
            opts.outPath = args[++i];
        } else if (arg == "--poison") {
            opts.poisonTag = args[++i];
        } else if (arg == "--no-json") {
            opts.writeJson = false;
        } else if (arg == "--observe") {
            opts.observe = true;
        } else if (arg.empty() || arg[0] == '-' || !name.empty()) {
            return false;
        } else {
            name = arg;
        }
    }
    return !name.empty();
}

const std::vector<SweepInfo> &
sweeps()
{
    static const std::vector<SweepInfo> registry = {
        {"table2",
         ".text compression ratios and miss ratios (paper Table 2)",
         runTable2},
        {"table3", "slowdown of fully compressed programs (paper Table 3)",
         runTable3},
        {"figure4",
         "I-cache miss ratio vs execution time (paper Figure 4)",
         runFigure4},
        {"figure5",
         "selective-compression size/speed curves (paper Figure 5)",
         runFigure5},
        {"kirovski",
         "vs procedure-based decompression (Kirovski et al.)",
         runKirovski},
        {"thumb", "vs 16-bit re-encoding (MIPS16/Thumb cost locus)",
         runThumb},
        {"placement",
         "unified selective compression + affinity placement",
         runPlacement},
        {"ablation_memory",
         "memory latency vs decompression overhead", runAblationMemory},
        {"ablation_linesize",
         "I-cache line size under dictionary decompression",
         runAblationLinesize},
        {"ablation_handler",
         "handler data-access path: cached vs uncached, D-cache sweep",
         runAblationHandler},
        {"dside", "code-only vs data-only vs both compression (data side)",
         runDside},
        {"matrix",
         "machine-configuration cross product",
         runMatrixSweep},
    };
    return registry;
}

const SweepInfo *
findSweep(const std::string &name)
{
    for (const SweepInfo &info : sweeps()) {
        if (name == info.name)
            return &info;
    }
    return nullptr;
}

int
runSweep(const std::string &name, const SweepOptions &opts)
{
    const SweepInfo *info = findSweep(name);
    if (!info) {
        std::fprintf(stderr, "unknown sweep '%s'; registered sweeps:\n",
                     name.c_str());
        for (const SweepInfo &sweep : sweeps())
            std::fprintf(stderr, "  %-18s %s\n", sweep.name,
                         sweep.description);
        return 2;
    }
    // Keep-going semantics: failed jobs are collected here while the
    // rest of the sweep runs and every output is still written; they
    // are summarized afterwards and make the exit code nonzero.
    std::vector<std::pair<std::string, std::string>> failures;
    SweepOptions run_opts = opts;
    if (!run_opts.failures)
        run_opts.failures = &failures;
    ResultSink sink = info->fn(run_opts);
    if (opts.writeJson) {
        std::string path = opts.outPath.empty()
                               ? "BENCH_" + std::string(info->name) +
                                     ".json"
                               : opts.outPath;
        if (!sink.writeJson(path))
            return 1;
        std::fprintf(stderr, "[%s] wrote %s (%zu rows)\n", info->name,
                     path.c_str(), sink.rowCount());
    }
    const auto &failed = *run_opts.failures;
    if (!failed.empty()) {
        std::fprintf(stderr,
                     "[%s] %zu job%s failed (sweep kept going; outputs "
                     "written):\n",
                     info->name, failed.size(),
                     failed.size() == 1 ? "" : "s");
        for (const auto &[tag, error] : failed)
            std::fprintf(stderr, "  %s: %s\n", tag.c_str(),
                         error.c_str());
        return 3;
    }
    return 0;
}

} // namespace rtd::harness
