/**
 * @file
 * rtdc_trace — run one simulation point and report it: one paper
 * benchmark (or a scaled, reseeded one) under any scheme and machine
 * configuration. The flags build a harness::Job, which runs the way a
 * sweep job does, and the full report ends with the slowdown against a
 * native run of the same workload.
 *
 *   $ ./build/examples/rtdc_trace --bench go --scheme dictionary --rf
 *   $ ./build/examples/rtdc_trace --bench cc1 --scheme codepack \
 *         --icache 64
 *   $ ./build/examples/rtdc_trace --bench perl --scheme proc-lzrw1 \
 *         --pcache 32
 *   $ ./build/examples/rtdc_trace --bench mpeg2enc --scheme dictionary \
 *         --select miss --threshold 0.2 --placement
 *   $ ./build/examples/rtdc_trace --bench go --scheme dictionary \
 *         --trace trace.json --metrics metrics.json --heatmap heat.csv
 *
 * Naming an output file turns the obs subsystem on for the run.
 * `trace.json` is a Chrome-trace document — load it in chrome://tracing
 * or https://ui.perfetto.dev to see miss-service and decompression-
 * handler spans on the simulated-cycle timeline (1 cycle = 1 µs).
 * `metrics.json` is Observer::metricsJson(): every counter and log2
 * histogram plus trace/heat summaries. `heat.csv` is the per-I-line
 * miss/decompression-cost heat profile.
 *
 * `--smoke` (the `trace_smoke` ctest) runs a tiny dictionary workload
 * twice — observed and unobserved — and fails unless (1) RunStats are
 * identical with observation on and off, (2) the exported Chrome trace
 * re-parses and its B/E events nest, (3) the histogram and counter
 * totals reconcile exactly with the RunStats the simulator reported.
 * It repeats (1)-(3) with the data region compressed too, where every
 * D-miss must close exactly one nested dmiss span.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/system.h"
#include "dmem/data_region.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/json.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "profile/placement.h"
#include "profile/selection.h"
#include "support/logging.h"
#include "support/table.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

using namespace rtd;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --bench NAME        paper benchmark (default: go); --list "
        "shows names\n"
        "  --scale F           dynamic-length scale factor (default 1)\n"
        "  --seed N            override the workload seed\n"
        "  --scheme S          native | dictionary | codepack | "
        "proc-lzrw1\n"
        "  --rf                use the second register file\n"
        "  --icache KB         I-cache size (default 16)\n"
        "  --dcache KB         D-cache size (default 8)\n"
        "  --line B            I-cache line bytes (default 32)\n"
        "  --assoc N           I-cache associativity (default 2)\n"
        "  --mem N             memory first-access latency (default 10)\n"
        "  --pcache KB         procedure-cache capacity (proc-lzrw1)\n"
        "  --select P          selective compression: exec | miss\n"
        "  --threshold F       selection threshold (default 0.2)\n"
        "  --placement         apply affinity procedure placement\n"
        "  --quiet             summary line only\n"
        "  --trace FILE        write the Chrome-trace JSON (Perfetto/"
        "chrome://tracing)\n"
        "  --metrics FILE      write the metrics JSON (counters + "
        "histograms)\n"
        "  --heatmap FILE      write the per-line heat profile as CSV\n"
        "  --capacity N        trace ring capacity in events (default "
        "65536)\n"
        "  --smoke             self-check on a tiny workload "
        "(trace_smoke ctest)\n",
        argv0);
    std::exit(2);
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    size_t written =
        std::fwrite(contents.data(), 1, contents.size(), file);
    bool ok = written == contents.size() && std::fclose(file) == 0;
    if (!ok)
        warn("short write to '%s'", path.c_str());
    return ok;
}

compress::Scheme
parseScheme(const std::string &name, const char *argv0)
{
    using compress::Scheme;
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary,
                          Scheme::CodePack, Scheme::ProcLzrw1}) {
        if (name == compress::schemeName(scheme))
            return scheme;
    }
    usage(argv0);
}

profile::SelectionPolicy
parsePolicy(const std::string &name, const char *argv0)
{
    if (name == "exec") return profile::SelectionPolicy::ExecutionBased;
    if (name == "miss") return profile::SelectionPolicy::MissBased;
    usage(argv0);
}

/** What the command line asks for: one Job, and how to report it. */
struct Options
{
    harness::Job job;
    /** Selective compression and placement need a profiling run of
     *  the generated program, so they are applied to the Job later. */
    std::optional<profile::SelectionPolicy> select;
    double threshold = 0.2;
    bool placement = false;
    bool quiet = false;
    bool smoke = false;
    std::string tracePath, metricsPath, heatmapPath;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    core::SystemConfig &config = opts.job.config;
    config.cpu = core::paperMachine();
    std::string bench = "go";
    double scale = 1.0;
    uint64_t seed = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Whole-string numbers: "4x", "abc" or "-1" is a usage error
        // before anything is simulated, never some other value.
        auto count = [&](uint64_t min, uint64_t max) {
            const char *text = next();
            uint64_t value = 0;
            if (!core::parseCount(text, max, value) || value < min) {
                std::fprintf(stderr, "rtdc_trace: bad %s '%s'\n",
                             arg.c_str(), text);
                usage(argv[0]);
            }
            return value;
        };
        const uint64_t u32 = std::numeric_limits<uint32_t>::max();
        const uint64_t kb = u32 >> 10;  // KB counts are scaled by 1024
        if (arg == "--bench") bench = next();
        else if (arg == "--scale")
            scale = core::positiveNumber("--scale", next());
        else if (arg == "--seed") seed = count(0, UINT64_MAX);
        else if (arg == "--scheme")
            config.scheme = parseScheme(next(), argv[0]);
        else if (arg == "--rf") config.secondRegFile = true;
        else if (arg == "--icache")
            config.cpu.icache.sizeBytes = uint32_t(count(0, kb) * 1024);
        else if (arg == "--dcache")
            config.cpu.dcache.sizeBytes = uint32_t(count(0, kb) * 1024);
        else if (arg == "--line")
            config.cpu.icache.lineBytes = uint32_t(count(0, u32));
        else if (arg == "--assoc")
            config.cpu.icache.assoc = unsigned(count(0, u32));
        else if (arg == "--mem")
            config.cpu.memTiming.firstAccessCycles = unsigned(count(0, u32));
        else if (arg == "--pcache")
            config.procCache.capacityBytes = uint32_t(count(0, kb) * 1024);
        else if (arg == "--select")
            opts.select = parsePolicy(next(), argv[0]);
        else if (arg == "--threshold")
            opts.threshold = core::positiveNumber("--threshold", next());
        else if (arg == "--placement") opts.placement = true;
        else if (arg == "--quiet") opts.quiet = true;
        else if (arg == "--trace") opts.tracePath = next();
        else if (arg == "--metrics") opts.metricsPath = next();
        else if (arg == "--heatmap") opts.heatmapPath = next();
        else if (arg == "--capacity")
            config.observe.traceCapacity = size_t(count(1, SIZE_MAX));
        else if (arg == "--smoke") opts.smoke = true;
        else if (arg == "--list") {
            for (const auto &b : workload::paperBenchmarks())
                std::printf("%s\n", b.spec.name.c_str());
            std::exit(0);
        } else {
            usage(argv[0]);
        }
    }
    config.observe.enabled = !opts.tracePath.empty() ||
                             !opts.metricsPath.empty() ||
                             !opts.heatmapPath.empty();
    config.observe.trace = !opts.tracePath.empty();

    opts.job.workload =
        workload::scaledSpec(workload::paperBenchmark(bench), scale);
    if (seed)
        opts.job.workload.seed = seed;
    opts.job.tag = bench + "/" + compress::schemeName(config.scheme);
    return opts;
}

/** Fail the smoke run with a message; used like an assert. */
void
smokeCheck(bool ok, const char *what)
{
    if (!ok)
        fatal("trace smoke: FAILED: %s", what);
    std::printf("trace smoke: ok: %s\n", what);
}

/** RunStats must not depend on whether anyone is watching. */
void
checkStatsParity(const cpu::RunStats &off, const cpu::RunStats &on)
{
    struct Field
    {
        const char *name;
        uint64_t off, on;
    };
    const Field fields[] = {
        {"cycles", off.cycles, on.cycles},
        {"user_insns", off.userInsns, on.userInsns},
        {"handler_insns", off.handlerInsns, on.handlerInsns},
        {"icache_accesses", off.icacheAccesses, on.icacheAccesses},
        {"icache_misses", off.icacheMisses, on.icacheMisses},
        {"compressed_misses", off.compressedMisses, on.compressedMisses},
        {"native_misses", off.nativeMisses, on.nativeMisses},
        {"dcache_accesses", off.dcacheAccesses, on.dcacheAccesses},
        {"dcache_misses", off.dcacheMisses, on.dcacheMisses},
        {"writebacks", off.writebacks, on.writebacks},
        {"branch_lookups", off.branchLookups, on.branchLookups},
        {"branch_mispredicts", off.branchMispredicts,
         on.branchMispredicts},
        {"load_use_stalls", off.loadUseStalls, on.loadUseStalls},
        {"exceptions", off.exceptions, on.exceptions},
        {"proc_faults", off.procFaults, on.procFaults},
        {"machine_checks", off.machineChecks, on.machineChecks},
        {"integrity_retries", off.integrityRetries, on.integrityRetries},
        {"halted", off.halted, on.halted},
    };
    for (const Field &f : fields) {
        if (f.off != f.on) {
            fatal("trace smoke: FAILED: observe changed RunStats::%s "
                  "(%llu vs %llu)",
                  f.name, static_cast<unsigned long long>(f.off),
                  static_cast<unsigned long long>(f.on));
        }
    }
    std::printf("trace smoke: ok: RunStats identical with observation "
                "on and off\n");
}

/**
 * Histogram/counter totals must reconcile exactly with the RunStats the
 * simulator reported for the same run (the invariant table in
 * obs/observer.h).
 */
void
checkReconciliation(const obs::Observer &obs, const cpu::RunStats &stats)
{
    const obs::MetricsRegistry &reg = obs.registry();
    auto counter = [&](const char *name) -> uint64_t {
        const obs::Counter *c = reg.findCounter(name);
        RTDC_ASSERT(c, "missing counter");
        return c->value;
    };
    auto histogram = [&](const char *name) -> const obs::Log2Histogram & {
        const obs::Log2Histogram *h = reg.findHistogram(name);
        RTDC_ASSERT(h, "missing histogram");
        return *h;
    };
    smokeCheck(counter("native_fills") == stats.nativeMisses,
               "native_fills counter == RunStats nativeMisses");
    smokeCheck(counter("machine_checks") == stats.machineChecks,
               "machine_checks counter == RunStats machineChecks");
    smokeCheck(counter("proc_faults") == stats.procFaults,
               "proc_faults counter == RunStats procFaults");
    smokeCheck(histogram("miss_service_cycles").count() ==
                   stats.compressedMisses,
               "miss_service_cycles count == RunStats compressedMisses");
    smokeCheck(histogram("handler_insns_per_invocation").count() ==
                   stats.exceptions,
               "handler histogram count == RunStats exceptions");
    smokeCheck(histogram("handler_insns_per_invocation").sum() ==
                   stats.handlerInsns,
               "handler histogram sum == RunStats handlerInsns");
    smokeCheck(histogram("fill_retries").sum() == stats.integrityRetries,
               "fill_retries sum == RunStats integrityRetries");
    smokeCheck(counter("dmem_faults") == stats.dmemFaults,
               "dmem_faults counter == RunStats dmemFaults");
    smokeCheck(histogram("dmiss_service_cycles").count() == stats.dmemFaults,
               "dmiss_service_cycles count == RunStats dmemFaults");
    // The heat profile holds code lines and data pages alike.
    smokeCheck(obs.heat().totalMisses() ==
                   stats.icacheMisses + stats.dmemFaults,
               "heat profile misses == RunStats icacheMisses + dmemFaults");
}

/**
 * Every B event must have a matching E, in stack discipline. Returns
 * the number of closed spans per opening event kind.
 */
std::map<obs::EventKind, uint64_t>
checkNesting(const obs::TraceBuffer &trace)
{
    smokeCheck(trace.dropped() == 0,
               "trace ring retained every event (nesting checkable)");
    auto opener = [](obs::EventKind kind) -> obs::EventKind {
        switch (kind) {
          case obs::EventKind::JobEnd:
            return obs::EventKind::JobBegin;
          case obs::EventKind::MissEnd:
            return obs::EventKind::MissBegin;
          case obs::EventKind::HandlerIret:
            return obs::EventKind::HandlerEnter;
          case obs::EventKind::ProcFaultEnd:
            return obs::EventKind::ProcFaultBegin;
          case obs::EventKind::DmissEnd:
            return obs::EventKind::DmissBegin;
          default:
            return kind; // not a closer
        }
    };
    std::vector<obs::EventKind> stack;
    std::map<obs::EventKind, uint64_t> spans;
    for (const obs::TraceEvent &event : trace.snapshot()) {
        switch (event.kind) {
          case obs::EventKind::JobBegin:
          case obs::EventKind::MissBegin:
          case obs::EventKind::HandlerEnter:
          case obs::EventKind::ProcFaultBegin:
          case obs::EventKind::DmissBegin:
            stack.push_back(event.kind);
            break;
          case obs::EventKind::JobEnd:
          case obs::EventKind::MissEnd:
          case obs::EventKind::HandlerIret:
          case obs::EventKind::ProcFaultEnd:
          case obs::EventKind::DmissEnd:
            if (stack.empty() || stack.back() != opener(event.kind))
                fatal("trace smoke: FAILED: unbalanced %s",
                      obs::eventKindName(event.kind));
            ++spans[stack.back()];
            stack.pop_back();
            break;
          case obs::EventKind::Swic:
          case obs::EventKind::MachineCheck:
            break; // instants
        }
    }
    smokeCheck(stack.empty(), "every begin event has a matching end");
    smokeCheck(!spans.empty(), "trace contains at least one closed span");
    return spans;
}

int
runSmoke()
{
    workload::WorkloadSpec spec = workload::tinySpec();
    workload::WorkloadGenerator gen(spec);
    prog::Program program = gen.generate();

    core::SystemConfig config;
    config.cpu = core::paperMachine();
    config.scheme = compress::Scheme::Dictionary;

    core::System plain(program, config);
    core::SystemResult off = plain.run();
    smokeCheck(off.stats.halted, "unobserved run halts");
    smokeCheck(off.metrics.kind() == harness::Json::Kind::Null,
               "unobserved run carries no metrics");

    config.observe.enabled = true;
    config.observe.trace = true;
    config.observe.traceCapacity = size_t{1} << 20;
    core::System observed(program, config);
    core::SystemResult on = observed.run();
    smokeCheck(on.stats.halted, "observed run halts");
    smokeCheck(on.stats.compressedMisses > 0,
               "workload exercises the decompressor");
    checkStatsParity(off.stats, on.stats);

    const obs::Observer *obs = observed.observer();
    RTDC_ASSERT(obs && obs->trace(), "observer missing after run");
    checkReconciliation(*obs, on.stats);
    checkNesting(*obs->trace());

    // With the data region compressed too, D-miss spans join the trace
    // and must nest like the rest.
    core::SystemConfig dconfig = config;
    dconfig.dataCompression = core::DataCompression::Both;
    dconfig.dmem.scheme = dmem::DataScheme::Dictionary;
    core::System dobserved(program, dconfig);
    core::SystemResult don = dobserved.run();
    smokeCheck(don.stats.halted, "observed data-compression run halts");
    smokeCheck(don.stats.dmemFaults > 0,
               "workload exercises the data decompressor");
    dconfig.observe = {};
    core::System dplain(program, dconfig);
    checkStatsParity(dplain.run().stats, don.stats);
    const obs::Observer *dobs = dobserved.observer();
    RTDC_ASSERT(dobs && dobs->trace(), "observer missing after run");
    checkReconciliation(*dobs, don.stats);
    std::map<obs::EventKind, uint64_t> dspans = checkNesting(*dobs->trace());
    smokeCheck(dspans[obs::EventKind::DmissBegin] == don.stats.dmemFaults,
               "one closed dmiss span per RunStats dmemFaults");

    // The exported Chrome trace must survive a JSON round trip.
    harness::Json doc =
        obs::chromeTraceJson({{spec.name + "/dictionary", obs->trace()}});
    std::string text = doc.dump(2);
    harness::Json parsed;
    std::string error;
    smokeCheck(harness::Json::parse(text, &parsed, &error),
               "Chrome trace JSON re-parses");
    const harness::Json *events = parsed.find("traceEvents");
    smokeCheck(events && events->size() > 0,
               "Chrome trace has a non-empty traceEvents array");
    smokeCheck(on.metrics.kind() == harness::Json::Kind::Object,
               "SystemResult carries the metrics object");

    std::printf("trace smoke: PASS (%llu events, %llu compressed "
                "misses)\n",
                static_cast<unsigned long long>(obs->trace()->size()),
                static_cast<unsigned long long>(
                    on.stats.compressedMisses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    setInformEnabled(false);
    if (opts.smoke)
        return runSmoke();

    harness::Job &job = opts.job;
    core::SystemConfig &config = job.config;
    harness::ArtifactCache cache;
    std::shared_ptr<const prog::Program> program =
        cache.program(job.workload);
    if (opts.select || opts.placement) {
        profile::ProcedureProfile profile =
            core::profileProgram(*program, config.cpu);
        if (opts.select) {
            config.regions = profile::selectNative(profile, *opts.select,
                                                   opts.threshold);
        }
        if (opts.placement) {
            config.order = profile::affinityOrder(program->procs.size(),
                                                  profile.transitions);
        }
    }

    core::System system(cache.builtImage(job.workload, config), config);
    core::SystemResult result = system.run();

    std::printf("%s: %s bytes of text, scheme %s%s\n",
                job.workload.name.c_str(),
                rtd::fmtCount(program->textBytes()).c_str(),
                compress::schemeName(config.scheme),
                config.secondRegFile ? " (+RF)" : "");
    if (config.scheme == compress::Scheme::None && !opts.select &&
        !opts.placement) {
        // The job is the native run itself.
        std::printf("%s\n", opts.quiet
                                ? core::formatSummary(result).c_str()
                                : core::formatReport(result).c_str());
    } else {
        core::SystemConfig native_config;
        native_config.cpu = config.cpu;
        core::System native_system(
            cache.builtImage(job.workload, native_config), native_config);
        core::SystemResult native = native_system.run();
        if (opts.quiet) {
            std::printf("%s\n",
                        core::formatSummary(result, &native).c_str());
        } else {
            std::printf("%s", core::formatReport(result).c_str());
            std::printf("  slowdown vs native          %sx\n",
                        rtd::fmtDouble(core::slowdown(result, native), 3)
                            .c_str());
        }
    }

    bool ok = true;
    if (const obs::Observer *obs = system.observer()) {
        if (const obs::TraceBuffer *trace = obs->trace()) {
            std::printf("  trace events retained       %s (%s dropped)\n",
                        rtd::fmtCount(trace->size()).c_str(),
                        rtd::fmtCount(trace->dropped()).c_str());
        }
        if (!opts.tracePath.empty()) {
            harness::Json doc = obs::chromeTraceJson({{job.tag, obs->trace()}});
            ok &= writeFile(opts.tracePath, doc.dump(2) + "\n");
            if (ok)
                std::printf("wrote %s (open in chrome://tracing or "
                            "ui.perfetto.dev)\n",
                            opts.tracePath.c_str());
        }
        if (!opts.metricsPath.empty()) {
            ok &= writeFile(opts.metricsPath,
                            obs->metricsJson().dump(2) + "\n");
            if (ok)
                std::printf("wrote %s\n", opts.metricsPath.c_str());
        }
        if (!opts.heatmapPath.empty()) {
            ok &= writeFile(opts.heatmapPath, obs->heat().toCsv());
            if (ok)
                std::printf("wrote %s\n", opts.heatmapPath.c_str());
        }
    }
    return ok && result.stats.halted ? 0 : 1;
}
