/**
 * @file
 * rtdc_trace — observability driver: run one benchmark under one scheme
 * with the obs subsystem on and export what it saw.
 *
 *   $ ./build/examples/rtdc_trace --bench go --scheme dictionary \
 *         --trace trace.json --metrics metrics.json --heatmap heat.csv
 *
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
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/system.h"
#include "dmem/data_region.h"
#include "harness/json.h"
#include "obs/observer.h"
#include "obs/trace.h"
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
        "  --bench NAME     paper benchmark (default: go)\n"
        "  --scheme S       native | dictionary | codepack | "
        "proc-lzrw1 (default: dictionary)\n"
        "  --scale F        dynamic-length scale factor (default 1)\n"
        "  --seed N         override the workload seed\n"
        "  --trace FILE     write the Chrome-trace JSON (Perfetto/"
        "chrome://tracing)\n"
        "  --metrics FILE   write the metrics JSON (counters + "
        "histograms)\n"
        "  --heatmap FILE   write the per-line heat profile as CSV\n"
        "  --capacity N     trace ring capacity in events (default "
        "65536)\n"
        "  --smoke          self-check on a tiny workload (trace_smoke "
        "ctest)\n",
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
    if (name == "native") return compress::Scheme::None;
    if (name == "dictionary") return compress::Scheme::Dictionary;
    if (name == "codepack") return compress::Scheme::CodePack;
    if (name == "proc-lzrw1") return compress::Scheme::ProcLzrw1;
    usage(argv0);
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
    std::string bench = "go";
    std::string scheme_name = "dictionary";
    std::string trace_path, metrics_path, heatmap_path;
    double scale = 1.0;
    uint64_t seed = 0;
    size_t capacity = size_t{1} << 16;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Whole-string counts: "4x", "abc" or "-1" is a usage error.
        auto count = [&](uint64_t min) {
            const char *text = next();
            uint64_t value = 0;
            if (!core::parseCount(text, SIZE_MAX, value) || value < min) {
                std::fprintf(stderr, "rtdc_trace: bad %s '%s'\n",
                             arg.c_str(), text);
                usage(argv[0]);
            }
            return value;
        };
        if (arg == "--bench") bench = next();
        else if (arg == "--scheme") scheme_name = next();
        else if (arg == "--scale")
            scale = core::positiveNumber("--scale", next());
        else if (arg == "--seed") seed = count(0);
        else if (arg == "--trace") trace_path = next();
        else if (arg == "--metrics") metrics_path = next();
        else if (arg == "--heatmap") heatmap_path = next();
        else if (arg == "--capacity")
            capacity = static_cast<size_t>(count(1));
        else if (arg == "--smoke") smoke = true;
        else usage(argv[0]);
    }
    setInformEnabled(false);
    if (smoke)
        return runSmoke();
    compress::Scheme scheme = parseScheme(scheme_name, argv[0]);
    workload::WorkloadSpec spec =
        workload::scaledSpec(workload::paperBenchmark(bench), scale);
    if (seed)
        spec.seed = seed;
    workload::WorkloadGenerator gen(spec);
    prog::Program program = gen.generate();

    core::SystemConfig config;
    config.cpu = core::paperMachine();
    config.scheme = scheme;
    config.observe.enabled = true;
    config.observe.trace = !trace_path.empty();
    config.observe.traceCapacity = capacity;

    core::System system(program, config);
    core::SystemResult result = system.run();
    const obs::Observer *obs = system.observer();
    RTDC_ASSERT(obs, "observer missing after observed run");

    std::printf("%s: %s under %s\n%s", bench.c_str(),
                rtd::fmtCount(program.textBytes()).c_str(),
                scheme_name.c_str(),
                core::formatReport(result).c_str());
    if (const obs::TraceBuffer *trace = obs->trace()) {
        std::printf("  trace events retained       %s (%s dropped)\n",
                    rtd::fmtCount(trace->size()).c_str(),
                    rtd::fmtCount(trace->dropped()).c_str());
    }

    bool ok = true;
    if (!trace_path.empty()) {
        harness::Json doc = obs::chromeTraceJson(
            {{bench + "/" + scheme_name, obs->trace()}});
        ok &= writeFile(trace_path, doc.dump(2) + "\n");
        if (ok)
            std::printf("wrote %s (open in chrome://tracing or "
                        "ui.perfetto.dev)\n",
                        trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        ok &= writeFile(metrics_path, obs->metricsJson().dump(2) + "\n");
        if (ok)
            std::printf("wrote %s\n", metrics_path.c_str());
    }
    if (!heatmap_path.empty()) {
        ok &= writeFile(heatmap_path, obs->heat().toCsv());
        if (ok)
            std::printf("wrote %s\n", heatmap_path.c_str());
    }
    return ok && result.stats.halted ? 0 : 1;
}
