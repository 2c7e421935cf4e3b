/**
 * @file
 * rtdc_sim — command-line driver for the simulator.
 *
 * Runs one paper benchmark (or a custom-size synthetic workload) under
 * any scheme and machine configuration and prints the full report.
 *
 *   $ ./build/examples/rtdc_sim --bench go --scheme dictionary --rf
 *   $ ./build/examples/rtdc_sim --bench cc1 --scheme codepack \
 *         --icache 64
 *   $ ./build/examples/rtdc_sim --bench perl --scheme proc-lzrw1 \
 *         --pcache 32
 *   $ ./build/examples/rtdc_sim --bench mpeg2enc --scheme dictionary \
 *         --select miss --threshold 0.2 --placement
 *   $ ./build/examples/rtdc_sim --list
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/experiment.h"
#include "core/report.h"
#include "support/table.h"
#include "profile/placement.h"
#include "profile/selection.h"
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
        "  --trace N           print the first N executed instructions\n"
        "  --quiet             summary line only\n",
        argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = "go";
    std::string scheme_name = "native";
    std::string select;
    double scale = 1.0;
    double threshold = 0.2;
    uint64_t seed = 0;
    bool rf = false;
    bool placement = false;
    bool quiet = false;
    uint32_t icache_kb = 16, dcache_kb = 8, line = 32, assoc = 2;
    uint32_t pcache_kb = 64;
    unsigned mem_latency = 10;
    uint64_t trace = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Whole-string numbers: "4x", "abc" or "-1" is a usage error
        // before anything is simulated, never some other value.
        auto count = [&](uint64_t max) {
            const char *text = next();
            uint64_t value = 0;
            if (!core::parseCount(text, max, value)) {
                std::fprintf(stderr, "rtdc_sim: bad %s '%s'\n",
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
        else if (arg == "--seed") seed = count(UINT64_MAX);
        else if (arg == "--scheme") scheme_name = next();
        else if (arg == "--rf") rf = true;
        else if (arg == "--icache") icache_kb = uint32_t(count(kb));
        else if (arg == "--dcache") dcache_kb = uint32_t(count(kb));
        else if (arg == "--line") line = uint32_t(count(u32));
        else if (arg == "--assoc") assoc = uint32_t(count(u32));
        else if (arg == "--mem") mem_latency = unsigned(count(u32));
        else if (arg == "--pcache") pcache_kb = uint32_t(count(kb));
        else if (arg == "--select") select = next();
        else if (arg == "--threshold")
            threshold = core::positiveNumber("--threshold", next());
        else if (arg == "--placement") placement = true;
        else if (arg == "--trace") trace = count(UINT64_MAX);
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--list") {
            for (const auto &b : workload::paperBenchmarks())
                std::printf("%s\n", b.spec.name.c_str());
            return 0;
        } else {
            usage(argv[0]);
        }
    }
    // Machine.
    cpu::CpuConfig machine = core::paperMachine(icache_kb * 1024);
    machine.icache.lineBytes = line;
    machine.icache.assoc = assoc;
    machine.dcache.sizeBytes = dcache_kb * 1024;
    machine.memTiming.firstAccessCycles = mem_latency;
    machine.traceInsns = trace;

    // Scheme.
    compress::Scheme scheme;
    if (scheme_name == "native") scheme = compress::Scheme::None;
    else if (scheme_name == "dictionary")
        scheme = compress::Scheme::Dictionary;
    else if (scheme_name == "codepack")
        scheme = compress::Scheme::CodePack;
    else if (scheme_name == "proc-lzrw1")
        scheme = compress::Scheme::ProcLzrw1;
    else usage(argv[0]);

    // Workload.
    workload::WorkloadSpec spec =
        workload::scaledSpec(workload::paperBenchmark(bench), scale);
    if (seed)
        spec.seed = seed;
    workload::WorkloadGenerator gen(spec);
    prog::Program program = gen.generate();

    // Optional selection / placement need a profiling run.
    core::SystemConfig config;
    config.cpu = machine;
    config.scheme = scheme;
    config.secondRegFile = rf;
    config.procCache.capacityBytes = pcache_kb * 1024;
    if (!select.empty() || placement) {
        profile::ProcedureProfile profile =
            core::profileProgram(program, machine);
        if (!select.empty()) {
            profile::SelectionPolicy policy;
            if (select == "exec")
                policy = profile::SelectionPolicy::ExecutionBased;
            else if (select == "miss")
                policy = profile::SelectionPolicy::MissBased;
            else
                usage(argv[0]);
            config.regions =
                profile::selectNative(profile, policy, threshold);
        }
        if (placement) {
            config.order = profile::affinityOrder(program.procs.size(),
                                                  profile.transitions);
        }
    }

    core::SystemResult native = core::runNative(program, machine);
    std::printf("%s: %s bytes of text, scheme %s%s\n", bench.c_str(),
                rtd::fmtCount(program.textBytes()).c_str(),
                scheme_name.c_str(), rf ? " (+RF)" : "");
    if (scheme == compress::Scheme::None && select.empty() &&
        !placement) {
        std::printf("%s\n", quiet
                                ? core::formatSummary(native).c_str()
                                : core::formatReport(native).c_str());
        return 0;
    }

    core::System system(program, config);
    core::SystemResult result = system.run();
    if (quiet) {
        std::printf("%s\n",
                    core::formatSummary(result, &native).c_str());
    } else {
        std::printf("%s", core::formatReport(result).c_str());
        std::printf("  slowdown vs native          %sx\n",
                    rtd::fmtDouble(core::slowdown(result, native), 3).c_str());
    }
    return result.stats.halted ? 0 : 1;
}
