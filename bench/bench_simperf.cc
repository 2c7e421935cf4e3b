/**
 * @file
 * Host simulation-speed bench: wall-clock MIPS (millions of simulated
 * instructions per second of host time) for native, dictionary and
 * CodePack runs of the cc1 stand-in on both execution engines
 * (CpuConfig::engine): the Oracle, which decodes per fetch and runs one
 * instruction at a time, and Blocks, which dispatches predecoded
 * straight-line blocks and services repeat decompression fills by
 * handler replay (DESIGN.md sections 11 and 19). This establishes the
 * perf trajectory the ROADMAP asks for: future PRs report speedups
 * against the recorded baseline.
 *
 * Unlike every other bench, the emitted `BENCH_simperf.json` carries
 * wall-clock fields by design, so it has its own schema (`"sweep":
 * "simperf"`, rows with `wall_seconds`/`host_mips`) and is explicitly
 * *excluded* from the harness's byte-identical-rows determinism
 * contract. The simulated results themselves stay deterministic: each
 * scheme's two runs are asserted identical on every RunStats field
 * before any timing is reported.
 *
 * `--smoke` (used by the `simperf_smoke` ctest) additionally re-parses
 * the written JSON and fails unless every row has the expected keys and
 * a nonzero MIPS figure, with one row per engine for every scheme —
 * never a performance threshold.
 *
 * `--parity` (used by the `engine_parity_smoke` ctest) runs both
 * engines across all five schemes, the data-compression scenarios
 * (data-only and code+data "both", with the dictionary and the LZRW1
 * data scheme) and a profiled native run, asserts full RunStats
 * identity (and identical profile vectors on the profiled run), and
 * writes nothing. It exits nonzero naming the first diverging field
 * and scenario: a fast, deterministic guard on the invalidation paths.
 * It fails when a Blocks run built no block (it fell back to the
 * Oracle) or when a code-scheme scenario replays no handler fill
 * (DESIGN.md section 19), so every scenario checks Blocks and replay
 * against the Oracle, which never replays.
 *
 * `--observe` times the default engine with SystemConfig::observe off
 * and on over the same BuiltImage, asserts the simulated RunStats are
 * identical either way, and reports the observation overhead — the
 * measured cost of the src/obs/ hook sites when someone *is* watching.
 * (When nobody is, the hooks are one never-taken branch each; the
 * driver-level before/after guard is the observe-off MIPS this bench
 * already reports.)
 *
 * Decompression self-verification (CpuConfig::verifyDecompression) is
 * off for all timed runs: the fetch paths time the simulator, not the
 * simulator's self-checks.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "../bench/common.h"
#include "compress/compressed_image.h"
#include "core/system.h"
#include "harness/json.h"
#include "harness/result_sink.h"
#include "serve/wire.h"
#include "support/logging.h"
#include "support/table.h"

#ifndef RTDC_BENCH_COMPILER
#define RTDC_BENCH_COMPILER "unknown"
#endif
#ifndef RTDC_BENCH_BUILD_TYPE
#define RTDC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rtd;
using compress::Scheme;

/** The recording host: every BENCH file carries one. */
harness::Json
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    harness::Json host = harness::Json::object();
    host.set("nproc", std::thread::hardware_concurrency());
    host.set("cpu", cpu);
    host.set("compiler", RTDC_BENCH_COMPILER);
    host.set("build_type", RTDC_BENCH_BUILD_TYPE);
    return host;
}

/** The two execution engines; the Oracle is the speedup baseline. */
constexpr cpu::Engine kEngines[] = {cpu::Engine::Oracle, cpu::Engine::Blocks};
constexpr int kNumEngines = 2;

/** The timed schemes, in row order. */
constexpr Scheme kSchemes[] = {Scheme::None, Scheme::Dictionary,
                               Scheme::CodePack};

struct TimedRun
{
    core::SystemResult result;
    double wallSeconds = 0.0;
    double hostMips = 0.0;
};

/** One timed simulation (construction excluded from the clock). */
void
timeOnce(const std::shared_ptr<const core::BuiltImage> &built,
         const core::SystemConfig &config, bool first, TimedRun &best)
{
    core::System system(built, config);
    auto start = std::chrono::steady_clock::now();
    core::SystemResult result = system.run();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (first || elapsed.count() < best.wallSeconds) {
        best.result = std::move(result);
        best.wallSeconds = elapsed.count();
    }
}

void
finishMips(TimedRun &run)
{
    uint64_t insns =
        run.result.stats.userInsns + run.result.stats.handlerInsns;
    if (run.wallSeconds > 0.0)
        run.hostMips = static_cast<double>(insns) / 1e6 / run.wallSeconds;
}

/**
 * Time both engines over the same BuiltImage, keeping each side's
 * fastest wall time (the standard noise-robust estimator: interference
 * only ever slows a run down). Repetitions are interleaved
 * oracle/blocks so a sustained slow period on the host hits both
 * engines rather than biasing the speedup. The simulated results
 * are identical across engines and reps.
 */
void
timedEngines(const std::shared_ptr<const core::BuiltImage> &built,
             core::SystemConfig config, int reps,
             TimedRun out[kNumEngines])
{
    for (int i = 0; i < reps; ++i) {
        for (int e = 0; e < kNumEngines; ++e) {
            config.cpu.engine = kEngines[e];
            timeOnce(built, config, i == 0, out[e]);
        }
    }
    for (int e = 0; e < kNumEngines; ++e)
        finishMips(out[e]);
}

/**
 * Every RunStats field must be independent of the execution engine:
 * Blocks is host-side memoization only.
 */
void
assertParity(const cpu::RunStats &a, const cpu::RunStats &b,
             const char *scheme, const char *engine)
{
    std::string diff = serve::runStatsDiff(a, b);
    if (!diff.empty())
        fatal("%s/%s: engines diverged on %s", scheme, engine, diff.c_str());
}

/** Validate the smoke-mode JSON schema; returns false with a message. */
bool
validateJson(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    harness::Json doc;
    if (!harness::Json::parse(buf.str(), &doc, &error))
        return false;
    const harness::Json *sweep = doc.find("sweep");
    if (!sweep || sweep->asString() != "simperf") {
        error = "missing sweep name";
        return false;
    }
    const harness::Json *host = doc.find("host");
    if (!host || !host->find("nproc") || !host->find("cpu") ||
        !host->find("compiler") || !host->find("build_type")) {
        error = "missing host fingerprint";
        return false;
    }
    // One row per engine, in kEngines order, for each timed scheme.
    const harness::Json *rows = doc.find("rows");
    if (!rows || rows->size() != kNumEngines * std::size(kSchemes)) {
        error = "expected one row per engine for each scheme";
        return false;
    }
    for (size_t i = 0; i < rows->size(); ++i) {
        const harness::Json &row = rows->at(i);
        for (const char *key :
             {"scheme", "engine", "user_insns", "handler_insns", "wall_seconds",
              "host_mips"}) {
            if (!row.find(key)) {
                error = std::string("row missing key ") + key;
                return false;
            }
        }
        if (row.get("host_mips").asDouble() <= 0.0) {
            error = "zero host_mips";
            return false;
        }
        const cpu::Engine engine = kEngines[i % kNumEngines];
        if (row.get("scheme").asString() !=
                compress::schemeName(kSchemes[i / kNumEngines]) ||
            row.get("engine").asString() != cpu::engineName(engine)) {
            error = "row " + std::to_string(i) + " out of order";
            return false;
        }
        if (engine == cpu::Engine::Blocks &&
            !row.find("speedup_vs_oracle")) {
            error = "blocks row missing speedup_vs_oracle";
            return false;
        }
    }
    return true;
}

/**
 * --observe: time the default engine with observation off vs on, assert
 * the simulated results are identical, report the overhead.
 */
int
runObserve(double scale)
{
    prog::Program program = bench::generateBenchmark(
        workload::paperBenchmark("cc1"), scale);
    const int reps = 5;
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary}) {
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.cpu.verifyDecompression = false;
        config.scheme = scheme;
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));

        TimedRun off, on;
        for (int i = 0; i < reps; ++i) {
            config.observe.enabled = false;
            timeOnce(built, config, i == 0, off);
            config.observe.enabled = true;
            timeOnce(built, config, i == 0, on);
        }
        finishMips(off);
        finishMips(on);
        assertParity(on.result.stats, off.result.stats,
                     compress::schemeName(scheme), "observed");
        double overhead =
            off.hostMips > 0.0 && on.hostMips > 0.0
                ? (off.hostMips / on.hostMips - 1.0) * 100.0
                : 0.0;
        std::printf("observe ok: %-10s RunStats identical; host MIPS "
                    "%7.1f off / %7.1f on (%+.1f%% when watching)\n",
                    compress::schemeName(scheme), off.hostMips,
                    on.hostMips, overhead);
    }
    return 0;
}

/**
 * --parity: each scenario once per engine, full RunStats identity (and
 * identical profile vectors when profiled). The Oracle is the
 * reference; Blocks must build blocks, so a run that silently fell
 * back to the Oracle cannot pass as parity.
 */
int
runParity(double scale)
{
    prog::Program program = bench::generateBenchmark(
        workload::paperBenchmark("cc1"), scale);
    // Code schemes alone, then the data-compression scenarios (the
    // D-miss service path and its interactions with the I-side handler
    // in "both" mode), then a profiled run, whose per-procedure
    // counters Blocks gathers per block.
    struct Scenario
    {
        const char *name;
        Scheme scheme;
        core::DataCompression data = core::DataCompression::Off;
        dmem::DataScheme dataScheme = dmem::DataScheme::Dictionary;
        bool profiling = false;
    };
    using core::DataCompression;
    const Scenario scenarios[] = {
        {"none", Scheme::None},
        {"dictionary", Scheme::Dictionary},
        {"codepack", Scheme::CodePack},
        {"proc-lzrw1", Scheme::ProcLzrw1},
        {"huffman", Scheme::HuffmanLine},
        {"none.dmem", Scheme::None, DataCompression::DataOnly},
        {"dictionary.dmem", Scheme::Dictionary, DataCompression::Both},
        {"codepack.dmem", Scheme::CodePack, DataCompression::Both},
        {"huffman.dmem", Scheme::HuffmanLine, DataCompression::Both},
        {"codepack.dmem-lzrw1", Scheme::CodePack, DataCompression::Both,
         dmem::DataScheme::Lzrw1},
        {"none.profiled", Scheme::None, DataCompression::Off,
         dmem::DataScheme::Dictionary, true},
    };
    for (const Scenario &scenario : scenarios) {
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.scheme = scenario.scheme;
        config.dataCompression = scenario.data;
        config.dmem.scheme = scenario.dataScheme;
        config.profiling = scenario.profiling;
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        config.cpu.engine = cpu::Engine::Oracle;
        const core::SystemResult ref = core::System(built, config).run();
        config.cpu.engine = cpu::Engine::Blocks;
        core::System system(built, config);
        const core::SystemResult blocks = system.run();
        const isa::BlockCache *cache = system.cpu().blockCache();
        const uint64_t replayed = system.cpu().replayedFills();
        assertParity(blocks.stats, ref.stats, scenario.name, "blocks");
        if (ref.profile.execInsns != blocks.profile.execInsns ||
            ref.profile.missCounts != blocks.profile.missCounts ||
            ref.profile.transitions != blocks.profile.transitions) {
            fatal("%s: engines diverged on the profile vectors",
                  scenario.name);
        }
        if (!cache || cache->builds() == 0) {
            fatal("%s: the Blocks run built no block, so it fell back to "
                  "the Oracle", scenario.name);
        }
        bool code_scheme = scenario.scheme != Scheme::None &&
                           scenario.scheme != Scheme::ProcLzrw1;
        if (code_scheme && replayed == 0) {
            fatal("%s: the Blocks run replayed no handler fills, so "
                  "parity did not exercise replay", scenario.name);
        }
        std::printf("parity ok: %-19s (all RunStats fields%s identical "
                    "on oracle and blocks; replayed fills %llu of %llu "
                    "compressed misses)\n",
                    scenario.name,
                    scenario.profiling ? " and profile vectors" : "",
                    static_cast<unsigned long long>(replayed),
                    static_cast<unsigned long long>(
                        ref.stats.compressedMisses));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool parity = false;
    bool observe = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--parity") == 0)
            parity = true;
        else if (std::strcmp(argv[i], "--observe") == 0)
            observe = true;
    }

    setInformEnabled(false);
    if (parity) {
        std::printf("=== simperf: engine parity check ===\n");
        return runParity(bench::announceScale());
    }
    if (observe) {
        std::printf("=== simperf: observation overhead check ===\n");
        return runObserve(bench::announceScale());
    }

    std::printf("=== simperf: host simulation speed (MIPS) ===\n");
    double scale = bench::announceScale();
    cpu::CpuConfig machine = core::paperMachine();
    machine.verifyDecompression = false;

    harness::ResultSink sink("simperf");
    sink.setScale(scale);
    sink.setMachine(machine);
    sink.printMachineHeader();

    prog::Program program = bench::generateBenchmark(
        workload::paperBenchmark("cc1"), scale);

    Table table({"scheme", "engine", "sim insns", "wall s", "host MIPS",
                 "vs oracle"});
    for (Scheme scheme : kSchemes) {
        core::SystemConfig config;
        config.cpu = machine;
        config.scheme = scheme;
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));

        const int reps = smoke ? 1 : 7;
        TimedRun runs[kNumEngines];
        timedEngines(built, config, reps, runs);
        assertParity(runs[1].result.stats, runs[0].result.stats,
                     compress::schemeName(scheme), "blocks");

        for (int e = 0; e < kNumEngines; ++e) {
            const TimedRun &run = runs[e];
            double vs_oracle = e > 0 && runs[0].hostMips > 0.0
                                   ? run.hostMips / runs[0].hostMips
                                   : 0.0;
            uint64_t insns = run.result.stats.userInsns +
                             run.result.stats.handlerInsns;
            table.addRow({
                compress::schemeName(scheme),
                cpu::engineName(kEngines[e]),
                fmtCount(insns),
                fmtDouble(run.wallSeconds, 3),
                fmtDouble(run.hostMips, 1),
                e > 0 ? fmtDouble(vs_oracle, 2) + "x" : "-",
            });

            harness::Json row = harness::Json::object();
            row.set("scheme", compress::schemeName(scheme));
            row.set("engine", cpu::engineName(kEngines[e]));
            row.set("user_insns", run.result.stats.userInsns);
            row.set("handler_insns", run.result.stats.handlerInsns);
            row.set("cycles", run.result.stats.cycles);
            row.set("wall_seconds", run.wallSeconds);
            row.set("host_mips", run.hostMips);
            if (e > 0)
                row.set("speedup_vs_oracle", vs_oracle);
            sink.addRow(std::move(row));
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMIPS = simulated (user + handler) instructions per "
                "second of host wall-clock;\nthe speedup compares the "
                "engines on the same BuiltImage (oracle = decode per\n"
                "fetch, blocks = block-structured dispatch plus handler "
                "replay).\n");

    const std::string path = "BENCH_simperf.json";
    harness::Json doc = sink.toJson();
    doc.set("host", hostFingerprint());
    std::ofstream out(path);
    out << doc.dump(2) << "\n";
    if (!out.flush()) {
        std::fprintf(stderr, "simperf: cannot write %s\n", path.c_str());
        return 1;
    }

    if (smoke) {
        std::string error;
        if (!validateJson(path, error)) {
            std::fprintf(stderr, "simperf smoke: BAD %s: %s\n",
                         path.c_str(), error.c_str());
            return 1;
        }
        std::printf("simperf smoke: %s schema + nonzero MIPS ok\n",
                    path.c_str());
    }
    return 0;
}
