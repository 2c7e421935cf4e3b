/**
 * @file
 * Host simulation-speed bench: wall-clock MIPS (millions of simulated
 * instructions per second of host time) for native, dictionary and
 * CodePack runs of the cc1 stand-in, across the three execution
 * engines: the legacy decode-per-fetch interpreter, the predecoded
 * engine (CpuConfig::predecode), and the block-structured engine on
 * top of it (CpuConfig::blockExec; it also services repeat
 * decompression fills by handler replay, DESIGN.md section 19). This
 * establishes the perf trajectory the ROADMAP asks for: future PRs
 * report speedups against the recorded baseline.
 *
 * Unlike every other bench, the emitted `BENCH_simperf.json` carries
 * wall-clock fields by design, so it has its own schema (`"sweep":
 * "simperf"`, rows with `wall_seconds`/`host_mips`) and is explicitly
 * *excluded* from the harness's byte-identical-rows determinism
 * contract. The simulated results themselves stay deterministic: each
 * scheme's three runs are asserted identical on every RunStats field
 * before any timing is reported.
 *
 * `--smoke` (used by the `simperf_smoke` ctest) additionally re-parses
 * the written JSON and fails unless every row has the expected keys and
 * a nonzero MIPS figure, with one row per engine for every scheme —
 * never a performance threshold.
 *
 * `--parity` (used by the `engine_parity_smoke` ctest) runs every
 * combination of the two engine flags — all four, including the
 * half-enabled blockExec-without-predecode state — across all five
 * schemes plus the data-compression scenarios (data-only and code+data
 * "both"), asserts full RunStats identity, and writes nothing. It
 * exits nonzero naming the first diverging field, scheme and flag
 * combination: a fast, deterministic guard on the invalidation paths.
 * It also prints how many code-miss fills the block engine serviced by
 * handler replay (DESIGN.md section 19) and fails when a code-scheme
 * scenario replays none, so the check is always a replay-against-legacy
 * oracle (combination 0 is the legacy engine, which never replays).
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

/** The three execution engines, in the order they were added. */
struct EngineConfig
{
    const char *name;
    bool predecode;
    bool blockExec;
};

constexpr EngineConfig kEngines[] = {
    {"legacy", false, false},
    {"predecode", true, false},
    {"blocks", true, true},
};
constexpr int kNumEngines = 3;

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
 * Time all three engines over the same BuiltImage, keeping each side's
 * fastest wall time (the standard noise-robust estimator: interference
 * only ever slows a run down). Repetitions are interleaved
 * legacy/predecode/blocks so a sustained slow period on the host hits
 * every engine rather than biasing the speedups. The simulated results
 * are identical across engines and reps.
 */
void
timedEngines(const std::shared_ptr<const core::BuiltImage> &built,
             core::SystemConfig config, int reps,
             TimedRun out[kNumEngines])
{
    for (int i = 0; i < reps; ++i) {
        for (int e = 0; e < kNumEngines; ++e) {
            config.cpu.predecode = kEngines[e].predecode;
            config.cpu.blockExec = kEngines[e].blockExec;
            timeOnce(built, config, i == 0, out[e]);
        }
    }
    for (int e = 0; e < kNumEngines; ++e)
        finishMips(out[e]);
}

/**
 * Every RunStats field must be independent of the execution engine:
 * the engines are host-side memoization only.
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
             {"scheme", "engine", "predecode", "block_exec",
              "user_insns", "handler_insns", "wall_seconds",
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
        const EngineConfig &engine = kEngines[i % kNumEngines];
        if (row.get("scheme").asString() !=
                compress::schemeName(kSchemes[i / kNumEngines]) ||
            row.get("engine").asString() != engine.name) {
            error = "row " + std::to_string(i) + " out of order";
            return false;
        }
        if (engine.blockExec && !row.find("speedup_vs_predecode")) {
            error = "block row missing speedup_vs_predecode";
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
 * --parity: one run per engine-flag combination per scheme, full
 * RunStats identity. All four (predecode, blockExec) combinations run,
 * not just the three named engines: the half-enabled state (blockExec
 * without predecode) must fall back to the legacy path with identical
 * results, or a config typo in a sweep would silently change the
 * physics.
 */
int
runParity(double scale)
{
    prog::Program program = bench::generateBenchmark(
        workload::paperBenchmark("cc1"), scale);
    // Code schemes alone, then the data-compression scenarios: the
    // D-miss service path (and its interactions with the I-side
    // handler in "both" mode) must also be engine-invariant.
    struct Scenario
    {
        Scheme scheme;
        core::DataCompression data;
    };
    const Scenario scenarios[] = {
        {Scheme::None, core::DataCompression::Off},
        {Scheme::Dictionary, core::DataCompression::Off},
        {Scheme::CodePack, core::DataCompression::Off},
        {Scheme::ProcLzrw1, core::DataCompression::Off},
        {Scheme::HuffmanLine, core::DataCompression::Off},
        {Scheme::None, core::DataCompression::DataOnly},
        {Scheme::Dictionary, core::DataCompression::Both},
        {Scheme::CodePack, core::DataCompression::Both},
        {Scheme::HuffmanLine, core::DataCompression::Both},
    };
    for (const Scenario &scenario : scenarios) {
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.scheme = scenario.scheme;
        config.dataCompression = scenario.data;
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));
        char name[40];
        std::snprintf(name, sizeof name, "%s%s",
                      compress::schemeName(scenario.scheme),
                      scenario.data == core::DataCompression::Off
                          ? ""
                          : ".dmem");
        cpu::RunStats ref;
        uint64_t replayed[4] = {};
        for (int combo = 0; combo < 4; ++combo) {
            config.cpu.predecode = (combo & 1) != 0;
            config.cpu.blockExec = (combo & 2) != 0;
            char label[40];
            std::snprintf(label, sizeof label, "predecode=%d,blocks=%d",
                          combo & 1, (combo >> 1) & 1);
            core::System system(built, config);
            cpu::RunStats stats = system.run().stats;
            replayed[combo] = system.cpu().replayedFills();
            if (combo == 0)
                ref = stats;
            else
                assertParity(stats, ref, name, label);
        }
        // Combination 3 (predecode + blocks) runs handlers on the block
        // engine, the one that replays.
        bool code_scheme = scenario.scheme != Scheme::None &&
                           scenario.scheme != Scheme::ProcLzrw1;
        if (code_scheme && replayed[3] == 0) {
            fatal("%s: the block-engine combination replayed no handler "
                  "fills, so parity did not exercise replay", name);
        }
        std::printf("parity ok: %-15s (all RunStats fields identical "
                    "across 4 engine-flag combinations; replayed fills "
                    "%llu of %llu compressed misses)\n",
                    name, static_cast<unsigned long long>(replayed[3]),
                    static_cast<unsigned long long>(ref.compressedMisses));
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
                 "vs legacy", "vs predecode"});
    for (Scheme scheme : kSchemes) {
        core::SystemConfig config;
        config.cpu = machine;
        config.scheme = scheme;
        auto built = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, config));

        const int reps = smoke ? 1 : 7;
        TimedRun runs[kNumEngines];
        timedEngines(built, config, reps, runs);
        for (int e = 1; e < kNumEngines; ++e) {
            assertParity(runs[e].result.stats, runs[0].result.stats,
                         compress::schemeName(scheme), kEngines[e].name);
        }

        for (int e = 0; e < kNumEngines; ++e) {
            const TimedRun &run = runs[e];
            double vs_legacy = e > 0 && runs[0].hostMips > 0.0
                                   ? run.hostMips / runs[0].hostMips
                                   : 0.0;
            double vs_predecode = e >= 2 && runs[1].hostMips > 0.0
                                      ? run.hostMips / runs[1].hostMips
                                      : 0.0;
            uint64_t insns = run.result.stats.userInsns +
                             run.result.stats.handlerInsns;
            table.addRow({
                compress::schemeName(scheme),
                kEngines[e].name,
                fmtCount(insns),
                fmtDouble(run.wallSeconds, 3),
                fmtDouble(run.hostMips, 1),
                e > 0 ? fmtDouble(vs_legacy, 2) + "x" : "-",
                e >= 2 ? fmtDouble(vs_predecode, 2) + "x" : "-",
            });

            harness::Json row = harness::Json::object();
            row.set("scheme", compress::schemeName(scheme));
            row.set("engine", kEngines[e].name);
            row.set("predecode", kEngines[e].predecode);
            row.set("block_exec", kEngines[e].blockExec);
            row.set("user_insns", run.result.stats.userInsns);
            row.set("handler_insns", run.result.stats.handlerInsns);
            row.set("cycles", run.result.stats.cycles);
            row.set("wall_seconds", run.wallSeconds);
            row.set("host_mips", run.hostMips);
            if (e > 0)
                row.set("speedup_vs_decode", vs_legacy);
            if (e >= 2)
                row.set("speedup_vs_predecode", vs_predecode);
            sink.addRow(std::move(row));
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMIPS = simulated (user + handler) instructions per "
                "second of host wall-clock;\nspeedups compare engines on "
                "the same BuiltImage (legacy = decode per fetch,\n"
                "predecode = decode-once caches, blocks = block-"
                "structured dispatch plus handler replay).\n");

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
