/**
 * @file
 * Data-side compression study (DESIGN.md section 18): code-only vs
 * data-only vs both scenarios across the benchmark set, for both data
 * page codecs (dictionary and LZRW1).
 *
 * The paper compresses only code; this bench measures what happens
 * when the same decompress-on-demand machinery also covers the
 * workload's initialized data. For every benchmark it runs:
 *
 *   native     (None, Off)                 — the baseline
 *   code-only  (Dictionary code, Off)      — the paper's scenario
 *   data-only  (None, DataOnly, codec)     — per data codec
 *   both       (Dictionary code, Both, codec)
 *
 * and emits one BENCH_dside.json row per non-native run: slowdown vs
 * native, code/data compression ratios, and the D-miss service
 * counters. `--smoke` additionally asserts RunStats parity between the
 * two execution engines with data compression enabled and validates
 * the written JSON schema (the dside_smoke ctest).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "../bench/common.h"
#include "dmem/data_region.h"
#include "serve/wire.h"
#include "support/table.h"

using namespace rtd;
using compress::Scheme;
using core::DataCompression;
using dmem::DataScheme;

namespace {

core::SystemResult
runScenario(const std::shared_ptr<const core::BuiltImage> &built,
            const core::SystemConfig &config)
{
    core::System system(built, config);
    return system.run();
}

/**
 * Blocks and the Oracle on one BuiltImage must produce identical
 * RunStats; fatal (names the first diverging field) otherwise. Mirrors
 * bench_simperf --parity for the data path.
 */
void
assertEngineParity(const std::shared_ptr<const core::BuiltImage> &built,
                   const core::SystemConfig &base, const char *label)
{
    core::SystemConfig config = base;
    config.cpu.engine = cpu::Engine::Oracle;
    cpu::RunStats oracle = runScenario(built, config).stats;
    config.cpu.engine = cpu::Engine::Blocks;
    std::string diff =
        serve::runStatsDiff(runScenario(built, config).stats, oracle);
    if (!diff.empty())
        fatal("dside parity: %s diverged on %s", label, diff.c_str());
    std::printf("parity ok: %-18s (RunStats identical on oracle and "
                "blocks)\n",
                label);
}

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
    if (!sweep || sweep->asString() != "dside") {
        error = "missing sweep name";
        return false;
    }
    const harness::Json *rows = doc.find("rows");
    if (!rows || rows->size() == 0) {
        error = "no rows";
        return false;
    }
    bool sawScenario[3] = {false, false, false};
    for (size_t i = 0; i < rows->size(); ++i) {
        const harness::Json &row = rows->at(i);
        for (const char *key :
             {"benchmark", "scenario", "data_scheme", "cycles",
              "slowdown", "dmem_faults", "code_ratio", "data_ratio"}) {
            if (!row.find(key)) {
                error = std::string("row missing key ") + key;
                return false;
            }
        }
        const std::string &scenario = row.get("scenario").asString();
        if (scenario == "code-only")
            sawScenario[0] = true;
        else if (scenario == "data-only")
            sawScenario[1] = true;
        else if (scenario == "both")
            sawScenario[2] = true;
        if (scenario != "code-only" &&
            row.get("dmem_faults").asInt() == 0) {
            error = "data scenario with zero dmem faults";
            return false;
        }
    }
    if (!sawScenario[0] || !sawScenario[1] || !sawScenario[2]) {
        error = "missing a code-only/data-only/both row";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    setInformEnabled(false);
    std::printf(
        "=== dside: code-only vs data-only vs both compression ===\n");
    double scale = bench::announceScale();
    cpu::CpuConfig machine = core::paperMachine();
    machine.verifyDecompression = false; // self-checks stay in tests

    harness::ResultSink sink("dside");
    sink.setScale(scale);
    sink.setMachine(machine);
    sink.printMachineHeader();

    // Acceptance floor is 3 benchmarks x 2 data schemes; the smoke run
    // trims to the floor, a full run covers the whole paper set.
    std::vector<std::string> names;
    for (const auto &benchmark : workload::paperBenchmarks()) {
        names.push_back(benchmark.spec.name);
        if (smoke && names.size() == 3)
            break;
    }

    Table table({"benchmark", "scenario", "data codec", "cycles",
                 "slowdown", "code%", "data%", "dmem faults", "spills"});
    bool parityChecked = false;
    for (const std::string &name : names) {
        prog::Program program = bench::generateBenchmark(
            workload::paperBenchmark(name), scale);

        core::SystemConfig nativeConfig;
        nativeConfig.cpu = machine;
        auto nativeBuilt = std::make_shared<const core::BuiltImage>(
            core::buildImage(program, nativeConfig));
        core::SystemResult native =
            runScenario(nativeBuilt, nativeConfig);

        struct Scenario
        {
            const char *label;
            Scheme code;
            DataCompression mode;
            DataScheme codec;
        };
        std::vector<Scenario> scenarios = {
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
        for (const Scenario &s : scenarios) {
            core::SystemConfig config;
            config.cpu = machine;
            config.scheme = s.code;
            config.dataCompression = s.mode;
            config.dmem.scheme = s.codec;
            auto built = std::make_shared<const core::BuiltImage>(
                core::buildImage(program, config));
            if (smoke && !parityChecked &&
                s.mode != DataCompression::Off) {
                assertEngineParity(built, config, "data-only");
                parityChecked = true;
            }
            core::SystemResult run = runScenario(built, config);
            if (run.stats.machineCheckHalt || !run.stats.halted) {
                fatal("dside: %s/%s did not complete", name.c_str(),
                      s.label);
            }
            if (run.stats.resultValue != native.stats.resultValue) {
                fatal("dside: %s/%s computed a different answer than "
                      "native",
                      name.c_str(), s.label);
            }
            double slow = core::slowdown(run, native);
            double codeRatio =
                s.code != Scheme::None ? run.compressionRatio() : 0.0;
            double dataRatio = s.mode != DataCompression::Off
                                   ? run.dataCompressionRatio()
                                   : 0.0;
            const char *codec = s.mode != DataCompression::Off
                                    ? dmem::dataSchemeName(s.codec)
                                    : "-";
            table.addRow({
                name,
                s.label,
                codec,
                fmtCount(run.stats.cycles),
                fmtDouble(slow, 3),
                s.code != Scheme::None ? fmtDouble(100 * codeRatio, 1)
                                       : "-",
                s.mode != DataCompression::Off
                    ? fmtDouble(100 * dataRatio, 1)
                    : "-",
                std::to_string(run.stats.dmemFaults),
                std::to_string(run.stats.dmemSpills),
            });

            harness::Json row = harness::Json::object();
            row.set("benchmark", name);
            row.set("scenario", s.label);
            row.set("data_scheme", codec);
            row.set("cycles", run.stats.cycles);
            row.set("slowdown", slow);
            row.set("code_ratio", codeRatio);
            row.set("data_ratio", dataRatio);
            row.set("dmem_faults", run.stats.dmemFaults);
            row.set("dmem_evictions", run.stats.dmemEvictions);
            row.set("dmem_spills", run.stats.dmemSpills);
            row.set("dmem_decompressed_bytes",
                    run.stats.dmemDecompressedBytes);
            row.set("original_data_bytes", run.originalDataBytes);
            row.set("compressed_data_bytes", run.compressedDataBytes);
            sink.addRow(std::move(row));
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: data-only slows down less than "
                "code-only (data faults are\nrarer than I-misses and a "
                "page amortizes better than a line); both stacks\nthe "
                "two costs roughly additively while compressing both "
                "images.\n");

    const std::string path = "BENCH_dside.json";
    if (!sink.writeJson(path))
        return 1;
    if (smoke) {
        std::string error;
        if (!validateJson(path, error)) {
            std::fprintf(stderr, "dside smoke: BAD %s: %s\n",
                         path.c_str(), error.c_str());
            return 1;
        }
        std::printf("dside smoke: %s schema + parity ok\n",
                    path.c_str());
    }
    return 0;
}
