/**
 * @file
 * rtdc_sweep — unified driver for the registered design-space sweeps.
 *
 * Runs any registered sweep (the paper's tables and figures, the
 * Kirovski and 16-bit baselines, placement, the ablations, the data
 * side and the machine matrix) on the parallel sweep harness: jobs
 * execute across worker threads, expensive intermediates (generated
 * programs, linked and compressed images) are shared through the
 * artifact cache, and the result rows are written to JSON alongside
 * the human tables printed on stdout.
 *
 *   $ ./build/examples/rtdc_sweep --list
 *   $ ./build/examples/rtdc_sweep table2
 *   $ ./build/examples/rtdc_sweep figure4 --jobs $(nproc)
 *   $ ./build/examples/rtdc_sweep table3 --jobs 4 --scale 0.2 \
 *         --out table3.json
 *
 * Parallel runs are byte-identical to --jobs 1 (see DESIGN.md,
 * "Harness": every job's randomness flows from its own workload seed).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/sweeps.h"
#include "support/logging.h"

using namespace rtd;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--list] SWEEP [options]\n"
        "  --jobs N      worker threads (default: all cores)\n"
        "  --scale F     dynamic-length scale factor (default: "
        "RTDC_BENCH_SCALE or 1)\n"
        "  --out FILE    JSON output path (default: BENCH_<sweep>.json)\n"
        "  --no-json     skip the JSON output file\n"
        "  --observe     collect per-job metrics into the JSON under "
        "\"metrics\"\n"
        "  --poison SUB  poison every job whose tag contains SUB (it "
        "fails; the sweep\n"
        "                keeps going and the exit code turns nonzero — "
        "failure-path demo)\n"
        "  --list        list registered sweeps\n",
        argv0);
    std::exit(2);
}

void
listSweeps()
{
    for (const harness::SweepInfo &info : harness::sweeps())
        std::printf("%-18s %s\n", info.name, info.description);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--list") {
            listSweeps();
            return 0;
        }
    }
    harness::SweepOptions opts = harness::SweepOptions::fromEnv();
    std::string sweep;
    if (!harness::parseSweepArgs(args, opts, sweep))
        usage(argv[0]);
    return harness::runSweep(sweep, opts);
}
