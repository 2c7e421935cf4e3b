/**
 * @file
 * rtdc_serve — the persistent sweep daemon (DESIGN.md section 14).
 *
 * Listens on a local unix socket and runs submitted sweep jobs on a
 * pool of worker threads (--jobs). Its in-memory artifact cache stays
 * warm across sweeps and clients; its result index also survives
 * restarts when --cache-dir keeps the journal, which holds the rows,
 * on disk.
 *
 *   $ ./build/examples/rtdc_serve --socket /tmp/rtdc.sock \
 *         --cache-dir /tmp/rtdc-cache &
 *   $ ./build/examples/rtdc_client --socket /tmp/rtdc.sock sweep table3
 *   $ ./build/examples/rtdc_client --socket /tmp/rtdc.sock shutdown
 *
 * SIGINT/SIGTERM trigger the same graceful stop as the shutdown op:
 * in-flight jobs are cancelled, connections drained, the socket file
 * removed.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/experiment.h"
#include "serve/server.h"
#include "support/logging.h"

using namespace rtd;

namespace {

/** The running server, for the signal handler's async stop request. */
std::atomic<bool> g_stopRequested{false};

void
onSignal(int)
{
    // Async-signal-safe: just set the flag; the main thread polls it.
    g_stopRequested.store(true);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH     unix socket to listen on (required)\n"
        "  --cache-dir DIR   write-ahead journal that also holds the "
        "result index;\n"
        "                    programs and images stay in memory "
        "(default: memory only)\n"
        "  --cache-mb N      result index bound in MiB, in memory and "
        "in the\n"
        "                    journal; least recently used rows go first\n"
        "                    (default: 512, 0 = unbounded)\n"
        "  --jobs N          simulation worker threads (default: all "
        "cores)\n"
        "  --high-water N    reject submits past N queued jobs "
        "(default: 100000,\n"
        "                    0 = unbounded)\n"
        "  --journal-fsync P durability policy: none | always | "
        "every=N\n"
        "                    (default: none — survives process death; "
        "always/every=N\n"
        "                    also survive OS crashes, at fsync cost)\n"
        "  --journal-compact-mb N\n"
        "                    compact the journal when it exceeds N MiB "
        "(default: 16)\n",
        argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    serve::ServerConfig config;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // A whole-string count in [min, max]; anything else ("4x",
        // "-1", "abc", overflow) is a usage error, never a default.
        auto count = [&](uint64_t min, uint64_t max) {
            const char *text = next();
            uint64_t value = 0;
            if (!core::parseCount(text, max, value) || value < min) {
                std::fprintf(stderr, "rtdc_serve: bad %s '%s'\n",
                             arg.c_str(), text);
                usage(argv[0]);
            }
            return value;
        };
        if (arg == "--socket") {
            config.socketPath = next();
        } else if (arg == "--cache-dir") {
            config.cacheDir = next();
        } else if (arg == "--cache-mb") {
            config.cacheMaxBytes = count(0, UINT64_MAX >> 20) << 20;
        } else if (arg == "--jobs") {
            config.workers = static_cast<unsigned>(
                count(1, std::numeric_limits<unsigned>::max()));
        } else if (arg == "--high-water") {
            config.queueHighWater = static_cast<size_t>(
                count(0, std::numeric_limits<size_t>::max()));
        } else if (arg == "--journal-fsync") {
            config.journalFsync = next();
            serve::JournalFsyncPolicy policy;
            if (!serve::JournalFsyncPolicy::parse(config.journalFsync,
                                                  policy))
                usage(argv[0]);
        } else if (arg == "--journal-compact-mb") {
            config.journalCompactBytes = count(1, UINT64_MAX >> 20) << 20;
        } else {
            usage(argv[0]);
        }
    }
    if (config.socketPath.empty())
        usage(argv[0]);

    serve::Server server(config);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "rtdc_serve: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "rtdc_serve: listening on %s%s%s\n",
                 config.socketPath.c_str(),
                 config.cacheDir.empty() ? "" : ", journal in ",
                 config.cacheDir.c_str());

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Wait for either a client shutdown op or a signal. The signal
    // handler cannot call stop() itself (it takes locks), so the main
    // thread polls the flag at a human-scale interval.
    for (;;) {
        if (g_stopRequested.load()) {
            server.stop();
            break;
        }
        if (server.waitForShutdownFor(std::chrono::milliseconds(200)))
            break;
    }
    std::fprintf(stderr, "rtdc_serve: stopped\n");
    return 0;
}
