/**
 * @file
 * rtdc_client — CLI client for the rtdc_serve daemon (DESIGN.md
 * section 14).
 *
 * The headline subcommand is `sweep`: it runs any registered sweep
 * exactly like rtdc_sweep does — same job construction, same tables,
 * same BENCH JSON — but ships the simulation jobs to a daemon through
 * SweepOptions::executor. Because jobs are pure functions of their
 * values and the daemon streams rows back in submission order, the
 * output is byte-identical to the local batch run; the daemon's
 * in-memory artifact cache and its result index (kept in the journal
 * with --cache-dir) just make it fast.
 *
 *   $ ./build/examples/rtdc_client --socket /tmp/rtdc.sock sweep table3
 *   $ ./build/examples/rtdc_client --socket /tmp/rtdc.sock stats
 *   $ ./build/examples/rtdc_client --socket /tmp/rtdc.sock shutdown
 *
 * `selftest` runs the full serve smoke in one process (its own daemon
 * on a private socket): cold sweep == batch bytes, warm resubmit is
 * >=90% index hits and byte-identical, a daemon restarted on the same
 * cache directory serves the hits from the index its journal rebuilt,
 * a poisoned job yields a
 * structured failure row while its siblings complete, and shutdown is
 * clean. CI runs it as the serve_smoke test.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "harness/json.h"
#include "harness/sweeps.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/logging.h"

using namespace rtd;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket PATH COMMAND [options]\n"
        "commands:\n"
        "  ping                 check the daemon is alive\n"
        "  sweep NAME [opts]    run a registered sweep on the daemon\n"
        "    --scale F --out FILE --no-json --observe\n"
        "    --poison SUB       (same meanings as rtdc_sweep)\n"
        "  status ID            progress of sweep ID\n"
        "  stats [--json]       daemon service metrics (pretty; --json\n"
        "                       for the raw reply)\n"
        "  cancel ID            cancel the undone jobs of sweep ID\n"
        "  shutdown             ask the daemon to stop\n"
        "  selftest [--dir D] [--scale F]\n"
        "                       self-contained serve smoke (starts its\n"
        "                       own daemon; no --socket needed)\n",
        argv0);
    std::exit(2);
}

/** Read a whole file; empty string when unreadable (caller checks). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return in ? out.str() : std::string();
}

/** One request/reply op printed as raw JSON; exit code for main. */
int
simpleOp(const std::string &socket, const harness::Json &request)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket, error)) {
        std::fprintf(stderr, "rtdc_client: %s\n", error.c_str());
        return 1;
    }
    harness::Json reply;
    if (!client.call(request, reply, error)) {
        std::fprintf(stderr, "rtdc_client: %s\n", error.c_str());
        return 1;
    }
    std::printf("%s\n", reply.dump().c_str());
    const harness::Json *ok = reply.find("ok");
    return ok && ok->kind() == harness::Json::Kind::Bool && ok->asBool()
               ? 0
               : 1;
}

/**
 * `stats` without --json: the raw reply rendered for humans. Unknown
 * or absent fields are simply skipped, so old daemons stay readable.
 */
void
printStats(const harness::Json &reply)
{
    auto num = [&](const char *key, double fallback = 0.0) {
        const harness::Json *v = reply.find(key);
        return v && v->isNumber() ? v->asDouble() : fallback;
    };
    auto has = [&](const char *key) {
        const harness::Json *v = reply.find(key);
        return v && v->isNumber();
    };
    std::printf("daemon:   up %.0fs, %.2f jobs/s\n",
                num("uptime_seconds"), num("jobs_per_second"));
    std::printf("workers:  %.0f thread(s)\n", num("worker_threads"));
    std::printf("queue:    %.0f queued", num("queue_depth"));
    if (has("high_water") && num("high_water") > 0)
        std::printf(" (high water %.0f)", num("high_water"));
    std::printf(", %.0f running\n", num("running_jobs"));
    std::printf("jobs:     %.0f done, %.0f failed, %.0f from result "
                "index (%.0f sweep(s))\n",
                num("jobs_done"), num("jobs_failed"),
                num("jobs_cached"), num("sweeps_submitted"));
    std::printf("artifact: %.0f hit(s), %.0f build(s)\n",
                num("artifact_hits"), num("artifact_builds"));
    const harness::Json *index = reply.find("result_index");
    if (index) {
        auto inum = [&](const char *key) {
            const harness::Json *v = index->find(key);
            return v && v->isNumber() ? v->asDouble() : 0.0;
        };
        std::printf("index:    %.0f row(s), %.1f MiB, %.0f "
                    "eviction(s)\n",
                    inum("rows"), inum("bytes") / (1024.0 * 1024.0),
                    inum("evictions"));
    }
    const harness::Json *share = reply.find("trace_share");
    if (share) {
        auto snum = [&](const char *key) {
            const harness::Json *v = share->find(key);
            return v && v->isNumber() ? v->asDouble() : 0.0;
        };
        std::printf("traces:   %.0f seeded job(s), %.0f store(s) "
                    "published, %.0f seed(s) rejected, peak %.1f MiB\n",
                    snum("seeded_jobs"), snum("stores_published"),
                    snum("seeds_rejected"),
                    snum("peak_retained_bytes") / (1024.0 * 1024.0));
    }
    const harness::Json *per = reply.find("per_worker");
    if (per && per->kind() == harness::Json::Kind::Array) {
        for (size_t i = 0; i < per->size(); ++i) {
            const harness::Json &row = per->at(i);
            auto wnum = [&](const char *key) {
                const harness::Json *v = row.find(key);
                return v && v->isNumber() ? v->asDouble() : 0.0;
            };
            std::printf("  worker %.0f: %.0f job(s)\n", wnum("worker"),
                        wnum("jobs_completed"));
        }
    }
}

/** The pretty `stats` op; exit code for main. */
int
statsOp(const std::string &socket)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket, error)) {
        std::fprintf(stderr, "rtdc_client: %s\n", error.c_str());
        return 1;
    }
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    harness::Json reply;
    if (!client.call(request, reply, error)) {
        std::fprintf(stderr, "rtdc_client: %s\n", error.c_str());
        return 1;
    }
    const harness::Json *ok = reply.find("ok");
    if (!ok || ok->kind() != harness::Json::Kind::Bool ||
        !ok->asBool()) {
        std::fprintf(stderr, "rtdc_client: daemon refused stats\n");
        return 1;
    }
    printStats(reply);
    return 0;
}

int
runRemoteSweep(const std::string &socket, const std::string &name,
               harness::SweepOptions opts)
{
    serve::Client client;
    std::string error;
    // A bounded connect retry: sweeps are routinely launched right
    // after the daemon forks (scripts, CI), before the socket binds.
    if (!client.connect(socket, error, 5000)) {
        std::fprintf(stderr, "rtdc_client: %s\n", error.c_str());
        return 1;
    }
    serve::RemoteExecutor executor(client);
    opts.executor = &executor;
    int code = harness::runSweep(name, opts);
    std::fprintf(stderr,
                 "rtdc_client: %llu job(s) total, %llu answered from "
                 "the daemon's result index\n",
                 static_cast<unsigned long long>(executor.totalJobs()),
                 static_cast<unsigned long long>(executor.totalCached()));
    return code;
}

/**
 * The serve smoke (see file comment). Returns 0 on pass; prints the
 * first failed check and returns 1 otherwise.
 */
int
selftest(std::string dir, double scale)
{
    if (dir.empty()) {
        char tmpl[] = "/tmp/rtdc_serve_XXXXXX";
        if (!::mkdtemp(tmpl)) {
            std::perror("mkdtemp");
            return 1;
        }
        dir = tmpl;
    }
    const std::string socket = dir + "/daemon.sock";
    const std::string sweepName = "table3";

    auto fail = [](const char *what) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        return 1;
    };

    harness::SweepOptions base;
    base.scale = scale;
    base.jobs = 4;

    // Reference: the plain local batch run.
    harness::SweepOptions ref = base;
    ref.outPath = dir + "/ref.json";
    if (harness::runSweep(sweepName, ref) != 0)
        return fail("local batch sweep errored");
    const std::string refBytes = slurp(ref.outPath);
    if (refBytes.empty())
        return fail("local batch sweep wrote no JSON");

    serve::ServerConfig config;
    config.socketPath = socket;
    config.cacheDir = dir + "/cache";
    config.workers = 4;

    auto server = std::make_unique<serve::Server>(config);
    std::string error;
    if (!server->start(error)) {
        std::fprintf(stderr, "selftest FAILED: start: %s\n",
                     error.c_str());
        return 1;
    }

    // A remote sweep against the given daemon; returns the executor's
    // cached-row fraction through *cachedFrac.
    auto remote = [&](const std::string &out, double *cachedFrac,
                      int *code) {
        serve::Client client;
        std::string err;
        if (!client.connect(socket, err))
            return false;
        serve::RemoteExecutor executor(client);
        harness::SweepOptions opts = base;
        opts.outPath = out;
        opts.executor = &executor;
        *code = harness::runSweep(sweepName, opts);
        *cachedFrac = executor.totalJobs()
                          ? static_cast<double>(executor.totalCached()) /
                                static_cast<double>(executor.totalJobs())
                          : 0.0;
        return true;
    };

    double cachedFrac = 0.0;
    int code = 0;

    // 1. Cold daemon sweep: byte-identical to batch, (almost) nothing
    //    answered from the index.
    if (!remote(dir + "/cold.json", &cachedFrac, &code) || code != 0)
        return fail("cold daemon sweep errored");
    if (slurp(dir + "/cold.json") != refBytes)
        return fail("cold daemon sweep differs from batch bytes");
    std::fprintf(stderr, "selftest: cold sweep byte-identical\n");

    // 2. Warm resubmit: >=90%% index hits, still byte-identical.
    if (!remote(dir + "/warm.json", &cachedFrac, &code) || code != 0)
        return fail("warm daemon sweep errored");
    if (slurp(dir + "/warm.json") != refBytes)
        return fail("warm daemon sweep differs from batch bytes");
    if (cachedFrac < 0.9)
        return fail("warm resubmit answered <90% from the result index");
    std::fprintf(stderr,
                 "selftest: warm resubmit %.0f%% from result index\n",
                 cachedFrac * 100.0);

    // 3. Restart the daemon on the same cache directory: the hits must
    //    come back from the index its journal replay rebuilt.
    server.reset();
    server = std::make_unique<serve::Server>(config);
    if (!server->start(error)) {
        std::fprintf(stderr, "selftest FAILED: restart: %s\n",
                     error.c_str());
        return 1;
    }
    if (!remote(dir + "/restart.json", &cachedFrac, &code) || code != 0)
        return fail("post-restart daemon sweep errored");
    if (slurp(dir + "/restart.json") != refBytes)
        return fail("post-restart sweep differs from batch bytes");
    if (cachedFrac < 0.9)
        return fail("restarted daemon answered <90% from its index");
    std::fprintf(stderr,
                 "selftest: restarted daemon served %.0f%% from its "
                 "index\n",
                 cachedFrac * 100.0);

    // 4. Poisoned jobs become structured failure rows (exit 3, sweep
    //    keeps going) while their healthy siblings still stream fine.
    {
        serve::Client client;
        if (!client.connect(socket, error))
            return fail("connect for poison run");
        serve::RemoteExecutor executor(client);
        std::vector<std::pair<std::string, std::string>> failures;
        harness::SweepOptions opts = base;
        opts.outPath = dir + "/poison.json";
        opts.executor = &executor;
        opts.poisonTag = "/CP+RF";
        opts.failures = &failures;
        int poisonCode = harness::runSweep(sweepName, opts);
        if (poisonCode != 3)
            return fail("poisoned sweep did not exit 3");
        if (failures.empty())
            return fail("poisoned sweep reported no failure rows");
        for (const auto &[tag, why] : failures) {
            if (tag.find("/CP+RF") == std::string::npos)
                return fail("a healthy job failed in the poison run");
            (void)why;
        }
        std::fprintf(stderr,
                     "selftest: %zu poisoned job(s) failed "
                     "structurally, siblings completed\n",
                     failures.size());
    }

    // 5. Clean shutdown via the protocol.
    {
        serve::Client client;
        if (!client.connect(socket, error) || !client.shutdown(error))
            return fail("shutdown op");
    }
    if (!server->waitForShutdownFor(std::chrono::milliseconds(5000)))
        return fail("daemon did not honor the shutdown op");
    server.reset();
    std::fprintf(stderr, "selftest: clean shutdown\n");
    std::fprintf(stderr, "selftest PASSED (dir: %s)\n", dir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    std::string socket;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket") {
            if (i + 1 >= argc)
                usage(argv[0]);
            socket = argv[++i];
        } else {
            args.push_back(std::move(arg));
        }
    }
    if (args.empty())
        usage(argv[0]);
    const std::string &command = args[0];

    if (command == "selftest") {
        std::string dir;
        double scale = 0.03;
        for (size_t i = 1; i < args.size(); ++i) {
            if (args[i] == "--dir" && i + 1 < args.size())
                dir = args[++i];
            else if (args[i] == "--scale" && i + 1 < args.size())
                scale = core::positiveNumber("--scale", args[++i].c_str());
            else
                usage(argv[0]);
        }
        return selftest(dir, scale);
    }

    if (socket.empty())
        usage(argv[0]);

    if (command == "ping" || command == "shutdown") {
        harness::Json request = harness::Json::object();
        request.set("op", command);
        return simpleOp(socket, request);
    }
    if (command == "stats") {
        bool raw = args.size() == 2 && args[1] == "--json";
        if (args.size() > 2 || (args.size() == 2 && !raw))
            usage(argv[0]);
        if (raw) {
            harness::Json request = harness::Json::object();
            request.set("op", "stats");
            return simpleOp(socket, request);
        }
        return statsOp(socket);
    }
    if (command == "status" || command == "cancel") {
        if (args.size() != 2)
            usage(argv[0]);
        harness::Json request = harness::Json::object();
        request.set("op", command);
        request.set("sweep_id", args[1]);
        return simpleOp(socket, request);
    }
    if (command == "sweep") {
        harness::SweepOptions opts = harness::SweepOptions::fromEnv();
        std::string name;
        std::vector<std::string> sweepArgs(args.begin() + 1, args.end());
        // The daemon owns its workers, so --jobs would mean nothing here.
        if (std::find(sweepArgs.begin(), sweepArgs.end(), "--jobs") !=
                sweepArgs.end() ||
            !harness::parseSweepArgs(sweepArgs, opts, name))
            usage(argv[0]);
        return runRemoteSweep(socket, name, opts);
    }
    usage(argv[0]);
}
