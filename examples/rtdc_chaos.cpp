/**
 * @file
 * rtdc_chaos — the service-level chaos harness for the serve stack
 * (DESIGN.md section 17).
 *
 * Where tests/serve exercises the journal and recovery machinery
 * in-process, this binary attacks the *real* service: it forks actual
 * rtdc_serve daemons on private sockets, then kills them with SIGKILL
 * mid-sweep, scribbles garbage over the journal tail, arms the fsio
 * fault shim (disk-full and torn writes) through the environment, and
 * drops client connections mid-stream — all from seeded scenarios that
 * replay exactly from a --seed. After every attack the scenario asserts
 * full recovery: no hang (a watchdog aborts the run), no lost rows, no
 * duplicated rows, and every row byte-identical (modulo wall-clock) to
 * a local batch execution of the same jobs.
 *
 * Modes:
 *
 *   rtdc_chaos [--scenarios N] [--seed S] [--dir D] [--serve-bin P]
 *       run N seeded scenarios drawn from the four attack families
 *       (default 50); exit 0 only if every one recovers.
 *
 *   rtdc_chaos --matrix-kill [--scale F] [--seed S] ...
 *       the flagship: run the full registered matrix sweep through a
 *       daemon, SIGKILL the daemon mid-sweep, restart it on the same
 *       cache directory, and require the resumed client's output file
 *       to be byte-identical to the local batch run — *and* that the
 *       restart really did replay the journal (recovered_sweeps >= 1).
 *
 *   rtdc_chaos --replay-bench [--dir D]
 *       measure cold journal-replay wall-clock against synthetic
 *       journals of increasing sweep size (the EXPERIMENTS.md
 *       recovery-time row).
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/json.h"
#include "harness/runner.h"
#include "harness/sweeps.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/logging.h"
#include "support/rng.h"
#include "workload/benchmarks.h"

using namespace rtd;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [mode] [options]\n"
        "  (default)          run the seeded scenario matrix\n"
        "  --matrix-kill      kill -9 a daemon mid-matrix-sweep, "
        "restart, resume,\n"
        "                     and require byte-identity with the local "
        "batch run\n"
        "  --replay-bench     time cold journal replay vs sweep size\n"
        "options:\n"
        "  --scenarios N      scenario count for the matrix "
        "(default: 50)\n"
        "  --seed S           root seed (default: 1)\n"
        "  --scale F          matrix sweep scale for --matrix-kill "
        "(default: 0.02)\n"
        "  --dir D            working directory (default: mkdtemp)\n"
        "  --serve-bin P      rtdc_serve binary (default: next to "
        "this binary)\n",
        argv0);
    std::exit(2);
}

// ---------------------------------------------------------------------
// Watchdog: "no hangs" is an assertion, not a hope. Every scenario arms
// a deadline before it starts; if the main thread has not re-armed or
// disarmed it by then, the whole process aborts with a distinct exit
// code (so CI reports a hang as a hang, not a timeout of unknown
// provenance).
// ---------------------------------------------------------------------

std::atomic<int64_t> g_deadlineMs{INT64_MAX};
std::atomic<int> g_scenarioIndex{-1};

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
armWatchdog(int64_t budget_ms)
{
    g_deadlineMs.store(nowMs() + budget_ms);
}

void
disarmWatchdog()
{
    g_deadlineMs.store(INT64_MAX);
}

void
watchdogLoop()
{
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        if (nowMs() > g_deadlineMs.load()) {
            std::fprintf(stderr,
                         "rtdc_chaos: HANG — scenario %d missed its "
                         "deadline\n",
                         g_scenarioIndex.load());
            std::_Exit(4);
        }
    }
}

// ---------------------------------------------------------------------
// Daemon process control
// ---------------------------------------------------------------------

/**
 * Fork+exec a real rtdc_serve. stdout/stderr go to @p log_path
 * (appended — a restarted daemon's recovery banner lands in the same
 * file). @p fault_env, when non-empty, becomes RTDC_FSIO_FAULT in the
 * child, arming the fsio shim across the exec.
 */
pid_t
spawnDaemon(const std::string &serve_bin, const std::string &socket,
            const std::string &cache_dir, unsigned threads,
            const std::string &fault_env, const std::string &log_path)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
    if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
    }
    if (!fault_env.empty())
        ::setenv("RTDC_FSIO_FAULT", fault_env.c_str(), 1);
    else
        ::unsetenv("RTDC_FSIO_FAULT");
    std::string threads_s = std::to_string(threads);
    std::vector<const char *> argv = {
        serve_bin.c_str(), "--socket", socket.c_str(),
        "--cache-dir",     cache_dir.c_str(),
        "--jobs",          threads_s.c_str(),
        nullptr,
    };
    ::execv(serve_bin.c_str(),
            const_cast<char *const *>(argv.data()));
    std::_Exit(127);
}

/** SIGKILL @p pid and reap it (kill -9 is the whole point: no cleanup
 *  handler in the daemon runs, exactly like a crash). */
void
kill9(pid_t pid)
{
    if (pid <= 0)
        return;
    ::kill(pid, SIGKILL);
    int status;
    ::waitpid(pid, &status, 0);
}

/** Ask the daemon to stop via the protocol, then reap (SIGKILL after a
 *  bounded grace period — a scenario must never wedge on cleanup). */
void
stopDaemon(const std::string &socket, pid_t pid)
{
    if (pid <= 0)
        return;
    {
        serve::Client client;
        std::string error;
        if (client.connect(socket, error, 1000))
            client.shutdown(error);
    }
    for (int i = 0; i < 100; ++i) {
        int status;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill9(pid);
}

/** One stats round trip; false when the daemon is unreachable. */
bool
fetchStats(const std::string &socket, harness::Json &reply)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket, error))
        return false;
    harness::Json request = harness::Json::object();
    request.set("op", "stats");
    return client.call(request, reply, error);
}

int64_t
statNum(const harness::Json &stats, const char *key)
{
    const harness::Json *v = stats.find(key);
    return v && v->isNumber() ? v->asInt() : -1;
}

// ---------------------------------------------------------------------
// Job construction and row comparison
// ---------------------------------------------------------------------

/** A small deterministic job; @p seed picks the simulation point. */
harness::Job
tinyJob(uint64_t seed)
{
    static const compress::Scheme kSchemes[] = {
        compress::Scheme::None,
        compress::Scheme::Dictionary,
        compress::Scheme::CodePack,
    };
    compress::Scheme scheme = kSchemes[seed % 3];
    harness::Job job;
    job.tag = "chaos/" + std::to_string(seed) + "/" +
              compress::schemeName(scheme);
    job.workload = workload::tinySpec(seed);
    job.config.cpu = core::paperMachine(4 * 1024);
    job.config.scheme = scheme;
    return job;
}

/** @p count jobs whose seeds derive from @p rng (distinct per
 *  scenario, so every scenario's cache directory starts cold). */
std::vector<harness::Job>
buildJobs(Rng &rng, size_t count)
{
    std::vector<harness::Job> jobs;
    jobs.reserve(count);
    uint64_t base = rng.next() % 1000000;
    for (size_t i = 0; i < count; ++i)
        jobs.push_back(tinyJob(base + i));
    return jobs;
}

/** The ground truth: every job executed locally, in-process. */
std::vector<harness::JobResult>
localReference(const std::vector<harness::Job> &jobs)
{
    harness::ArtifactCache cache;
    std::vector<harness::JobResult> results;
    results.reserve(jobs.size());
    for (const harness::Job &job : jobs)
        results.push_back(harness::executeJob(job, cache));
    return results;
}

/** Canonical encoding with the only host-dependent field masked. */
std::string
rowKey(const harness::JobResult &row)
{
    harness::JobResult masked = row;
    masked.wallSeconds = 0.0;
    return serve::encodeJobResult(masked).dump();
}

/**
 * The zero-lost / zero-duplicated / byte-identical assertion: every
 * remote row arrived (a lost row keeps RemoteExecutor's structured
 * "never arrived" failure), and each one encodes identically to the
 * local execution of the same job (a duplicated or cross-wired row
 * would land in the wrong index and mismatch).
 */
bool
sameRows(const std::vector<harness::JobResult> &remote,
         const std::vector<harness::JobResult> &local, std::string &why)
{
    if (remote.size() != local.size()) {
        why = "row count mismatch";
        return false;
    }
    for (size_t i = 0; i < remote.size(); ++i) {
        if (!remote[i].ok) {
            why = "row " + std::to_string(i) +
                  " lost or failed: " + remote[i].error;
            return false;
        }
        if (rowKey(remote[i]) != rowKey(local[i])) {
            why = "row " + std::to_string(i) +
                  " differs from local execution";
            return false;
        }
    }
    return true;
}

/** Run @p jobs through the daemon at @p socket with the real
 *  reconnect-and-resume client path. */
std::vector<harness::JobResult>
remoteRun(const std::string &socket,
          const std::vector<harness::Job> &jobs)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket, error, 10000)) {
        std::vector<harness::JobResult> lost(jobs.size());
        for (harness::JobResult &row : lost) {
            row.ok = false;
            row.error = "connect: " + error;
        }
        return lost;
    }
    serve::RemoteExecutor executor(client);
    harness::ArtifactCache unused;
    return executor.run("chaos", jobs, unused);
}

// ---------------------------------------------------------------------
// Scenario matrix
// ---------------------------------------------------------------------

struct Options
{
    std::string dir;
    std::string serveBin;
    size_t scenarios = 50;
    uint64_t seed = 1;
    double scale = 0.02;
};

const char *const kFamilyNames[] = {
    "daemon-kill9", "torn-journal", "fsio-fault", "client-drop",
};

/**
 * The killer thread for the kill-style families: poll the daemon's
 * jobs_done until the sweep is visibly mid-flight (>= @p threshold rows
 * done), SIGKILL it, optionally corrupt the journal tail, and start a
 * replacement daemon on the same socket + cache directory. If the sweep
 * finishes before the threshold trips, kill anyway — recovery of a
 * *complete* journal is a scenario too (every row comes back from the
 * journal).
 */
void
killAndRestart(const Options &opt, const std::string &socket,
               const std::string &cache_dir, const std::string &log,
               pid_t &pid, int64_t threshold, unsigned garbage_bytes,
               uint64_t garbage_seed, const std::string &fault_env,
               std::atomic<bool> &client_done)
{
    int64_t done = -1;
    for (int i = 0; i < 4000 && !client_done.load(); ++i) {
        harness::Json stats;
        if (fetchStats(socket, stats)) {
            done = statNum(stats, "jobs_done");
            if (done >= threshold)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill9(pid);
    if (garbage_bytes > 0) {
        // A torn tail the hard way: raw garbage appended to the live
        // journal, as if the kernel had flushed half a page of someone
        // else's memory. Replay must stop at the tear and truncate.
        std::ofstream out(cache_dir + "/journal.rtdj",
                          std::ios::binary | std::ios::app);
        Rng rng(garbage_seed | 1);
        for (unsigned i = 0; i < garbage_bytes; ++i)
            out.put(static_cast<char>(rng.next() & 0xff));
    }
    pid = spawnDaemon(opt.serveBin, socket, cache_dir, 2, fault_env, log);
}

/** One seeded scenario. True on full recovery; @p why explains a
 *  failure. @p exercised reports whether the restart actually replayed
 *  journal state (vs the kill landing after completion). */
bool
runScenario(const Options &opt, int index, uint64_t seed,
            std::string &why, bool &exercised)
{
    Rng rng(seed);
    int family = static_cast<int>(rng.nextBelow(4));
    std::string dir = opt.dir + "/sc" + std::to_string(index);
    ::mkdir(dir.c_str(), 0775);
    std::string socket = dir + "/d.sock";
    std::string cache_dir = dir + "/cache";
    std::string log = dir + "/daemon.log";
    std::fprintf(stderr, "rtdc_chaos: scenario %d seed %llu [%s]\n",
                 index, static_cast<unsigned long long>(seed),
                 kFamilyNames[family]);

    bool kills_daemon = family != 3;
    size_t job_count = kills_daemon ? 96 : 32;
    std::vector<harness::Job> jobs = buildJobs(rng, job_count);
    std::vector<harness::JobResult> local = localReference(jobs);

    std::string fault_env;
    if (family == 2) {
        // Disk misbehavior: the Nth write-class op fails, and every
        // Mth after it. mode=short leaves torn records behind — the
        // nastier half of the family.
        uint64_t after = 1 + rng.nextBelow(40);
        uint64_t every = rng.nextBelow(2) ? 2 + rng.nextBelow(7) : 0;
        const char *mode = rng.nextBelow(2) ? "short" : "enospc";
        fault_env = "after=" + std::to_string(after) +
                    ",every=" + std::to_string(every) +
                    ",mode=" + mode;
    }

    pid_t pid = spawnDaemon(opt.serveBin, socket, cache_dir, 2, fault_env,
                            log);
    if (pid < 0) {
        why = "fork failed";
        return false;
    }

    bool ok = false;
    exercised = false;
    std::atomic<bool> client_done{false};
    std::thread attacker;

    if (kills_daemon) {
        int64_t threshold =
            1 + static_cast<int64_t>(rng.nextBelow(job_count / 2));
        unsigned garbage =
            family == 1 ? 1 + static_cast<unsigned>(rng.nextBelow(64))
                        : 0;
        // family 2 keeps its fault plan across the restart: recovery
        // itself must survive the same bad disk.
        attacker = std::thread([&, threshold, garbage] {
            killAndRestart(opt, socket, cache_dir, log, pid, threshold,
                           garbage, seed ^ 0x9e3779b97f4a7c15ull,
                           fault_env, client_done);
        });
        std::vector<harness::JobResult> remote =
            remoteRun(socket, jobs);
        client_done.store(true);
        attacker.join();
        ok = sameRows(remote, local, why);
        harness::Json stats;
        if (ok && fetchStats(socket, stats))
            exercised = statNum(stats, "recovered_sweeps") > 0;
    } else {
        // family 3: the client is the unreliable party. Submit, read a
        // few rows, drop the connection mid-stream, then come back as
        // a brand-new client: the content-derived sweep id attaches to
        // the same sweep and the full row stream must still be
        // complete and correct.
        serve::Client first;
        std::string error;
        std::string sweep_id;
        uint64_t cached = 0;
        if (!first.connect(socket, error, 10000) ||
            !first.submit("chaos", jobs, sweep_id, cached, error)) {
            why = "initial submit: " + error;
        } else {
            harness::Json request = harness::Json::object();
            request.set("op", "results");
            request.set("sweep_id", sweep_id);
            first.channel()->writeJson(request);
            size_t partial = rng.nextBelow(8);
            for (size_t i = 0; i < partial; ++i) {
                harness::Json row;
                if (!first.channel()->readJson(row, error))
                    break;
            }
            // ~first closes the socket mid-stream right here.
        }
        std::vector<harness::JobResult> remote =
            remoteRun(socket, jobs);
        ok = sameRows(remote, local, why);
        exercised = true;  // the drop itself is the exercise
    }

    stopDaemon(socket, pid);
    if (!ok)
        std::fprintf(stderr,
                     "rtdc_chaos: scenario %d FAILED [%s]: %s "
                     "(log: %s)\n",
                     index, kFamilyNames[family], why.c_str(),
                     log.c_str());
    return ok;
}

int
runMatrix(const Options &opt)
{
    Rng root(opt.seed ? opt.seed : 1);
    size_t failed = 0, exercised_count = 0;
    for (size_t i = 0; i < opt.scenarios; ++i) {
        g_scenarioIndex.store(static_cast<int>(i));
        armWatchdog(120000);
        std::string why;
        bool exercised = false;
        uint64_t seed = root.next();
        if (!runScenario(opt, static_cast<int>(i), seed, why,
                         exercised))
            ++failed;
        else if (exercised)
            ++exercised_count;
    }
    disarmWatchdog();
    std::printf("rtdc_chaos: %zu scenario(s), %zu failed, %zu "
                "exercised recovery/restart machinery\n",
                opt.scenarios, failed, exercised_count);
    return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --matrix-kill: the acceptance flagship
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return in ? out.str() : std::string();
}

int
runMatrixKill(const Options &opt)
{
    g_scenarioIndex.store(0);
    armWatchdog(600000);
    std::string socket = opt.dir + "/d.sock";
    std::string cache_dir = opt.dir + "/cache";
    std::string log = opt.dir + "/daemon.log";

    // Ground truth: the plain local batch run of the matrix sweep.
    harness::SweepOptions base;
    base.scale = opt.scale;
    base.jobs = 4;
    harness::SweepOptions ref = base;
    ref.outPath = opt.dir + "/ref.json";
    if (harness::runSweep("matrix", ref) != 0) {
        std::fprintf(stderr, "rtdc_chaos: local matrix sweep errored\n");
        return 1;
    }
    std::string ref_bytes = slurp(ref.outPath);

    pid_t pid = spawnDaemon(opt.serveBin, socket, cache_dir, 4, "", log);
    Rng rng(opt.seed ? opt.seed : 1);
    // Kill once the sweep is visibly mid-flight but nowhere near done;
    // low threshold = the kill lands even on fast machines.
    int64_t threshold = 5 + static_cast<int64_t>(rng.nextBelow(40));
    std::atomic<bool> client_done{false};
    std::thread killer([&] {
        killAndRestart(opt, socket, cache_dir, log, pid, threshold, 0,
                       0, "", client_done);
    });

    serve::Client client;
    std::string error;
    int code = 1;
    if (client.connect(socket, error, 10000)) {
        serve::RemoteExecutor executor(client);
        harness::SweepOptions remote = base;
        remote.outPath = opt.dir + "/daemon.json";
        remote.executor = &executor;
        code = harness::runSweep("matrix", remote);
    } else {
        std::fprintf(stderr, "rtdc_chaos: connect: %s\n",
                     error.c_str());
    }
    client_done.store(true);
    killer.join();

    bool identical = code == 0 &&
                     slurp(opt.dir + "/daemon.json") == ref_bytes &&
                     !ref_bytes.empty();
    harness::Json stats;
    int64_t recovered = -1, requeued = -1;
    if (fetchStats(socket, stats)) {
        recovered = statNum(stats, "recovered_sweeps");
        requeued = statNum(stats, "requeued_jobs");
    }
    stopDaemon(socket, pid);
    disarmWatchdog();

    if (!identical) {
        std::fprintf(stderr,
                     "rtdc_chaos: matrix-kill FAILED — resumed output "
                     "differs from batch (exit %d, log: %s)\n",
                     code, log.c_str());
        return 1;
    }
    if (recovered < 1) {
        std::fprintf(stderr,
                     "rtdc_chaos: matrix-kill FAILED — restart did not "
                     "report a recovered sweep (the kill missed?)\n");
        return 1;
    }
    std::printf("rtdc_chaos: matrix-kill PASSED — kill -9 at >=%lld "
                "rows, %lld sweep(s) recovered, %lld job(s) requeued, "
                "output byte-identical to batch\n",
                static_cast<long long>(threshold),
                static_cast<long long>(recovered),
                static_cast<long long>(requeued));
    return 0;
}

// ---------------------------------------------------------------------
// --replay-bench: cold-recovery wall-clock vs sweep size
// ---------------------------------------------------------------------

int
runReplayBench(const Options &opt)
{
    std::printf("journal cold-replay wall-clock (synthetic sweeps, "
                "all rows journaled as done):\n");
    std::printf("%10s %12s %14s %12s\n", "jobs", "records",
                "journal_bytes", "replay_ms");
    for (size_t jobs_n : {192, 960, 4800}) {
        std::string dir =
            opt.dir + "/bench" + std::to_string(jobs_n);
        ::mkdir(dir.c_str(), 0775);
        std::string cache_dir = dir + "/cache";
        ::mkdir(cache_dir.c_str(), 0775);

        // Synthesize exactly what a killed daemon leaves behind: one
        // SweepBegin and a JobDone per completed row.
        std::vector<harness::Job> jobs;
        for (size_t i = 0; i < jobs_n; ++i)
            jobs.push_back(tinyJob(i));
        harness::Json encoded = harness::Json::array();
        for (const harness::Job &job : jobs)
            encoded.push(serve::encodeJob(job));
        std::vector<std::string> job_json;
        for (const harness::Json &job : encoded.items())
            job_json.push_back(job.dump());
        std::string id = serve::sweepContentId("bench", job_json);
        {
            serve::Journal journal;
            std::string error;
            if (!journal.open(cache_dir + "/journal.rtdj", {}, error)) {
                std::fprintf(stderr, "rtdc_chaos: %s\n", error.c_str());
                return 1;
            }
            harness::Json begin = harness::Json::object();
            begin.set("id", id);
            begin.set("label", std::string("bench"));
            begin.set("jobs", std::move(encoded));
            journal.append(serve::Journal::kSweepBegin, begin);
            harness::JobResult row;
            row.wallSeconds = 0.25;
            harness::Json result = serve::encodeJobResult(row);
            for (size_t i = 0; i < jobs_n; ++i) {
                harness::Json done = harness::Json::object();
                done.set("id", id);
                done.set("index", uint64_t(i));
                done.set("cached", false);
                done.set("result", result);
                journal.append(serve::Journal::kJobDone, done);
            }
        }
        struct stat st;
        uint64_t bytes =
            ::stat((cache_dir + "/journal.rtdj").c_str(), &st) == 0
                ? static_cast<uint64_t>(st.st_size)
                : 0;

        // Time a real daemon start on that directory: open + replay
        // into the index + requeue + checkpoint compaction.
        serve::ServerConfig config;
        config.socketPath = dir + "/d.sock";
        config.cacheDir = cache_dir;
        config.workers = 2;
        serve::Server server(config);
        std::string error;
        auto start = std::chrono::steady_clock::now();
        if (!server.start(error)) {
            std::fprintf(stderr, "rtdc_chaos: %s\n", error.c_str());
            return 1;
        }
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        server.stop();
        std::printf("%10zu %12zu %14llu %12.1f\n", jobs_n, jobs_n + 1,
                    static_cast<unsigned long long>(bytes),
                    elapsed.count());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    Options opt;
    enum Mode
    {
        Matrix,
        MatrixKill,
        ReplayBench,
    } mode = Matrix;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Whole-string counts: "4x", "abc" or "-1" is a usage error.
        auto count = [&] {
            const char *text = next();
            uint64_t value = 0;
            if (!core::parseCount(text, SIZE_MAX, value)) {
                std::fprintf(stderr, "rtdc_chaos: bad %s '%s'\n",
                             arg.c_str(), text);
                usage(argv[0]);
            }
            return value;
        };
        if (arg == "--matrix-kill")
            mode = MatrixKill;
        else if (arg == "--replay-bench")
            mode = ReplayBench;
        else if (arg == "--scenarios")
            opt.scenarios = static_cast<size_t>(count());
        else if (arg == "--seed")
            opt.seed = count();
        else if (arg == "--scale")
            opt.scale = core::positiveNumber("--scale", next());
        else if (arg == "--dir")
            opt.dir = next();
        else if (arg == "--serve-bin")
            opt.serveBin = next();
        else
            usage(argv[0]);
    }
    if (opt.dir.empty()) {
        char tmpl[] = "/tmp/rtdc_chaos_XXXXXX";
        if (!::mkdtemp(tmpl)) {
            std::perror("mkdtemp");
            return 1;
        }
        opt.dir = tmpl;
    } else {
        // Every scenario works under DIR: make it (and its parents) up
        // front, so a missing DIR fails here, named, before any daemon.
        std::error_code ec;
        std::filesystem::create_directories(opt.dir, ec);
        if (ec) {
            std::fprintf(stderr, "rtdc_chaos: cannot create --dir %s: %s\n",
                         opt.dir.c_str(), ec.message().c_str());
            return 1;
        }
    }
    if (opt.serveBin.empty()) {
        // Default: rtdc_serve sits next to this binary.
        std::string self = argv[0];
        size_t slash = self.rfind('/');
        opt.serveBin = (slash == std::string::npos
                            ? std::string(".")
                            : self.substr(0, slash)) +
                       "/rtdc_serve";
    }
    if (::access(opt.serveBin.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "rtdc_chaos: no rtdc_serve at %s\n",
                     opt.serveBin.c_str());
        return 1;
    }
    std::fprintf(stderr, "rtdc_chaos: dir %s\n", opt.dir.c_str());

    std::thread watchdog(watchdogLoop);
    watchdog.detach();

    switch (mode) {
    case MatrixKill:
        return runMatrixKill(opt);
    case ReplayBench:
        return runReplayBench(opt);
    case Matrix:
    default:
        return runMatrix(opt);
    }
}
