/**
 * @file
 * rtdc_bench: the repository benchmark's measuring process.
 *
 * It runs one named workload for a fixed time and prints one JSON line
 * (on the original stdout; the sweeps' own tables go to /dev/null) that
 * run.py turns into the benchmark result. It drives the simulator only
 * through public seams: the registered sweeps with SweepOptions::
 * executor, harness::ArtifactCache, core::System, serve::Server and
 * serve::Client.
 *
 * Workloads (why each exists is in BENCHMARK.json):
 *  - paper-sim        registered table3 sweep, scale 1, batch
 *  - selective-build  registered figure5 sweep, scale 0.05, batch
 *  - serve-matrix     MatrixAxes::defaults() at scale 0.05 through an
 *                     in-process serve::Server (thread mode, journal on)
 *
 * Every pass starts cold: batch sweeps build a fresh ArtifactCache per
 * pass (the registered sweep functions own it), and the serve workload
 * starts a fresh server on an empty directory. --seed offsets every
 * WorkloadSpec::seed, so one seed always yields the same programs.
 *
 * Untraced runs (the default) give the end-to-end metrics. --traced
 * alternates traced and untraced passes: traced batch passes run the
 * jobs through TracedRunner, which spans each layer call of every job;
 * the serve workload additionally spans Server::start, Client::submit
 * and Client::fetchResults and runs its job list once more through
 * TracedRunner for the layer split. The spans stay in memory and are
 * written at exit as a Chrome trace with one track per worker thread.
 *
 * Correctness: every row of every pass is hashed from
 * serve::encodeSystemResult (no wall times), and all passes must agree
 * row for row; run.py compares the first pass against the digest
 * pinned for the workload, scale and seed.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/system.h"
#include "harness/artifact_cache.h"
#include "harness/job.h"
#include "harness/json.h"
#include "harness/matrix.h"
#include "harness/runner.h"
#include "harness/sweeps.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/logging.h"
#include "workload/benchmarks.h"

#ifndef RTDC_BENCH_COMPILER
#define RTDC_BENCH_COMPILER "unknown"
#endif
#ifndef RTDC_BENCH_BUILD_TYPE
#define RTDC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rtd;
using harness::ArtifactCache;
using harness::Job;
using harness::JobResult;
using harness::Json;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Seconds since process start (the trace's time base). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "rtdc_bench: %s\n", message.c_str());
    std::exit(2);
}

/** Linear-interpolated quantile (0 for an empty sample). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

// ---------------------------------------------------------------------
// Options and workloads
// ---------------------------------------------------------------------

enum class Kind
{
    Sweep,  ///< a registered batch sweep
    Serve,  ///< the matrix through an in-process daemon
};

struct Workload
{
    const char *name;
    Kind kind;
    const char *sweep;  ///< registered sweep name (Kind::Sweep)
    double scale;
};

const Workload kWorkloads[] = {
    {"paper-sim", Kind::Sweep, "table3", 1.0},
    {"selective-build", Kind::Sweep, "figure5", 0.05},
    {"serve-matrix", Kind::Serve, nullptr, 0.05},
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    unsigned threads = 2;
    double scale = 0.0;        ///< 0 = the workload's own scale
    unsigned passes = 0;       ///< fixed pass count; 0 = time-based
    unsigned setupReps = 7;
    unsigned resubmits = 20;   ///< warm resubmits per serve pass
    unsigned restarts = 3;     ///< restarts + resubmit per serve pass
    std::string workDir = ".bench_build/work";
    std::string traceOut;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            o.seed = std::stoull(value());
        else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--traced")
            o.traced = true;
        else if (arg == "--threads")
            o.threads = unsigned(std::stoul(value()));
        else if (arg == "--scale")
            o.scale = std::stod(value());
        else if (arg == "--passes")
            o.passes = unsigned(std::stoul(value()));
        else if (arg == "--setup-reps")
            o.setupReps = unsigned(std::stoul(value()));
        else if (arg == "--resubmits")
            o.resubmits = unsigned(std::stoul(value()));
        else if (arg == "--restarts")
            o.restarts = unsigned(std::stoul(value()));
        else if (arg == "--work-dir")
            o.workDir = value();
        else if (arg == "--trace-out")
            o.traceOut = value();
        else
            die("unknown argument " + arg);
    }
    for (const Workload &w : kWorkloads) {
        if (workload == w.name)
            o.workload = &w;
    }
    if (!o.workload)
        die("unknown workload '" + workload + "'");
    if (o.scale <= 0)
        o.scale = o.workload->scale;
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    o.threads = std::clamp(o.threads, 1u, cores);
    o.setupReps = std::max(1u, o.setupReps);
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

Json
hostFingerprint(const Options &o)
{
    Json host = Json::object();
    host.set("nproc", std::thread::hardware_concurrency());
    host.set("cpu", cpuModel());
    host.set("compiler", RTDC_BENCH_COMPILER);
    host.set("build_type", RTDC_BENCH_BUILD_TYPE);
    host.set("threads", o.threads);
    host.set("scale", o.scale);
    host.set("workload", o.workload->name);
    host.set("seed", o.seed);
    return host;
}

/** The workload's jobs with every WorkloadSpec::seed offset by @p seed. */
std::vector<Job>
offsetSeeds(const std::vector<Job> &jobs, uint64_t seed)
{
    std::vector<Job> out = jobs;
    for (Job &job : out)
        job.workload.seed += seed;
    return out;
}

/** The programs every workload generates: the paper benchmarks at the
 *  workload's scale (table3, figure5 and the matrix all use these). */
std::vector<workload::WorkloadSpec>
workloadSpecs(const Options &o)
{
    std::vector<workload::WorkloadSpec> specs;
    for (const auto &benchmark : workload::paperBenchmarks()) {
        specs.push_back(workload::scaledSpec(benchmark, o.scale));
        specs.back().seed += o.seed;
    }
    return specs;
}

// ---------------------------------------------------------------------
// Rows: what every pass produced, hashed for the correctness gate
// ---------------------------------------------------------------------

uint64_t
rowHash(const JobResult &row)
{
    if (!row.ok)
        return harness::stableHash64("failed|" + row.error);
    return harness::stableHash64(
        serve::encodeSystemResult(row.result).dump());
}

/** Job list + rows of one pass, in sweep order across executor calls. */
struct PassRows
{
    std::vector<Job> jobs;
    std::vector<JobResult> rows;

    void add(const std::vector<Job> &j, const std::vector<JobResult> &r)
    {
        jobs.insert(jobs.end(), j.begin(), j.end());
        rows.insert(rows.end(), r.begin(), r.end());
    }
};

/**
 * Every pass's rows must hash equal, row for row, to the first pass's.
 * The first divergence is kept by tag so a failure names the job.
 */
class DigestCheck
{
  public:
    void check(const std::vector<Job> &jobs,
               const std::vector<JobResult> &rows)
    {
        std::vector<uint64_t> hashes;
        hashes.reserve(rows.size());
        for (const JobResult &row : rows)
            hashes.push_back(rowHash(row));
        if (!haveReference_) {
            for (const Job &job : jobs)
                tags_.push_back(job.tag);
            reference_ = std::move(hashes);
            haveReference_ = true;
            return;
        }
        ++compared_;
        if (!firstDivergence_.empty())
            return;
        if (hashes.size() != reference_.size()) {
            firstDivergence_ = "(row count " +
                               std::to_string(hashes.size()) + " vs " +
                               std::to_string(reference_.size()) + ")";
            return;
        }
        for (size_t i = 0; i < hashes.size(); ++i) {
            if (hashes[i] != reference_[i] || jobs[i].tag != tags_[i]) {
                firstDivergence_ = jobs[i].tag;
                return;
            }
        }
    }

    bool consistent() const { return firstDivergence_.empty(); }
    unsigned compared() const { return compared_; }
    const std::string &firstDivergence() const { return firstDivergence_; }

    /** [[tag, hex hash], ...] of the reference pass. */
    Json rowsJson() const
    {
        Json out = Json::array();
        for (size_t i = 0; i < tags_.size(); ++i) {
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016" PRIx64, reference_[i]);
            Json pair = Json::array();
            pair.push(tags_[i]);
            pair.push(std::string(hex));
            out.push(std::move(pair));
        }
        return out;
    }

  private:
    bool haveReference_ = false;
    std::vector<std::string> tags_;
    std::vector<uint64_t> reference_;
    std::string firstDivergence_;
    unsigned compared_ = 0;
};

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

constexpr uint32_t kNone = ~0u;

struct Span
{
    const char *name;
    const char *bucket;  ///< scheme bucket of build/run spans, or null
    uint32_t id;
    uint32_t parent;
    uint32_t job;        ///< index into Tracer::tags(), or kNone
    uint16_t track;      ///< 0 = main thread, N = worker N
    double start;
    double end;

    double seconds() const { return end - start; }
};

/**
 * In-memory span store. Each track is appended to by one thread at a
 * time (worker threads are joined before their track is reused), so
 * recording takes no lock; ids come from one atomic counter.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned workers) : tracks_(workers + 1) {}

    uint32_t newId() { return nextId_.fetch_add(1); }

    void record(const Span &span) { tracks_[span.track].push_back(span); }

    /** Register a job tag (main thread only, before workers start). */
    uint32_t addTag(const std::string &tag)
    {
        tags_.push_back(tag);
        return uint32_t(tags_.size() - 1);
    }

    const std::vector<std::vector<Span>> &tracks() const { return tracks_; }
    const std::vector<std::string> &tags() const { return tags_; }

  private:
    std::vector<std::vector<Span>> tracks_;
    std::vector<std::string> tags_;
    std::atomic<uint32_t> nextId_{1};
};

/** RAII span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, uint16_t track, const char *name,
              uint32_t parent = kNone, uint32_t job = kNone,
              const char *bucket = nullptr)
        : tracer_(tracer)
    {
        span_ = {name, bucket, tracer ? tracer->newId() : kNone,
                 parent,  job,    track, now(), 0.0};
    }

    ~SpanScope()
    {
        if (tracer_) {
            span_.end = now();
            tracer_->record(span_);
        }
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return span_.id; }
    double start() const { return span_.start; }

  private:
    Tracer *tracer_;
    Span span_;
};

const char *
codeBucket(compress::Scheme scheme)
{
    switch (scheme) {
    case compress::Scheme::None:
        return "native";
    case compress::Scheme::Dictionary:
        return "dictionary";
    case compress::Scheme::CodePack:
        return "codepack";
    default:
        return "other";
    }
}

const char *
runBucket(const core::SystemConfig &config)
{
    if (config.dataCompression != core::DataCompression::Off)
        return "dmem";
    return codeBucket(config.scheme);
}

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

/** Where an executor appends the current pass's jobs and rows. */
class PassExecutor : public harness::JobExecutor
{
  public:
    void setPass(PassRows *pass) { pass_ = pass; }

  protected:
    PassRows *pass_ = nullptr;
};

/** Untraced: offset the seeds, run on the stock SweepRunner. */
class SeededRunner : public PassExecutor
{
  public:
    explicit SeededRunner(const Options &o) : o_(o) {}

    std::vector<JobResult> run(const std::string &label,
                               const std::vector<Job> &jobs,
                               ArtifactCache &cache) override
    {
        std::vector<Job> seeded = offsetSeeds(jobs, o_.seed);
        std::vector<JobResult> rows =
            harness::SweepRunner(o_.threads).run(label, seeded, cache);
        pass_->add(seeded, rows);
        return rows;
    }

  private:
    const Options &o_;
};

/** RunStats totals over the rows of traced passes. */
struct LayerCounts
{
    uint64_t userInsns = 0;
    uint64_t handlerInsns = 0;
    uint64_t exceptions = 0;
    uint64_t icacheMisses = 0;
    uint64_t dmemFaults = 0;
    uint64_t dmemDecompressedBytes = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheBuilds = 0;
};

/**
 * Traced: the same jobs in the same FIFO order on the same number of
 * threads as SweepRunner, but each job's layer calls are made here so
 * they can be spanned: ArtifactCache::program, ArtifactCache::
 * builtImage, the System constructor, System::run and the System
 * destructor.
 *
 * A call builds when this thread is the first to claim its content key
 * in the current pass; any other call of the same key hit the cache or
 * waited on the thread that builds it, and is spanned as a wait.
 */
class TracedRunner : public PassExecutor
{
  public:
    TracedRunner(const Options &o, Tracer &tracer) : o_(o), tracer_(tracer)
    {
    }

    /** Forget the previous pass's claims (each pass has a fresh cache). */
    void beginPass(PassRows *pass, uint32_t passSpan)
    {
        setPass(pass);
        claims_.clear();
        passSpan_ = passSpan;
    }

    std::vector<JobResult> run(const std::string &label,
                               const std::vector<Job> &jobs,
                               ArtifactCache &cache) override
    {
        std::vector<Job> seeded = offsetSeeds(jobs, o_.seed);
        std::vector<uint32_t> tags;
        for (const Job &job : seeded)
            tags.push_back(tracer_.addTag(job.tag));
        std::vector<JobResult> rows(seeded.size());

        uint64_t hits = cache.hits();
        uint64_t builds = cache.builds();
        {
            SpanScope call(&tracer_, 0, "harness.run", passSpan_);
            std::atomic<size_t> next{0};
            std::vector<std::thread> workers;
            for (unsigned t = 0; t < o_.threads; ++t) {
                workers.emplace_back([&, t] {
                    for (size_t i; (i = next.fetch_add(1)) < seeded.size();)
                        rows[i] = runJob(uint16_t(t + 1), call.id(),
                                         tags[i], seeded[i], cache);
                });
            }
            for (std::thread &worker : workers)
                worker.join();
        }
        counts_.cacheHits += cache.hits() - hits;
        counts_.cacheBuilds += cache.builds() - builds;
        for (const JobResult &row : rows) {
            const cpu::RunStats &st = row.result.stats;
            counts_.userInsns += st.userInsns;
            counts_.handlerInsns += st.handlerInsns;
            counts_.exceptions += st.exceptions;
            counts_.icacheMisses += st.icacheMisses;
            counts_.dmemFaults += st.dmemFaults;
            counts_.dmemDecompressedBytes += st.dmemDecompressedBytes;
        }
        std::fprintf(stderr, "[%s] %zu jobs traced on %u threads\n",
                     label.c_str(), seeded.size(), o_.threads);
        pass_->add(seeded, rows);
        return rows;
    }

    const LayerCounts &counts() const { return counts_; }

  private:
    bool claim(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(claimMutex_);
        return claims_.insert(key).second;
    }

    JobResult runJob(uint16_t track, uint32_t parent, uint32_t tag,
                     const Job &job, ArtifactCache &cache)
    {
        JobResult out;
        SpanScope exec(&tracer_, track, "harness.job", parent, tag,
                       runBucket(job.config));
        try {
            ScopedErrorTrap trap;
            {
                bool first =
                    claim(ArtifactCache::workloadKey(job.workload));
                SpanScope span(&tracer_, track,
                               first ? "workload.generate"
                                       : "workload.program_wait",
                               exec.id(), tag);
                cache.program(job.workload);
            }
            std::shared_ptr<const core::BuiltImage> built;
            {
                bool first = claim(
                    ArtifactCache::imageKey(job.workload, job.config));
                SpanScope span(&tracer_, track,
                               first ? "core.build" : "core.build_wait",
                               exec.id(), tag,
                               codeBucket(job.config.scheme));
                built = cache.builtImage(job.workload, job.config);
            }
            std::unique_ptr<core::System> system;
            {
                SpanScope span(&tracer_, track, "core.init", exec.id(), tag);
                system = std::make_unique<core::System>(built, job.config);
            }
            {
                SpanScope span(&tracer_, track, "cpu.run", exec.id(), tag,
                               runBucket(job.config));
                out.result = system->run();
            }
            {
                SpanScope span(&tracer_, track, "core.teardown", exec.id(),
                               tag);
                system.reset();
            }
        } catch (const std::exception &e) {
            out.ok = false;
            out.result = core::SystemResult{};
            out.error = e.what();
        }
        out.wallSeconds = now() - exec.start();
        return out;
    }

    const Options &o_;
    Tracer &tracer_;
    uint32_t passSpan_ = kNone;
    std::mutex claimMutex_;
    std::unordered_set<std::string> claims_;
    LayerCounts counts_;
};

// ---------------------------------------------------------------------
// The serve workload's daemon plumbing
// ---------------------------------------------------------------------

/** A fresh (emptied) directory under the work dir. */
std::string
freshDir(const Options &o, const std::string &name)
{
    std::string dir = o.workDir + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

serve::ServerConfig
serverConfig(const Options &o, const std::string &dir)
{
    serve::ServerConfig config;
    config.socketPath = dir + "/d.sock";
    config.cacheDir = dir + "/cache";
    config.workers = o.threads;
    config.journal = true;
    return config;
}

void
startServer(serve::Server &server)
{
    std::string error;
    if (!server.start(error))
        die("server start failed: " + error);
}

void
connectClient(serve::Client &client, const serve::ServerConfig &config)
{
    std::string error;
    if (!client.connect(config.socketPath, error, 5000))
        die("connect failed: " + error);
}

/** Submit + fetch one sweep; spanned on the main track when traced. */
std::vector<JobResult>
submitAndFetch(serve::Client &client, const std::vector<Job> &jobs,
               Tracer *tracer, uint32_t parent, uint64_t &cached,
               double &submitMs, double &fetchMs)
{
    std::string error;
    std::string id;
    uint64_t accepted = 0;
    double t0 = now();
    {
        SpanScope span(tracer, 0, "serve.submit", parent);
        if (!client.submit("serve-matrix", jobs, id, accepted, error))
            die("submit failed: " + error);
    }
    double t1 = now();
    std::vector<JobResult> rows(jobs.size());
    {
        SpanScope span(tracer, 0, "serve.fetch", parent);
        if (!client.fetchResults(id, rows, &cached, error))
            die("fetch failed: " + error);
    }
    submitMs = 1e3 * (t1 - t0);
    fetchMs = 1e3 * (now() - t1);
    return rows;
}

// ---------------------------------------------------------------------
// Reducing spans
// ---------------------------------------------------------------------

/** Sum of span seconds by name (and bucket, when given). */
struct SpanTotals
{
    std::map<std::string, double> seconds;
    std::map<std::string, uint64_t> count;

    void add(const std::string &key, double s)
    {
        seconds[key] += s;
        ++count[key];
    }
    double sec(const std::string &key) const
    {
        auto it = seconds.find(key);
        return it == seconds.end() ? 0.0 : it->second;
    }
    double n(const std::string &key) const
    {
        auto it = count.find(key);
        return it == count.end() ? 0.0 : double(it->second);
    }
};

/** Everything the traced passes' spans add up to. */
struct LayerSummary
{
    SpanTotals totals;
    double queueWaitS = 0;
    double busyS = 0;           ///< harness.job seconds
    double capacityS = 0;       ///< threads x harness.run seconds
    uint64_t jobs = 0;
    uint64_t unreconciled = 0;  ///< children off the job span by > 5%
    double worstGap = 0;        ///< largest |job - children| / job
    std::string longestJob;
    double longestJobS = 0;
};

LayerSummary
summarize(const Tracer &tracer, unsigned threads)
{
    LayerSummary out;
    std::map<uint32_t, double> childSeconds;
    std::map<uint32_t, const Span *> byId;
    for (const auto &track : tracer.tracks()) {
        for (const Span &span : track) {
            byId[span.id] = &span;
            if (span.parent != kNone)
                childSeconds[span.parent] += span.seconds();
        }
    }
    for (const auto &track : tracer.tracks()) {
        for (const Span &span : track) {
            std::string name = span.name;
            if (name == "harness.run") {
                out.capacityS += span.seconds() * threads;
                continue;
            }
            if (name != "harness.job") {
                out.totals.add(name, span.seconds());
                if (span.bucket)
                    out.totals.add(name + "." + span.bucket, span.seconds());
                continue;
            }
            ++out.jobs;
            out.busyS += span.seconds();
            auto call = byId.find(span.parent);
            if (call != byId.end())
                out.queueWaitS += span.start - call->second->start;
            double gap = std::fabs(span.seconds() - childSeconds[span.id]) /
                         std::max(span.seconds(), 1e-9);
            out.worstGap = std::max(out.worstGap, gap);
            if (gap > 0.05)
                ++out.unreconciled;
            if (span.seconds() > out.longestJobS) {
                out.longestJobS = span.seconds();
                out.longestJob = tracer.tags()[span.job];
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/** What a run measured, before it is reduced to metrics. */
struct Samples
{
    std::vector<double> setupS;
    std::vector<double> sweepS;         ///< untraced cold passes
    std::vector<double> tracedSweepS;   ///< traced cold passes
    std::vector<double> jobMs;          ///< cold-pass rows
    std::vector<double> resubmitMs;     ///< warm resubmit + fetch
    std::vector<double> restartMs;      ///< start + first resubmit
    std::vector<double> serveStartMs;   ///< Server::start, populated dir
    std::vector<double> serveSubmitMs;  ///< warm Client::submit
    std::vector<double> serveFetchMs;   ///< warm Client::fetchResults
    uint64_t indexedRows = 0;           ///< resubmitted rows from index
    uint64_t resubmittedRows = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    unsigned tracedPasses = 0;
};

class Bench
{
  public:
    explicit Bench(const Options &o)
        : o_(o), tracer_(o.threads), plain_(o), traced_(o, tracer_)
    {
    }

    void run();
    /** The one-line result run.py reads. */
    Json result() const;
    /** Write the Chrome trace (traced runs with --trace-out), with the
     *  layer metrics and predictions of @p result. */
    void writeTrace(const Json &result) const;

  private:
    double setupOnce();
    void runPass(bool traced);
    void sweepPass(bool traced);
    void servePass(bool traced);
    void tally(const std::vector<JobResult> &rows);
    void recordCold(const PassRows &rows, double seconds, bool traced);
    void checkResubmit(const std::vector<Job> &jobs,
                       const std::vector<JobResult> &rows, uint64_t cached);
    void wireTimings();
    Json endToEnd() const;
    Json perLayer(const LayerSummary &sum) const;
    Json predictions(const LayerSummary &sum) const;

    const Options &o_;
    Samples s_;
    DigestCheck digest_;
    Tracer tracer_;
    SeededRunner plain_;
    TracedRunner traced_;
    /** Job list + rows of the first pass (the wire timings use them). */
    PassRows first_;
    double wireKeyUs_ = 0, wireEncodeUs_ = 0, wireDecodeUs_ = 0;
};

void
Bench::run()
{
    std::filesystem::create_directories(o_.workDir);
    for (unsigned i = 0; i < o_.setupReps; ++i)
        s_.setupS.push_back(setupOnce());

    // Traced runs interleave traced and untraced passes as T U U T T U
    // U T ..., so each kind runs first equally often and the overhead
    // compares like with like. Time-based runs make at least two passes
    // so a held-out seed always has a second pass to check against.
    unsigned minPasses = o_.passes ? o_.passes : 2;
    double t0 = now();
    if (o_.traced) {
        // A warm-up pass first (rows checked, time dropped), so neither
        // the layer split nor the overhead carries first-pass costs.
        minPasses = std::max(minPasses, 2u);
        runPass(false);
        s_.sweepS.clear();
    }
    for (unsigned pass = 0;; ++pass) {
        runPass(o_.traced && (pass % 4 == 0 || pass % 4 == 3));
        if (pass + 1 >= minPasses && (o_.passes || now() - t0 >= o_.seconds))
            break;
    }
    if (o_.traced)
        wireTimings();
    std::filesystem::remove_all(o_.workDir);
}

void
Bench::runPass(bool traced)
{
    if (o_.workload->kind == Kind::Sweep)
        sweepPass(traced);
    else
        servePass(traced);
}

/**
 * Set-up: what a run does before its workload can start. It generates
 * the workload's programs from the seed into a fresh cache and, for the
 * serve workload, starts a daemon on an empty directory and connects.
 */
double
Bench::setupOnce()
{
    bool serve = o_.workload->kind == Kind::Serve;
    std::string dir = serve ? freshDir(o_, "setup") : std::string();
    double t0 = now();
    ArtifactCache cache;
    for (const workload::WorkloadSpec &spec : workloadSpecs(o_))
        cache.program(spec);
    std::unique_ptr<serve::Server> server;
    if (serve) {
        server = std::make_unique<serve::Server>(serverConfig(o_, dir));
        startServer(*server);
        serve::Client client;
        connectClient(client, server->config());
    }
    return now() - t0;
}

void
Bench::tally(const std::vector<JobResult> &rows)
{
    for (const JobResult &row : rows) {
        ++s_.attempted;
        if (!row.ok)
            ++s_.failed;
    }
}

void
Bench::recordCold(const PassRows &rows, double seconds, bool traced)
{
    (traced ? s_.tracedSweepS : s_.sweepS).push_back(seconds);
    std::fprintf(stderr, "[%s] %s cold pass: %.3fs\n", o_.workload->name,
                 traced ? "traced" : "untraced", seconds);
    for (const JobResult &row : rows.rows)
        s_.jobMs.push_back(1e3 * row.wallSeconds);
    tally(rows.rows);
    digest_.check(rows.jobs, rows.rows);
    if (first_.jobs.empty())
        first_ = rows;
}

void
Bench::sweepPass(bool traced)
{
    const harness::SweepInfo *sweep =
        harness::findSweep(o_.workload->sweep);
    if (!sweep)
        die(std::string("sweep not registered: ") + o_.workload->sweep);
    PassRows rows;
    harness::SweepOptions opts;
    opts.jobs = o_.threads;
    opts.scale = o_.scale;
    opts.writeJson = false;
    double t0 = now();
    {
        SpanScope span(traced ? &tracer_ : nullptr, 0, "pass");
        if (traced) {
            traced_.beginPass(&rows, span.id());
            opts.executor = &traced_;
        } else {
            plain_.setPass(&rows);
            opts.executor = &plain_;
        }
        sweep->fn(opts);
    }
    double seconds = now() - t0;
    if (traced)
        ++s_.tracedPasses;
    recordCold(rows, seconds, traced);
}

void
Bench::checkResubmit(const std::vector<Job> &jobs,
                     const std::vector<JobResult> &rows, uint64_t cached)
{
    s_.indexedRows += cached;
    s_.resubmittedRows += rows.size();
    tally(rows);
    digest_.check(jobs, rows);
}

/**
 * One serve pass: a cold submit + fetch on a fresh daemon directory, a
 * closed loop of warm resubmits on one connection, stop(), then a few
 * restarts on the same directory, each with one resubmit (disk index
 * reads after journal replay). Traced passes also
 * run the job list through TracedRunner for the layer split (the
 * daemon's thread mode runs jobs through the same program / image /
 * System / run sequence, behind executeJob).
 */
void
Bench::servePass(bool traced)
{
    Tracer *tracer = traced ? &tracer_ : nullptr;
    harness::MatrixAxes axes = harness::MatrixAxes::defaults();
    axes.scale = o_.scale;
    std::vector<Job> plainJobs = harness::buildMatrixJobs(axes);
    std::vector<Job> jobs = offsetSeeds(plainJobs, o_.seed);
    std::string dir = freshDir(o_, "pass");
    serve::ServerConfig config = serverConfig(o_, dir);

    SpanScope pass(tracer, 0, "pass");
    double submitMs = 0, fetchMs = 0;
    uint64_t cached = 0;
    {
        serve::Server server(config);
        {
            SpanScope span(tracer, 0, "serve.start", pass.id());
            startServer(server);
        }
        serve::Client client;
        connectClient(client, config);
        double t0 = now();
        std::vector<JobResult> rows = submitAndFetch(
            client, jobs, tracer, pass.id(), cached, submitMs, fetchMs);
        double seconds = now() - t0;
        PassRows cold;
        cold.add(jobs, rows);
        recordCold(cold, seconds, traced);

        for (unsigned i = 0; i < o_.resubmits; ++i) {
            double t = now();
            std::vector<JobResult> warm = submitAndFetch(
                client, jobs, tracer, pass.id(), cached, submitMs, fetchMs);
            s_.resubmitMs.push_back(1e3 * (now() - t));
            s_.serveSubmitMs.push_back(submitMs);
            s_.serveFetchMs.push_back(fetchMs);
            checkResubmit(jobs, warm, cached);
        }
        server.stop();
    }
    for (unsigned i = 0; i < o_.restarts; ++i) {
        serve::Server server(config);
        double t0 = now();
        {
            SpanScope span(tracer, 0, "serve.start", pass.id());
            startServer(server);
        }
        s_.serveStartMs.push_back(1e3 * (now() - t0));
        serve::Client client;
        connectClient(client, config);
        std::vector<JobResult> rows = submitAndFetch(
            client, jobs, tracer, pass.id(), cached, submitMs, fetchMs);
        s_.restartMs.push_back(1e3 * (now() - t0));
        checkResubmit(jobs, rows, cached);
        server.stop();
    }
    std::filesystem::remove_all(dir);

    if (traced) {
        PassRows layer;
        traced_.beginPass(&layer, pass.id());
        ArtifactCache cache;
        traced_.run("serve-matrix:layers", plainJobs, cache);
        ++s_.tracedPasses;
        digest_.check(layer.jobs, layer.rows);
    }
}

/** Time the wire codecs over the run's own jobs and first-pass rows. */
void
Bench::wireTimings()
{
    const std::vector<Job> &jobs = first_.jobs;
    std::vector<std::string> encodedRows;
    for (const JobResult &row : first_.rows)
        encodedRows.push_back(serve::encodeJobResult(row).dump());
    // Repeat each codec until it has run for long enough to time.
    auto perOpUs = [](size_t n, auto &&body) {
        double t0 = now();
        size_t ops = 0;
        do {
            body();
            ops += n;
        } while (now() - t0 < 0.05);
        return 1e6 * (now() - t0) / double(ops ? ops : 1);
    };
    size_t sink = 0;
    wireKeyUs_ = perOpUs(jobs.size(), [&] {
        for (const Job &job : jobs)
            sink += serve::jobContentKey(job).size();
    });
    wireEncodeUs_ = perOpUs(jobs.size(), [&] {
        for (const Job &job : jobs)
            sink += serve::encodeJob(job).dump().size();
    });
    wireDecodeUs_ = perOpUs(encodedRows.size(), [&] {
        for (const std::string &text : encodedRows) {
            Json json;
            JobResult row;
            if (!Json::parse(text, &json) ||
                !serve::decodeJobResult(json, row))
                die("wire: a row failed to decode");
            sink += row.attempts;
        }
    });
    if (sink == 0)
        die("wire: nothing was timed");
}

Json
metric(double value, const char *unit, size_t samples = 0)
{
    Json m = Json::object();
    m.set("value", Json::exactDouble(value));
    m.set("unit", unit);
    if (samples)
        m.set("samples", uint64_t(samples));
    return m;
}

long
peakRssKb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/**
 * End-to-end metrics. A batch tool keeps nothing between runs, so for
 * the batch workloads getting the same rows again (a resubmit, or a
 * resubmit after a restart) costs a whole cold pass: their resubmit
 * and restart metrics are the cold-pass wall times.
 */
Json
Bench::endToEnd() const
{
    bool serve = o_.workload->kind == Kind::Serve;
    std::vector<double> passMs;
    for (double s : s_.sweepS)
        passMs.push_back(1e3 * s);
    const std::vector<double> &resubmit = serve ? s_.resubmitMs : passMs;
    const std::vector<double> &restart = serve ? s_.restartMs : passMs;
    Json m = Json::object();
    m.set("sweep_s", metric(median(s_.sweepS), "s", s_.sweepS.size()));
    m.set("job_ms_p50", metric(median(s_.jobMs), "ms", s_.jobMs.size()));
    m.set("job_ms_p90",
          metric(quantile(s_.jobMs, 0.9), "ms", s_.jobMs.size()));
    m.set("resubmit_ms_p50",
          metric(median(resubmit), "ms", resubmit.size()));
    m.set("resubmit_ms_p90",
          metric(quantile(resubmit, 0.9), "ms", resubmit.size()));
    m.set("restart_resubmit_ms",
          metric(median(restart), "ms", restart.size()));
    m.set("setup_s", metric(median(s_.setupS), "s", s_.setupS.size()));
    m.set("peak_rss_mb", metric(double(peakRssKb()) / 1024.0, "MB"));
    double attempted = double(std::max<uint64_t>(1, s_.attempted));
    m.set("ok_frac",
          metric(double(s_.attempted - s_.failed) / attempted, "frac"));
    return m;
}

Json
Bench::perLayer(const LayerSummary &sum) const
{
    const SpanTotals &t = sum.totals;
    const LayerCounts &c = traced_.counts();
    double passes = std::max(1u, s_.tracedPasses);
    auto perPass = [&](double v) { return v / passes; };
    double runS = t.sec("cpu.run");

    Json m = Json::object();
    m.set("workload.generate_s",
          metric(perPass(t.sec("workload.generate")), "s"));
    m.set("workload.programs",
          metric(perPass(t.n("workload.generate")), "count"));
    for (const char *b : {"native", "dictionary", "codepack"}) {
        m.set(std::string("core.build_s.") + b,
              metric(perPass(t.sec(std::string("core.build.") + b)), "s"));
    }
    m.set("core.builds", metric(perPass(t.n("core.build")), "count"));
    m.set("core.build_wait_s",
          metric(perPass(t.sec("core.build_wait")), "s"));
    m.set("core.init_s", metric(perPass(t.sec("core.init")), "s"));
    for (const char *b : {"native", "dictionary", "codepack", "dmem"}) {
        m.set(std::string("cpu.run_s.") + b,
              metric(perPass(t.sec(std::string("cpu.run.") + b)), "s"));
    }
    m.set("cpu.mips",
          metric(runS > 0 ? double(c.userInsns + c.handlerInsns) / runS /
                                1e6
                          : 0.0,
                 "MIPS"));
    m.set("cpu.user_insns", metric(perPass(double(c.userInsns)), "count"));
    m.set("cpu.handler_insns",
          metric(perPass(double(c.handlerInsns)), "count"));
    m.set("cpu.exceptions", metric(perPass(double(c.exceptions)), "count"));
    m.set("cpu.icache_misses",
          metric(perPass(double(c.icacheMisses)), "count"));
    m.set("dmem.faults", metric(perPass(double(c.dmemFaults)), "count"));
    m.set("dmem.decompressed_bytes",
          metric(perPass(double(c.dmemDecompressedBytes)), "B"));
    m.set("harness.queue_wait_s", metric(perPass(sum.queueWaitS), "s"));
    m.set("harness.pool_busy_frac",
          metric(sum.capacityS > 0 ? sum.busyS / sum.capacityS : 0.0,
                 "frac"));
    m.set("harness.cache_hits",
          metric(perPass(double(c.cacheHits)), "count"));
    m.set("harness.cache_builds",
          metric(perPass(double(c.cacheBuilds)), "count"));
    m.set("serve.start_ms",
          metric(median(s_.serveStartMs), "ms", s_.serveStartMs.size()));
    m.set("serve.submit_ms",
          metric(median(s_.serveSubmitMs), "ms", s_.serveSubmitMs.size()));
    m.set("serve.fetch_ms",
          metric(median(s_.serveFetchMs), "ms", s_.serveFetchMs.size()));
    m.set("serve.index_hit_frac",
          metric(s_.resubmittedRows ? double(s_.indexedRows) /
                                          double(s_.resubmittedRows)
                                    : 0.0,
                 "frac"));
    m.set("wire.key_us", metric(wireKeyUs_, "us"));
    m.set("wire.encode_us", metric(wireEncodeUs_, "us"));
    m.set("wire.decode_us", metric(wireDecodeUs_, "us"));
    m.set("trace.overhead_s",
          metric(median(s_.tracedSweepS) - median(s_.sweepS), "s"));
    m.set("trace.unreconciled_jobs",
          metric(double(sum.unreconciled), "count"));
    return m;
}

/**
 * Where the traced passes' time went, checked against what each layer
 * was predicted to do on this workload. A failed prediction is reported
 * plainly; it is a finding, not a benchmark failure.
 */
Json
Bench::predictions(const LayerSummary &sum) const
{
    const SpanTotals &t = sum.totals;
    const LayerCounts &c = traced_.counts();
    double busy = std::max(sum.busyS, 1e-9);
    double buildShare =
        (t.sec("workload.generate") + t.sec("workload.program_wait") +
         t.sec("core.build") + t.sec("core.build_wait") +
         t.sec("core.init")) /
        busy;
    double runShare = t.sec("cpu.run") / busy;

    Json out = Json::array();
    auto predict = [&](const std::string &text, bool held,
                       const std::string &measured) {
        Json p = Json::object();
        p.set("prediction", text);
        p.set("held", held);
        p.set("measured", measured);
        std::fprintf(stderr, "prediction %s: %s (measured %s)\n",
                     held ? "held" : "FAILED", text.c_str(),
                     measured.c_str());
        out.push(std::move(p));
    };
    auto pct = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f%%", 100 * v);
        return std::string(buf);
    };
    std::fprintf(stderr,
                 "time went: generate+build+init %s, System::run %s of "
                 "busy job time; pool busy %s; longest job %s (%.3fs)\n",
                 pct(buildShare).c_str(), pct(runShare).c_str(),
                 pct(sum.capacityS > 0 ? sum.busyS / sum.capacityS : 0)
                     .c_str(),
                 sum.longestJob.c_str(), sum.longestJobS);

    std::string name = o_.workload->name;
    std::string faults = std::to_string(c.dmemFaults) + " faults";
    if (name == "paper-sim") {
        predict("simulation-bound: System::run is at least 80% of busy "
                "job time",
                runShare >= 0.8, pct(runShare));
        predict("generate+build+init is at most 15% of busy job time",
                buildShare <= 0.15, pct(buildShare));
        predict("a CodePack job sets the tail (longest job)",
                sum.longestJob.find("/CP") != std::string::npos,
                sum.longestJob);
        predict("no data-side decompression", c.dmemFaults == 0, faults);
    } else if (name == "selective-build") {
        predict("build-bound: generate+build+init is at least half of "
                "busy job time",
                buildShare >= 0.5, pct(buildShare));
        predict("System::run is at most a quarter of busy job time",
                runShare <= 0.25, pct(runShare));
        predict("no data-side decompression", c.dmemFaults == 0, faults);
    } else {
        double resubmit = median(s_.resubmitMs) / 1e3;
        double cold = median(s_.sweepS.empty() ? s_.tracedSweepS
                                               : s_.sweepS);
        predict("the data side decompresses pages", c.dmemFaults > 0,
                faults);
        predict("System::run is most of the cold job time",
                runShare >= 0.5, pct(runShare));
        predict("warm resubmits are answered entirely from the index",
                s_.indexedRows == s_.resubmittedRows,
                std::to_string(s_.indexedRows) + "/" +
                    std::to_string(s_.resubmittedRows) + " rows");
        predict("a warm resubmit costs under a tenth of the cold pass",
                resubmit < 0.1 * cold,
                pct(cold > 0 ? resubmit / cold : 0) + " of cold");
    }
    return out;
}

Json
Bench::result() const
{
    Json out = Json::object();
    out.set("host", hostFingerprint(o_));
    out.set("traced", o_.traced);
    out.set("attempted", s_.attempted);
    out.set("failed", s_.failed);
    out.set("passes_compared", digest_.compared());
    out.set("consistent", digest_.consistent());
    out.set("first_divergence", digest_.firstDivergence());
    out.set("rows", digest_.rowsJson());
    if (o_.traced) {
        LayerSummary sum = summarize(tracer_, o_.threads);
        out.set("metrics", perLayer(sum));
        out.set("predictions", predictions(sum));
        Json rec = Json::object();
        rec.set("jobs", sum.jobs);
        rec.set("unreconciled", sum.unreconciled);
        rec.set("worst_gap", sum.worstGap);
        out.set("reconcile", std::move(rec));
    } else {
        out.set("metrics", endToEnd());
    }
    return out;
}

void
Bench::writeTrace(const Json &result) const
{
    if (o_.traceOut.empty() || !o_.traced)
        return;
    Json events = Json::array();
    for (size_t track = 0; track < tracer_.tracks().size(); ++track) {
        Json meta = Json::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", uint64_t(track));
        Json args = Json::object();
        args.set("name", track == 0 ? std::string("main")
                                    : "worker-" + std::to_string(track));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
        for (const Span &span : tracer_.tracks()[track]) {
            Json e = Json::object();
            e.set("name", span.name);
            e.set("ph", "X");
            e.set("pid", 1);
            e.set("tid", uint64_t(track));
            e.set("ts", 1e6 * span.start);
            e.set("dur", 1e6 * span.seconds());
            Json a = Json::object();
            a.set("id", span.id);
            if (span.parent != kNone)
                a.set("parent", span.parent);
            if (span.job != kNone)
                a.set("job", tracer_.tags()[span.job]);
            if (span.bucket)
                a.set("bucket", span.bucket);
            e.set("args", std::move(a));
            events.push(std::move(e));
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    Json other = Json::object();
    for (const char *key : {"host", "metrics", "predictions", "reconcile"})
        other.set(key, result.get(key));
    doc.set("otherData", std::move(other));
    std::filesystem::path path(o_.traceOut);
    if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path());
    std::ofstream file(o_.traceOut);
    file << doc.dump() << "\n";
    if (!file)
        die("cannot write trace " + o_.traceOut);
}

} // namespace

int
main(int argc, char **argv)
{
    // The registered sweeps print their human tables on stdout; only
    // this process's one result line may reach the caller.
    int resultFd = dup(1);
    int devNull = open("/dev/null", O_WRONLY);
    if (resultFd < 0 || devNull < 0 || dup2(devNull, 1) < 0)
        die("cannot redirect stdout");
    close(devNull);

    Options o = parseOptions(argc, argv);
    Bench bench(o);
    bench.run();
    std::fflush(stdout);
    Json result = bench.result();
    bench.writeTrace(result);
    std::string line = result.dump() + "\n";
    FILE *out = fdopen(resultFd, "w");
    if (!out || std::fputs(line.c_str(), out) < 0 || std::fclose(out) != 0)
        die("cannot write the result");
    return 0;
}
