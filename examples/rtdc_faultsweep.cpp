/**
 * @file
 * Seeded corruption fuzzing of the software decompression pipeline
 * (DESIGN.md section 12).
 *
 * Generates one small deterministic workload, compresses it under each
 * line-granular scheme with CRC integrity metadata, then runs hundreds
 * of fault-injection plans (bit flips and truncations across every
 * compressed structure: stream, dictionaries, mapping tables, the CRC
 * table itself — and, on the third lane, the compressed data region's
 * .dstream/.ddict/.dmap/.dcrc, see DESIGN.md section 18) through the
 * hardened simulator and checks the fault model's core invariant:
 *
 *   no corrupted input may ever crash, hang, or silently mis-execute
 *   the simulator.
 *
 * Every run must end in exactly one of: correct execution (the fault
 * missed the executed path, or a retry recovered it), a counted
 * machine-check halt with a diagnostic cause, or the bounded
 * instruction-limit stop. A wrong final result without a machine check,
 * an escaped exception, or a watchdog timeout is a violation and fails
 * the process.
 *
 *   $ ./build/examples/rtdc_faultsweep --plans 1050 --jobs 4 \
 *         --out fault_fuzz.json
 *
 * `--demo-killswitch` instead demonstrates the sweep harness's crash
 * isolation: a poisoned job (workload generation asserts) and a
 * wall-clock-timeout job each produce a structured failure row while
 * their sibling jobs complete normally.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "dmem/data_region.h"
#include "fault/fault.h"
#include "harness/artifact_cache.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "workload/generator.h"

using namespace rtd;
using compress::Scheme;
using dmem::DataScheme;

namespace {

/** The one small workload every fuzz job runs. */
workload::WorkloadSpec
fuzzSpec()
{
    workload::WorkloadSpec spec;
    spec.name = "faultfuzz";
    spec.seed = 20000;
    spec.targetTextBytes = 6 * 1024;
    spec.hotProcs = 2;
    spec.coldProcs = 8;
    spec.targetDynamicInsns = 60 * 1000;
    spec.hotLoopIters = 20;
    spec.coldCallsPerIter = 4;
    return spec;
}

/** Hardened machine configuration shared by every fuzz job. */
core::SystemConfig
fuzzConfig(Scheme scheme, uint64_t clean_user_insns)
{
    core::SystemConfig config;
    config.scheme = scheme;
    config.secondRegFile = true;
    config.integrity = true;
    config.cpu.mcRetryLimit = 1;
    config.cpu.handlerInsnBudget = 1'000'000;
    // Corrupted code can wander into nop-filled memory; bound it well
    // above any legitimate execution length.
    config.cpu.maxUserInsns = clean_user_insns * 2 + 100'000;
    return config;
}

const Scheme kSchemes[] = {Scheme::Dictionary, Scheme::CodePack};

/** The data codecs the last fuzz lane alternates between. */
const DataScheme kDataSchemes[] = {DataScheme::Dictionary,
                                   DataScheme::Lzrw1};

/** Hardened data-compression configuration (the dmem fuzz lane). */
core::SystemConfig
dmemFuzzConfig(DataScheme codec, uint64_t clean_user_insns)
{
    core::SystemConfig config = fuzzConfig(Scheme::None,
                                           clean_user_insns);
    config.dataCompression = core::DataCompression::DataOnly;
    config.dmem.scheme = codec;
    return config;
}

/** Sites worth injecting for @p scheme (segment sites + truncation). */
std::vector<fault::Site>
sitesFor(Scheme scheme)
{
    std::vector<fault::Site> sites;
    for (fault::Site s :
         {fault::Site::Stream, fault::Site::Dictionary,
          fault::Site::HighDict, fault::Site::LowDict,
          fault::Site::MapTable, fault::Site::CrcTable}) {
        if (fault::siteSegmentName(scheme, s))
            sites.push_back(s);
    }
    sites.push_back(fault::Site::Truncate);
    sites.push_back(fault::Site::Any);
    return sites;
}

/** Data-region sites that exist under @p codec, plus truncation. */
std::vector<fault::Site>
dataSitesFor(DataScheme codec)
{
    std::vector<fault::Site> sites;
    for (fault::Site s :
         {fault::Site::DataStream, fault::Site::DataDict,
          fault::Site::DataMap, fault::Site::DataCrc}) {
        if (fault::dataSiteSegmentName(codec, s))
            sites.push_back(s);
    }
    sites.push_back(fault::Site::DataTruncate);
    return sites;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--plans N] [--seed BASE] [--jobs N]\n"
                 "          [--out FILE] [--demo-killswitch]\n",
                 argv0);
    return 2;
}

/** Kill-switch demo: poisoned + timed-out jobs among healthy siblings. */
int
runKillswitchDemo(unsigned jobs_threads, const std::string &out_path)
{
    workload::WorkloadSpec base = fuzzSpec();
    std::vector<harness::Job> jobs;
    for (unsigned i = 0; i < 4; ++i) {
        harness::Job job;
        job.tag = "healthy/" + std::to_string(i);
        job.workload = base;
        job.workload.seed = base.seed + i;
        job.config.scheme = Scheme::Dictionary;
        job.config.secondRegFile = true;
        jobs.push_back(std::move(job));
    }
    {
        // Poisoned job: zero hot procedures trips a workload-generator
        // assertion. The error trap turns it into a structured failure
        // row; maxAttempts shows the bounded retry/backoff policy.
        harness::Job job;
        job.tag = "poison/assert";
        job.workload = base;
        job.workload.name = "faultpoison";
        job.workload.hotProcs = 0;
        job.config.scheme = Scheme::Dictionary;
        job.maxAttempts = 2;
        job.backoffSeconds = 0.01;
        jobs.push_back(std::move(job));
    }
    {
        // Wedged job: far too much work for its wall-clock budget; the
        // watchdog cancels it cooperatively.
        harness::Job job;
        job.tag = "poison/timeout";
        job.workload = base;
        job.workload.name = "faulttimeout";
        job.workload.targetDynamicInsns = 2'000'000'000ull;
        job.config.scheme = Scheme::Dictionary;
        job.timeoutSeconds = 0.05;
        jobs.push_back(std::move(job));
    }

    harness::ArtifactCache cache;
    harness::SweepRunner runner(jobs_threads);
    std::vector<harness::JobResult> results =
        runner.run("killswitch", jobs, cache);

    harness::ResultSink sink("fault_killswitch");
    int violations = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const harness::Job &job = jobs[i];
        const harness::JobResult &r = results[i];
        bool poison = job.tag.compare(0, 6, "poison") == 0;
        const char *verdict;
        if (poison && !r.ok && !r.error.empty()) {
            verdict = r.timedOut ? "isolated-timeout" : "isolated-error";
        } else if (!poison && r.ok && r.result.stats.halted) {
            verdict = "completed";
        } else {
            verdict = "VIOLATION";
            ++violations;
        }
        std::printf("%-16s ok=%d timed_out=%d attempts=%u %s%s%s\n",
                    job.tag.c_str(), r.ok ? 1 : 0, r.timedOut ? 1 : 0,
                    r.attempts, verdict, r.error.empty() ? "" : ": ",
                    r.error.c_str());
        // Rows stay wall-clock-free and deterministic: no cycle counts
        // from the cancelled job.
        harness::Json row = harness::Json::object();
        row.set("tag", job.tag);
        row.set("ok", r.ok);
        row.set("timed_out", r.timedOut);
        row.set("attempts", r.attempts);
        row.set("error", r.error);
        row.set("verdict", verdict);
        sink.addRow(std::move(row));
    }
    if (!out_path.empty())
        sink.writeJson(out_path);
    if (violations) {
        std::printf("\n%d VIOLATION(s): crash isolation failed\n",
                    violations);
        return 1;
    }
    std::printf("\nkill-switch demo passed: failures isolated, "
                "siblings completed\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned plans = 1050;
    uint64_t seed_base = 1;
    unsigned jobs_threads = 0;
    std::string out_path;
    bool killswitch = false;

    for (int i = 1; i < argc; ++i) {
        // Whole-string counts: "4x", "abc" or "-1" is a usage error.
        auto count = [&](uint64_t max) {
            uint64_t value = 0;
            if (i + 1 >= argc || !core::parseCount(argv[i + 1], max, value))
                std::exit(usage(argv[0]));
            ++i;
            return value;
        };
        if (!std::strcmp(argv[i], "--plans"))
            plans = static_cast<unsigned>(count(UINT32_MAX));
        else if (!std::strcmp(argv[i], "--seed"))
            seed_base = count(UINT64_MAX);
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs_threads = static_cast<unsigned>(count(UINT32_MAX));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--demo-killswitch"))
            killswitch = true;
        else
            return usage(argv[0]);
    }
    if (killswitch)
        return runKillswitchDemo(jobs_threads, out_path);

    workload::WorkloadSpec spec = fuzzSpec();
    harness::ArtifactCache cache;
    harness::SweepRunner runner(jobs_threads);

    // Clean baselines: one uncorrupted run per code scheme and per
    // data codec, integrity on and the ground-truth verifier on, to
    // capture the expected result and check that CRC metadata alone
    // never raises a machine check.
    std::vector<harness::Job> clean_jobs;
    for (Scheme scheme : kSchemes) {
        harness::Job job;
        job.tag = std::string("clean/") + compress::schemeName(scheme);
        job.workload = spec;
        job.config = fuzzConfig(scheme, 0);
        job.config.cpu.maxUserInsns = 0;
        clean_jobs.push_back(std::move(job));
    }
    for (DataScheme codec : kDataSchemes) {
        harness::Job job;
        job.tag = std::string("clean/dmem.") +
                  dmem::dataSchemeName(codec);
        job.workload = spec;
        job.config = dmemFuzzConfig(codec, 0);
        job.config.cpu.maxUserInsns = 0;
        clean_jobs.push_back(std::move(job));
    }
    std::vector<harness::JobResult> clean =
        runner.run("fault-clean", clean_jobs, cache);
    std::map<Scheme, uint32_t> expect_value;
    std::map<Scheme, uint64_t> expect_insns;
    std::map<DataScheme, uint32_t> expect_dvalue;
    std::map<DataScheme, uint64_t> expect_dinsns;
    for (size_t i = 0; i < clean.size(); ++i) {
        const cpu::RunStats &stats = clean[i].result.stats;
        if (!clean[i].ok || !stats.halted || stats.machineChecks != 0) {
            std::fprintf(stderr,
                         "clean run %s failed (ok=%d halted=%d "
                         "machineChecks=%llu): %s\n",
                         clean_jobs[i].tag.c_str(), clean[i].ok ? 1 : 0,
                         stats.halted ? 1 : 0,
                         static_cast<unsigned long long>(
                             stats.machineChecks),
                         clean[i].error.c_str());
            return 1;
        }
        if (i < std::size(kSchemes)) {
            expect_value[kSchemes[i]] = stats.resultValue;
            expect_insns[kSchemes[i]] = stats.userInsns;
        } else {
            DataScheme codec = kDataSchemes[i - std::size(kSchemes)];
            expect_dvalue[codec] = stats.resultValue;
            expect_dinsns[codec] = stats.userInsns;
        }
    }

    // One job per plan: round-robin over three lanes (two code
    // schemes + the data region), cycling each lane's sites, counts
    // 1..4, a fresh seed per plan. The data lane alternates codecs.
    constexpr size_t kLanes = std::size(kSchemes) + 1;
    std::vector<harness::Job> jobs;
    std::vector<fault::Site> sites[std::size(kSchemes)];
    for (size_t s = 0; s < std::size(kSchemes); ++s)
        sites[s] = sitesFor(kSchemes[s]);
    std::vector<fault::Site> dsites[2] = {
        dataSitesFor(kDataSchemes[0]), dataSitesFor(kDataSchemes[1])};
    for (unsigned i = 0; i < plans; ++i) {
        size_t lane = i % kLanes;
        fault::FaultPlan plan;
        plan.seed = seed_base + i;
        plan.count = 1 + i % 4;
        harness::Job job;
        std::string lane_name;
        if (lane < std::size(kSchemes)) {
            Scheme scheme = kSchemes[lane];
            plan.site = sites[lane][(i / kLanes) % sites[lane].size()];
            job.config = fuzzConfig(scheme, expect_insns[scheme]);
            lane_name = compress::schemeName(scheme);
        } else {
            size_t d = (i / kLanes) % std::size(kDataSchemes);
            DataScheme codec = kDataSchemes[d];
            plan.site = dsites[d][(i / (2 * kLanes)) % dsites[d].size()];
            job.config = dmemFuzzConfig(codec, expect_dinsns[codec]);
            lane_name = std::string("dmem.") +
                        dmem::dataSchemeName(codec);
        }
        char tag[96];
        std::snprintf(tag, sizeof tag, "fault/%s/%s/seed%llu/x%u",
                      lane_name.c_str(), fault::siteName(plan.site),
                      static_cast<unsigned long long>(plan.seed),
                      plan.count);
        job.tag = tag;
        job.workload = spec;
        job.config.fault.plans.push_back(plan);
        // Last-resort hang detection; the instruction and handler
        // budgets should always stop the run first.
        job.timeoutSeconds = 60.0;
        jobs.push_back(std::move(job));
    }

    std::vector<harness::JobResult> results =
        runner.run("fault-fuzz", jobs, cache);

    harness::ResultSink sink("fault_fuzz");
    std::map<std::string, unsigned> tally;
    int violations = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const harness::Job &job = jobs[i];
        const harness::JobResult &r = results[i];
        const cpu::RunStats &stats = r.result.stats;
        Scheme scheme = job.config.scheme;
        bool data_lane = job.config.dataCompression !=
                         core::DataCompression::Off;
        uint32_t expected = data_lane
                                ? expect_dvalue[job.config.dmem.scheme]
                                : expect_value[scheme];

        // Classify; anything outside the allowed outcomes is a
        // violation of the fault-model invariant.
        std::string outcome;
        if (!r.ok && r.timedOut) {
            outcome = "VIOLATION:hang";
        } else if (!r.ok) {
            outcome = "VIOLATION:crash";
        } else if (stats.machineCheckHalt) {
            outcome = std::string("mc-halt:") +
                      cpu::mcKindName(stats.faultKind);
        } else if (stats.halted && stats.resultValue == expected) {
            outcome = stats.integrityRetries ? "recovered" : "correct";
        } else if (stats.timedOut) {
            outcome = "insn-limit";
        } else {
            outcome = "VIOLATION:silent-wrong-result";
        }
        if (outcome.compare(0, 9, "VIOLATION") == 0) {
            ++violations;
            std::printf("%s -> %s%s%s\n", job.tag.c_str(),
                        outcome.c_str(), r.error.empty() ? "" : ": ",
                        r.error.c_str());
            for (const fault::FaultReport &rep : r.result.faultReports)
                std::printf("    %s\n", rep.summary().c_str());
        }
        ++tally[outcome];

        const fault::FaultPlan &plan = job.config.fault.plans[0];
        harness::Json row = harness::Json::object();
        row.set("tag", job.tag);
        row.set("scheme",
                data_lane ? std::string("dmem.") + dmem::dataSchemeName(
                                                       job.config.dmem
                                                           .scheme)
                          : std::string(compress::schemeName(scheme)));
        row.set("site", fault::siteName(plan.site));
        row.set("seed", plan.seed);
        row.set("count", plan.count);
        row.set("outcome", outcome);
        row.set("machine_checks", stats.machineChecks);
        row.set("integrity_retries", stats.integrityRetries);
        row.set("fault_kind", cpu::mcKindName(stats.faultKind));
        row.set("user_insns", stats.userInsns);
        row.set("result_value", uint64_t(stats.resultValue));
        sink.addRow(std::move(row));
    }

    std::printf("fault fuzz: %u plans over %zu code schemes + %zu data "
                "codecs\n",
                plans, std::size(kSchemes), std::size(kDataSchemes));
    for (const auto &[outcome, count] : tally)
        std::printf("  %-28s %u\n", outcome.c_str(), count);
    if (!out_path.empty())
        sink.writeJson(out_path);
    if (violations) {
        std::printf("%d VIOLATION(s): corrupted input crashed, hung, "
                    "or silently mis-executed\n", violations);
        return 1;
    }
    std::printf("invariant held: every corrupted run ended in correct "
                "execution,\na counted machine-check recovery/halt, or "
                "the bounded instruction limit\n");
    return 0;
}
