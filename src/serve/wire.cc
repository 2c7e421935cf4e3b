#include "serve/wire.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "harness/artifact_cache.h"
#include "profile/profile.h"

namespace rtd::serve {

namespace {

using harness::Json;

/// @name Checked member extraction (false = missing or wrong type)
/// @{
bool
getU64(const Json &json, const char *key, uint64_t &out)
{
    const Json *member = json.find(key);
    if (!member || member->kind() != Json::Kind::Int)
        return false;
    out = static_cast<uint64_t>(member->asInt());
    return true;
}

bool
getU32(const Json &json, const char *key, uint32_t &out)
{
    uint64_t wide = 0;
    if (!getU64(json, key, wide) ||
        wide > std::numeric_limits<uint32_t>::max())
        return false;
    out = static_cast<uint32_t>(wide);
    return true;
}

bool
getUnsigned(const Json &json, const char *key, unsigned &out)
{
    uint32_t wide = 0;
    if (!getU32(json, key, wide))
        return false;
    out = wide;
    return true;
}

bool
getI32(const Json &json, const char *key, int32_t &out)
{
    const Json *member = json.find(key);
    if (!member || member->kind() != Json::Kind::Int)
        return false;
    int64_t wide = member->asInt();
    if (wide < std::numeric_limits<int32_t>::min() ||
        wide > std::numeric_limits<int32_t>::max())
        return false;
    out = static_cast<int32_t>(wide);
    return true;
}

bool
getDouble(const Json &json, const char *key, double &out)
{
    const Json *member = json.find(key);
    if (!member || !member->isNumber())
        return false;
    out = member->asDouble();
    return true;
}

bool
getBool(const Json &json, const char *key, bool &out)
{
    const Json *member = json.find(key);
    if (!member || member->kind() != Json::Kind::Bool)
        return false;
    out = member->asBool();
    return true;
}

bool
getString(const Json &json, const char *key, std::string &out)
{
    const Json *member = json.find(key);
    if (!member || member->kind() != Json::Kind::String)
        return false;
    out = member->asString();
    return true;
}

/** Enum codec: integer on the wire, range-checked on decode. */
template <typename E>
bool
getEnum(const Json &json, const char *key, E last, E &out)
{
    uint64_t raw = 0;
    if (!getU64(json, key, raw) || raw > static_cast<uint64_t>(last))
        return false;
    out = static_cast<E>(raw);
    return true;
}
/// @}

Json
encodeCacheConfig(const cache::CacheConfig &config)
{
    Json json = Json::object();
    json.set("size", config.sizeBytes);
    json.set("line", config.lineBytes);
    json.set("assoc", config.assoc);
    return json;
}

bool
decodeCacheConfig(const Json &json, cache::CacheConfig &config)
{
    return getU32(json, "size", config.sizeBytes) &&
           getU32(json, "line", config.lineBytes) &&
           getUnsigned(json, "assoc", config.assoc);
}

Json
encodeCpuConfig(const cpu::CpuConfig &config)
{
    Json json = Json::object();
    json.set("icache", encodeCacheConfig(config.icache));
    json.set("dcache", encodeCacheConfig(config.dcache));
    json.set("predEntries", config.predictorEntries);
    json.set("predKind", static_cast<unsigned>(config.predictorKind));
    json.set("mispredict", config.mispredictPenalty);
    json.set("redirect", config.redirectPenalty);
    json.set("excEntry", config.exceptionEntryPenalty);
    json.set("excReturn", config.exceptionReturnPenalty);
    json.set("secondRegFile", config.secondRegFile);
    json.set("handlerDataUncached", config.handlerDataUncached);
    json.set("verify", config.verifyDecompression);
    json.set("memFirst", config.memTiming.firstAccessCycles);
    json.set("memBurst", config.memTiming.burstRateCycles);
    json.set("memBus", config.memTiming.busBytes);
    json.set("maxUserInsns", config.maxUserInsns);
    json.set("traceInsns", config.traceInsns);
    json.set("mcRetryLimit", config.mcRetryLimit);
    json.set("handlerBudget", config.handlerInsnBudget);
    json.set("l2Enabled", config.l2.enabled);
    json.set("l2Size", config.l2.sizeBytes);
    json.set("l2Line", config.l2.lineBytes);
    json.set("l2Assoc", config.l2.assoc);
    json.set("l2Hit", config.l2.hitCycles);
    json.set("l2Decomp", config.l2.decompressCycles);
    return json;
}

bool
decodeCpuConfig(const Json &json, cpu::CpuConfig &config)
{
    const Json *icache = json.find("icache");
    const Json *dcache = json.find("dcache");
    if (!icache || !dcache || !decodeCacheConfig(*icache, config.icache) ||
        !decodeCacheConfig(*dcache, config.dcache))
        return false;
    // cancel/observer are per-run host pointers, never wire state, and
    // the engine never changes a result, so it is not either (decoding
    // leaves config.engine as the caller set it). Unknown members are
    // ignored, so records that still carry the removed engine flags
    // ("predecode", "blockExec", "superblockExec") decode and replay.
    config.cancel = nullptr;
    config.observer = nullptr;
    return getUnsigned(json, "predEntries", config.predictorEntries) &&
           getEnum(json, "predKind", cpu::PredictorKind::StaticNotTaken,
                   config.predictorKind) &&
           getUnsigned(json, "mispredict", config.mispredictPenalty) &&
           getUnsigned(json, "redirect", config.redirectPenalty) &&
           getUnsigned(json, "excEntry", config.exceptionEntryPenalty) &&
           getUnsigned(json, "excReturn",
                       config.exceptionReturnPenalty) &&
           getBool(json, "secondRegFile", config.secondRegFile) &&
           getBool(json, "handlerDataUncached",
                   config.handlerDataUncached) &&
           getBool(json, "verify", config.verifyDecompression) &&
           getUnsigned(json, "memFirst",
                       config.memTiming.firstAccessCycles) &&
           getUnsigned(json, "memBurst",
                       config.memTiming.burstRateCycles) &&
           getUnsigned(json, "memBus", config.memTiming.busBytes) &&
           getU64(json, "maxUserInsns", config.maxUserInsns) &&
           getU64(json, "traceInsns", config.traceInsns) &&
           getUnsigned(json, "mcRetryLimit", config.mcRetryLimit) &&
           getU64(json, "handlerBudget", config.handlerInsnBudget) &&
           getBool(json, "l2Enabled", config.l2.enabled) &&
           getU32(json, "l2Size", config.l2.sizeBytes) &&
           getU32(json, "l2Line", config.l2.lineBytes) &&
           getUnsigned(json, "l2Assoc", config.l2.assoc) &&
           getUnsigned(json, "l2Hit", config.l2.hitCycles) &&
           getUnsigned(json, "l2Decomp", config.l2.decompressCycles);
}

} // namespace

Json
encodeWorkload(const workload::WorkloadSpec &spec)
{
    Json json = Json::object();
    json.set("name", spec.name);
    json.set("seed", spec.seed);
    json.set("text", spec.targetTextBytes);
    json.set("hotProcs", spec.hotProcs);
    json.set("coldProcs", spec.coldProcs);
    json.set("hotFrac", Json::exactDouble(spec.hotTextFraction));
    json.set("uniq", Json::exactDouble(spec.uniqueFraction));
    json.set("reuse", Json::exactDouble(spec.reuseSkew));
    json.set("br", Json::exactDouble(spec.branchDensity));
    json.set("mem", Json::exactDouble(spec.memDensity));
    json.set("dyn", spec.targetDynamicInsns);
    json.set("iters", spec.hotLoopIters);
    json.set("calls", spec.coldCallsPerIter);
    json.set("zipf", Json::exactDouble(spec.coldZipfTheta));
    json.set("burst", spec.coldBurst);
    json.set("dataB", spec.dataBytesPerProc);
    return json;
}

bool
decodeWorkload(const harness::Json &json, workload::WorkloadSpec &spec)
{
    return getString(json, "name", spec.name) &&
           getU64(json, "seed", spec.seed) &&
           getU32(json, "text", spec.targetTextBytes) &&
           getUnsigned(json, "hotProcs", spec.hotProcs) &&
           getUnsigned(json, "coldProcs", spec.coldProcs) &&
           getDouble(json, "hotFrac", spec.hotTextFraction) &&
           getDouble(json, "uniq", spec.uniqueFraction) &&
           getDouble(json, "reuse", spec.reuseSkew) &&
           getDouble(json, "br", spec.branchDensity) &&
           getDouble(json, "mem", spec.memDensity) &&
           getU64(json, "dyn", spec.targetDynamicInsns) &&
           getUnsigned(json, "iters", spec.hotLoopIters) &&
           getUnsigned(json, "calls", spec.coldCallsPerIter) &&
           getDouble(json, "zipf", spec.coldZipfTheta) &&
           getUnsigned(json, "burst", spec.coldBurst) &&
           getU32(json, "dataB", spec.dataBytesPerProc);
}

Json
encodeConfig(const core::SystemConfig &config)
{
    Json json = Json::object();
    json.set("cpu", encodeCpuConfig(config.cpu));
    json.set("scheme", static_cast<unsigned>(config.scheme));
    json.set("secondRegFile", config.secondRegFile);
    // Region assignment as the same compact 'N'/'C' string the
    // ArtifactCache image key uses.
    std::string regions;
    regions.reserve(config.regions.size());
    for (prog::Region region : config.regions)
        regions += region == prog::Region::Native ? 'N' : 'C';
    json.set("regions", regions);
    Json order = Json::array();
    for (int32_t index : config.order)
        order.push(index);
    json.set("order", std::move(order));
    json.set("dataCompression",
             static_cast<unsigned>(config.dataCompression));
    json.set("dmemScheme", static_cast<unsigned>(config.dmem.scheme));
    json.set("dmemPage", config.dmem.pageBytes);
    json.set("dmemStaging", config.dmem.stagingPages);
    json.set("profiling", config.profiling);
    json.set("pcCapacity", config.procCache.capacityBytes);
    json.set("pcDispatch", config.procCache.dispatchCycles);
    json.set("integrity", config.integrity);
    Json plans = Json::array();
    for (const fault::FaultPlan &plan : config.fault.plans) {
        Json planJson = Json::object();
        planJson.set("seed", plan.seed);
        planJson.set("site", static_cast<unsigned>(plan.site));
        planJson.set("count", plan.count);
        plans.push(std::move(planJson));
    }
    json.set("fault", std::move(plans));
    json.set("obsEnabled", config.observe.enabled);
    json.set("obsTrace", config.observe.trace);
    json.set("obsTraceCap", uint64_t(config.observe.traceCapacity));
    json.set("obsHeatmap", config.observe.heatmap);
    return json;
}

bool
decodeConfig(const harness::Json &json, core::SystemConfig &config)
{
    const Json *cpuJson = json.find("cpu");
    if (!cpuJson || !decodeCpuConfig(*cpuJson, config.cpu))
        return false;
    if (!getEnum(json, "scheme", compress::Scheme::HuffmanLine,
                 config.scheme) ||
        !getBool(json, "secondRegFile", config.secondRegFile))
        return false;
    std::string regions;
    if (!getString(json, "regions", regions))
        return false;
    config.regions.clear();
    config.regions.reserve(regions.size());
    for (char c : regions) {
        if (c != 'N' && c != 'C')
            return false;
        config.regions.push_back(c == 'N' ? prog::Region::Native
                                          : prog::Region::Compressed);
    }
    const Json *order = json.find("order");
    if (!order || order->kind() != Json::Kind::Array)
        return false;
    config.order.clear();
    config.order.reserve(order->size());
    for (const Json &index : order->items()) {
        if (index.kind() != Json::Kind::Int)
            return false;
        int64_t wide = index.asInt();
        if (wide < std::numeric_limits<int32_t>::min() ||
            wide > std::numeric_limits<int32_t>::max())
            return false;
        config.order.push_back(static_cast<int32_t>(wide));
    }
    if (!getEnum(json, "dataCompression", core::DataCompression::Both,
                 config.dataCompression) ||
        !getEnum(json, "dmemScheme", dmem::DataScheme::Lzrw1,
                 config.dmem.scheme) ||
        !getU32(json, "dmemPage", config.dmem.pageBytes) ||
        !getU32(json, "dmemStaging", config.dmem.stagingPages))
        return false;
    if (!getBool(json, "profiling", config.profiling) ||
        !getU32(json, "pcCapacity", config.procCache.capacityBytes) ||
        !getU32(json, "pcDispatch", config.procCache.dispatchCycles) ||
        !getBool(json, "integrity", config.integrity))
        return false;
    const Json *plans = json.find("fault");
    if (!plans || plans->kind() != Json::Kind::Array)
        return false;
    config.fault.plans.clear();
    config.fault.plans.reserve(plans->size());
    for (const Json &planJson : plans->items()) {
        fault::FaultPlan plan;
        if (!getU64(planJson, "seed", plan.seed) ||
            !getEnum(planJson, "site", fault::Site::DataTruncate,
                     plan.site) ||
            !getU32(planJson, "count", plan.count))
            return false;
        config.fault.plans.push_back(plan);
    }
    uint64_t traceCap = 0;
    if (!getBool(json, "obsEnabled", config.observe.enabled) ||
        !getBool(json, "obsTrace", config.observe.trace) ||
        !getU64(json, "obsTraceCap", traceCap) ||
        !getBool(json, "obsHeatmap", config.observe.heatmap))
        return false;
    config.observe.traceCapacity = static_cast<size_t>(traceCap);
    return true;
}

Json
encodeJob(const harness::Job &job)
{
    Json json = Json::object();
    json.set("tag", job.tag);
    json.set("workload", encodeWorkload(job.workload));
    json.set("config", encodeConfig(job.config));
    json.set("timeout", Json::exactDouble(job.timeoutSeconds));
    json.set("maxAttempts", job.maxAttempts);
    json.set("backoff", Json::exactDouble(job.backoffSeconds));
    return json;
}

bool
decodeJob(const harness::Json &json, harness::Job &job)
{
    const Json *workload = json.find("workload");
    const Json *config = json.find("config");
    return getString(json, "tag", job.tag) && workload && config &&
           decodeWorkload(*workload, job.workload) &&
           decodeConfig(*config, job.config) &&
           getDouble(json, "timeout", job.timeoutSeconds) &&
           getUnsigned(json, "maxAttempts", job.maxAttempts) &&
           getDouble(json, "backoff", job.backoffSeconds);
}

Json
encodeRunStats(const cpu::RunStats &stats)
{
    Json json = Json::object();
    json.set("cycles", stats.cycles);
    json.set("userInsns", stats.userInsns);
    json.set("handlerInsns", stats.handlerInsns);
    json.set("icacheAccesses", stats.icacheAccesses);
    json.set("icacheMisses", stats.icacheMisses);
    json.set("compressedMisses", stats.compressedMisses);
    json.set("nativeMisses", stats.nativeMisses);
    json.set("dcacheAccesses", stats.dcacheAccesses);
    json.set("dcacheMisses", stats.dcacheMisses);
    json.set("writebacks", stats.writebacks);
    json.set("branchLookups", stats.branchLookups);
    json.set("branchMispredicts", stats.branchMispredicts);
    json.set("loadUseStalls", stats.loadUseStalls);
    json.set("exceptions", stats.exceptions);
    json.set("procFaults", stats.procFaults);
    json.set("procEvictions", stats.procEvictions);
    json.set("procCompactedBytes", stats.procCompactedBytes);
    json.set("procDecompressedBytes", stats.procDecompressedBytes);
    json.set("machineChecks", stats.machineChecks);
    json.set("integrityRetries", stats.integrityRetries);
    json.set("dmemFaults", stats.dmemFaults);
    json.set("dmemEvictions", stats.dmemEvictions);
    json.set("dmemSpills", stats.dmemSpills);
    json.set("dmemDecompressedBytes", stats.dmemDecompressedBytes);
    json.set("l2Hits", stats.l2Hits);
    json.set("l2Misses", stats.l2Misses);
    json.set("machineCheckHalt", stats.machineCheckHalt);
    json.set("cancelled", stats.cancelled);
    json.set("faultKind", static_cast<unsigned>(stats.faultKind));
    json.set("faultAddr", stats.faultAddr);
    json.set("halted", stats.halted);
    json.set("timedOut", stats.timedOut);
    json.set("exitCode", stats.exitCode);
    json.set("resultValue", stats.resultValue);
    return json;
}

std::string
runStatsDiff(const cpu::RunStats &a, const cpu::RunStats &b)
{
    Json ja = encodeRunStats(a);
    Json jb = encodeRunStats(b);
    const auto &ma = ja.members();
    const auto &mb = jb.members();
    for (size_t i = 0; i < ma.size(); ++i) {
        std::string va = ma[i].second.dump();
        std::string vb = mb[i].second.dump();
        if (va != vb)
            return ma[i].first + ": " + va + " vs " + vb;
    }
    return {};
}

bool
decodeRunStats(const harness::Json &json, cpu::RunStats &stats)
{
    return getU64(json, "cycles", stats.cycles) &&
           getU64(json, "userInsns", stats.userInsns) &&
           getU64(json, "handlerInsns", stats.handlerInsns) &&
           getU64(json, "icacheAccesses", stats.icacheAccesses) &&
           getU64(json, "icacheMisses", stats.icacheMisses) &&
           getU64(json, "compressedMisses", stats.compressedMisses) &&
           getU64(json, "nativeMisses", stats.nativeMisses) &&
           getU64(json, "dcacheAccesses", stats.dcacheAccesses) &&
           getU64(json, "dcacheMisses", stats.dcacheMisses) &&
           getU64(json, "writebacks", stats.writebacks) &&
           getU64(json, "branchLookups", stats.branchLookups) &&
           getU64(json, "branchMispredicts", stats.branchMispredicts) &&
           getU64(json, "loadUseStalls", stats.loadUseStalls) &&
           getU64(json, "exceptions", stats.exceptions) &&
           getU64(json, "procFaults", stats.procFaults) &&
           getU64(json, "procEvictions", stats.procEvictions) &&
           getU64(json, "procCompactedBytes", stats.procCompactedBytes) &&
           getU64(json, "procDecompressedBytes",
                  stats.procDecompressedBytes) &&
           getU64(json, "machineChecks", stats.machineChecks) &&
           getU64(json, "integrityRetries", stats.integrityRetries) &&
           getU64(json, "dmemFaults", stats.dmemFaults) &&
           getU64(json, "dmemEvictions", stats.dmemEvictions) &&
           getU64(json, "dmemSpills", stats.dmemSpills) &&
           getU64(json, "dmemDecompressedBytes",
                  stats.dmemDecompressedBytes) &&
           getU64(json, "l2Hits", stats.l2Hits) &&
           getU64(json, "l2Misses", stats.l2Misses) &&
           getBool(json, "machineCheckHalt", stats.machineCheckHalt) &&
           getBool(json, "cancelled", stats.cancelled) &&
           getEnum(json, "faultKind", cpu::McKind::DmemRange,
                   stats.faultKind) &&
           getU32(json, "faultAddr", stats.faultAddr) &&
           getBool(json, "halted", stats.halted) &&
           getBool(json, "timedOut", stats.timedOut) &&
           getI32(json, "exitCode", stats.exitCode) &&
           getU32(json, "resultValue", stats.resultValue);
}

Json
encodeSystemResult(const core::SystemResult &result)
{
    Json json = Json::object();
    json.set("stats", encodeRunStats(result.stats));
    json.set("originalTextBytes", result.originalTextBytes);
    json.set("compressedPayloadBytes", result.compressedPayloadBytes);
    json.set("nativeRegionBytes", result.nativeRegionBytes);
    json.set("originalDataBytes", result.originalDataBytes);
    json.set("compressedDataBytes", result.compressedDataBytes);
    Json profile = Json::object();
    Json exec = Json::array();
    for (uint64_t count : result.profile.execInsns)
        exec.push(count);
    profile.set("exec", std::move(exec));
    Json misses = Json::array();
    for (uint64_t count : result.profile.missCounts)
        misses.push(count);
    profile.set("misses", std::move(misses));
    // unordered_map has no stable order; sort by key so equal profiles
    // encode to equal bytes (the daemon's result index depends on it).
    std::vector<std::pair<uint64_t, uint64_t>> transitions(
        result.profile.transitions.begin(),
        result.profile.transitions.end());
    std::sort(transitions.begin(), transitions.end());
    Json trans = Json::array();
    for (const auto &[key, count] : transitions) {
        Json pair = Json::array();
        pair.push(key);
        pair.push(count);
        trans.push(std::move(pair));
    }
    profile.set("transitions", std::move(trans));
    json.set("profile", std::move(profile));
    Json reports = Json::array();
    for (const fault::FaultReport &report : result.faultReports) {
        Json reportJson = Json::object();
        reportJson.set("seed", report.plan.seed);
        reportJson.set("site", static_cast<unsigned>(report.plan.site));
        reportJson.set("count", report.plan.count);
        Json injections = Json::array();
        for (const fault::Injection &injection : report.injections) {
            Json injJson = Json::object();
            injJson.set("segment", injection.segment);
            injJson.set("offset", injection.offset);
            injJson.set("bitMask", unsigned(injection.bitMask));
            injJson.set("truncatedBytes", injection.truncatedBytes);
            injections.push(std::move(injJson));
        }
        reportJson.set("injections", std::move(injections));
        reports.push(std::move(reportJson));
    }
    json.set("faultReports", std::move(reports));
    json.set("metrics", result.metrics);
    return json;
}

bool
decodeSystemResult(const harness::Json &json, core::SystemResult &result)
{
    const Json *stats = json.find("stats");
    if (!stats || !decodeRunStats(*stats, result.stats))
        return false;
    if (!getU32(json, "originalTextBytes", result.originalTextBytes) ||
        !getU32(json, "compressedPayloadBytes",
                result.compressedPayloadBytes) ||
        !getU32(json, "nativeRegionBytes", result.nativeRegionBytes) ||
        !getU32(json, "originalDataBytes", result.originalDataBytes) ||
        !getU32(json, "compressedDataBytes",
                result.compressedDataBytes))
        return false;
    const Json *profile = json.find("profile");
    if (!profile || profile->kind() != Json::Kind::Object)
        return false;
    const Json *exec = profile->find("exec");
    const Json *misses = profile->find("misses");
    const Json *trans = profile->find("transitions");
    if (!exec || exec->kind() != Json::Kind::Array || !misses ||
        misses->kind() != Json::Kind::Array || !trans ||
        trans->kind() != Json::Kind::Array)
        return false;
    result.profile.execInsns.clear();
    for (const Json &count : exec->items()) {
        if (count.kind() != Json::Kind::Int)
            return false;
        result.profile.execInsns.push_back(
            static_cast<uint64_t>(count.asInt()));
    }
    result.profile.missCounts.clear();
    for (const Json &count : misses->items()) {
        if (count.kind() != Json::Kind::Int)
            return false;
        result.profile.missCounts.push_back(
            static_cast<uint64_t>(count.asInt()));
    }
    result.profile.transitions.clear();
    for (const Json &pair : trans->items()) {
        if (pair.kind() != Json::Kind::Array || pair.size() != 2 ||
            pair.at(0).kind() != Json::Kind::Int ||
            pair.at(1).kind() != Json::Kind::Int)
            return false;
        result.profile.transitions[static_cast<uint64_t>(
            pair.at(0).asInt())] =
            static_cast<uint64_t>(pair.at(1).asInt());
    }
    const Json *reports = json.find("faultReports");
    if (!reports || reports->kind() != Json::Kind::Array)
        return false;
    result.faultReports.clear();
    for (const Json &reportJson : reports->items()) {
        fault::FaultReport report;
        if (!getU64(reportJson, "seed", report.plan.seed) ||
            !getEnum(reportJson, "site", fault::Site::DataTruncate,
                     report.plan.site) ||
            !getU32(reportJson, "count", report.plan.count))
            return false;
        const Json *injections = reportJson.find("injections");
        if (!injections || injections->kind() != Json::Kind::Array)
            return false;
        for (const Json &injJson : injections->items()) {
            fault::Injection injection;
            unsigned bitMask = 0;
            if (!getString(injJson, "segment", injection.segment) ||
                !getU32(injJson, "offset", injection.offset) ||
                !getUnsigned(injJson, "bitMask", bitMask) ||
                bitMask > 0xff ||
                !getU32(injJson, "truncatedBytes",
                        injection.truncatedBytes))
                return false;
            injection.bitMask = static_cast<uint8_t>(bitMask);
            report.injections.push_back(std::move(injection));
        }
        result.faultReports.push_back(std::move(report));
    }
    const Json *metrics = json.find("metrics");
    if (!metrics)
        return false;
    result.metrics = *metrics;
    return true;
}

Json
encodeJobResult(const harness::JobResult &result)
{
    Json json = Json::object();
    json.set("result", encodeSystemResult(result.result));
    json.set("wallSeconds", Json::exactDouble(result.wallSeconds));
    json.set("ok", result.ok);
    json.set("timedOut", result.timedOut);
    json.set("attempts", result.attempts);
    json.set("error", result.error);
    return json;
}

bool
decodeJobResult(const harness::Json &json, harness::JobResult &result)
{
    const Json *inner = json.find("result");
    return inner && decodeSystemResult(*inner, result.result) &&
           getDouble(json, "wallSeconds", result.wallSeconds) &&
           getBool(json, "ok", result.ok) &&
           getBool(json, "timedOut", result.timedOut) &&
           getUnsigned(json, "attempts", result.attempts) &&
           getString(json, "error", result.error);
}

std::string
jobContentKey(const harness::Job &job)
{
    Json key = Json::object();
    key.set("workload", encodeWorkload(job.workload));
    key.set("config", encodeConfig(job.config));
    return key.dump();
}

std::string
sweepContentId(const std::string &label,
               const harness::Json &encodedJobs)
{
    // One canonical byte string: label, then each job's compact dump,
    // '\n'-separated (the dumps contain no raw newlines).
    std::string canon = label;
    for (size_t i = 0; i < encodedJobs.size(); ++i) {
        canon.push_back('\n');
        canon += encodedJobs.at(i).dump();
    }
    uint64_t hash = harness::stableHash64(canon);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace rtd::serve
