#include "harness/artifact_cache.h"

#include <cstdio>

namespace rtd::harness {

uint64_t
stableHash64(std::string_view bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

void
appendField(std::string &key, const char *name, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "|%s=%.17g", name, value);
    key += buf;
}

void
appendField(std::string &key, const char *name, uint64_t value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "|%s=%llu", name,
                  static_cast<unsigned long long>(value));
    key += buf;
}

} // namespace

std::string
ArtifactCache::workloadKey(const workload::WorkloadSpec &spec)
{
    std::string key = "workload|name=" + spec.name;
    appendField(key, "seed", spec.seed);
    appendField(key, "text", uint64_t(spec.targetTextBytes));
    appendField(key, "hot", uint64_t(spec.hotProcs));
    appendField(key, "cold", uint64_t(spec.coldProcs));
    appendField(key, "hotFrac", spec.hotTextFraction);
    appendField(key, "uniq", spec.uniqueFraction);
    appendField(key, "reuse", spec.reuseSkew);
    appendField(key, "br", spec.branchDensity);
    appendField(key, "mem", spec.memDensity);
    appendField(key, "dyn", spec.targetDynamicInsns);
    appendField(key, "iters", uint64_t(spec.hotLoopIters));
    appendField(key, "calls", uint64_t(spec.coldCallsPerIter));
    appendField(key, "zipf", spec.coldZipfTheta);
    appendField(key, "burst", uint64_t(spec.coldBurst));
    appendField(key, "dataB", uint64_t(spec.dataBytesPerProc));
    return key;
}

std::string
ArtifactCache::imageKey(const workload::WorkloadSpec &spec,
                        const core::SystemConfig &config)
{
    std::string key = "image|" + workloadKey(spec);
    appendField(key, "scheme",
                uint64_t(static_cast<unsigned>(config.scheme)));
    // Integrity metadata changes the built image (a .crc segment per
    // unit); keyed only when enabled so pre-existing sweeps keep their
    // exact keys.
    if (config.integrity) {
        appendField(key, "crcunit",
                    uint64_t(config.scheme == compress::Scheme::CodePack
                                 ? 64
                                 : config.cpu.icache.lineBytes));
    }
    // The data region rides in the BuiltImage too; keyed only when on so
    // pre-existing sweeps keep their exact keys.
    if (config.dataCompression != core::DataCompression::Off) {
        appendField(key, "dscheme",
                    uint64_t(static_cast<unsigned>(config.dmem.scheme)));
        appendField(key, "dpage", uint64_t(config.dmem.pageBytes));
    }
    key += "|regions=";
    for (prog::Region region : config.regions)
        key += region == prog::Region::Native ? 'N' : 'C';
    key += "|order=";
    for (int32_t index : config.order) {
        key += std::to_string(index);
        key += ',';
    }
    return key;
}

std::shared_ptr<const void>
ArtifactCache::getOrBuild(
    const std::string &key,
    const std::function<std::shared_ptr<const void>()> &build)
{
    std::promise<std::shared_ptr<const void>> promise;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            std::shared_future<std::shared_ptr<const void>> ready =
                it->second;
            lock.unlock();
            hits_.fetch_add(1);
            return ready.get();  // may block on an in-flight builder
        }
        entries_.emplace(key, promise.get_future().share());
    }
    try {
        builds_.fetch_add(1);
        std::shared_ptr<const void> value = build();
        promise.set_value(value);
        return value;
    } catch (...) {
        promise.set_exception(std::current_exception());
        throw;
    }
}

std::shared_ptr<const prog::Program>
ArtifactCache::program(const workload::WorkloadSpec &spec)
{
    std::shared_ptr<const void> value = getOrBuild(
        workloadKey(spec),
        [&spec]() -> std::shared_ptr<const void> {
            workload::WorkloadGenerator gen(spec);
            return std::make_shared<const prog::Program>(gen.generate());
        });
    return std::static_pointer_cast<const prog::Program>(value);
}

std::shared_ptr<const core::BuiltImage>
ArtifactCache::builtImage(const workload::WorkloadSpec &spec,
                          const core::SystemConfig &config)
{
    // The program is resolved inside the image builder, so a warm image
    // lookup never touches the program entry, and two jobs with
    // different configs over the same workload still share one Program.
    std::shared_ptr<const void> value = getOrBuild(
        imageKey(spec, config),
        [this, &spec, &config]() -> std::shared_ptr<const void> {
            std::shared_ptr<const prog::Program> prog = program(spec);
            return std::make_shared<const core::BuiltImage>(
                core::buildImage(*prog, config));
        });
    return std::static_pointer_cast<const core::BuiltImage>(value);
}

} // namespace rtd::harness
