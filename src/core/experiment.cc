#include "core/experiment.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "compress/lzrw1.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::core {

cpu::CpuConfig
paperMachine(uint32_t icache_bytes)
{
    cpu::CpuConfig config;
    config.icache = {icache_bytes, 32, 2};
    config.dcache = {8 * 1024, 16, 2};
    config.predictorEntries = 2048;
    config.memTiming = mem::MemoryTiming{};
    // Generous safety stop: every experiment halts by itself.
    config.maxUserInsns = 2'000'000'000ull;
    return config;
}

SystemResult
runNative(const prog::Program &program, const cpu::CpuConfig &machine,
          const std::vector<int32_t> &order)
{
    SystemConfig config;
    config.cpu = machine;
    config.scheme = compress::Scheme::None;
    config.order = order;
    System system(program, config);
    return system.run();
}

SystemResult
runCompressed(const prog::Program &program, compress::Scheme scheme,
              bool second_reg_file, const cpu::CpuConfig &machine,
              const std::vector<prog::Region> &regions,
              const std::vector<int32_t> &order)
{
    SystemConfig config;
    config.cpu = machine;
    config.scheme = scheme;
    config.secondRegFile = second_reg_file;
    config.regions = regions;
    config.order = order;
    System system(program, config);
    return system.run();
}

profile::ProcedureProfile
profileProgram(const prog::Program &program, const cpu::CpuConfig &machine)
{
    SystemConfig config;
    config.cpu = machine;
    config.scheme = compress::Scheme::None;
    config.profiling = true;
    System system(program, config);
    return system.run().profile;
}

double
slowdown(const SystemResult &run, const SystemResult &native)
{
    return ratio(run.stats.cycles, native.stats.cycles);
}

double
lzrw1TextRatio(const prog::Program &program)
{
    prog::LoadedImage image = prog::link(program);
    std::vector<uint8_t> text(image.nativeText.size() * 4);
    for (size_t i = 0; i < image.nativeText.size(); ++i) {
        uint32_t w = image.nativeText[i];
        text[i * 4] = static_cast<uint8_t>(w);
        text[i * 4 + 1] = static_cast<uint8_t>(w >> 8);
        text[i * 4 + 2] = static_cast<uint8_t>(w >> 16);
        text[i * 4 + 3] = static_cast<uint8_t>(w >> 24);
    }
    std::vector<uint8_t> compressed = compress::Lzrw1::compress(text);
    return percent(compressed.size(), text.size());
}

std::vector<prog::Region>
dictionaryCapacityRegions(const prog::Program &program, size_t max_uniques)
{
    // Walk procedures in program order over a fully compressed link,
    // accumulating unique instruction words; once a procedure would
    // overflow the dictionary, it and everything after it stay native.
    prog::LoadedImage image = prog::linkFullyCompressed(program);
    std::vector<prog::Region> regions(program.procs.size(),
                                      prog::Region::Compressed);
    std::unordered_set<uint32_t> uniques;
    uniques.reserve(max_uniques);
    bool overflowed = false;
    // image.procs is sorted by base == program order for a full link.
    for (const prog::LinkedProc &proc : image.procs) {
        if (!overflowed) {
            for (uint32_t off = 0; off < proc.size; off += 4) {
                uniques.insert(
                    image.decompText[(proc.base - image.decompBase +
                                      off) / 4]);
            }
            if (uniques.size() <= max_uniques)
                continue;
            // This procedure tipped the dictionary over: it and every
            // following procedure stay native.
            overflowed = true;
        }
        regions[proc.progIndex] = prog::Region::Native;
    }
    return regions;
}

double
positiveNumber(const char *what, const char *text)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value) ||
        value <= 0.0)
        fatal("bad %s '%s': need a positive number", what, text);
    return value;
}

bool
parseCount(const char *text, uint64_t max, uint64_t &value)
{
    // strtoull would accept leading space and a sign ("-1" wraps to
    // 2^64-1), so insist on a digit first.
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno != 0 || parsed > max)
        return false;
    value = parsed;
    return true;
}

double
benchScaleFromEnv()
{
    const char *env = std::getenv("RTDC_BENCH_SCALE");
    return env ? positiveNumber("RTDC_BENCH_SCALE", env) : 1.0;
}

} // namespace rtd::core
