#include "core/system.h"

#include <string>

#include "compress/codepack.h"
#include "compress/dictionary.h"
#include "compress/integrity.h"
#include "mem/handler_ram.h"
#include "runtime/handlers.h"
#include "support/bitops.h"
#include "support/logging.h"

namespace rtd::core {

const char *
dataCompressionName(DataCompression dc)
{
    switch (dc) {
      case DataCompression::Off:      return "off";
      case DataCompression::DataOnly: return "data";
      case DataCompression::Both:     return "both";
    }
    return "?";
}

double
SystemResult::compressionRatio() const
{
    if (originalTextBytes == 0)
        return 0.0;
    uint64_t compressed = compressedPayloadBytes + nativeRegionBytes;
    return static_cast<double>(compressed) /
           static_cast<double>(originalTextBytes);
}

double
SystemResult::dataCompressionRatio() const
{
    if (originalDataBytes == 0)
        return 0.0;
    return static_cast<double>(compressedDataBytes) /
           static_cast<double>(originalDataBytes);
}

BuiltImage
buildImage(const prog::Program &program, const SystemConfig &config)
{
    BuiltImage built;

    // Region assignment: default everything-native for plain programs,
    // everything-compressed when a scheme is selected.
    std::vector<prog::Region> regions = config.regions;
    if (regions.empty()) {
        regions.assign(program.procs.size(),
                       config.scheme == compress::Scheme::None
                           ? prog::Region::Native
                           : prog::Region::Compressed);
    }
    built.image = prog::link(program, regions, config.order);

    // The data region is orthogonal to the code scheme: built before the
    // line-granular early-outs below so data-only scenarios get one too.
    if (config.dataCompression != DataCompression::Off &&
        config.dmem.scheme != dmem::DataScheme::None &&
        !built.image.data.empty()) {
        built.dregion = dmem::buildDataRegion(
            built.image.data, built.image.dataBase, config.dmem.scheme,
            config.dmem.pageBytes, config.integrity,
            prog::layout::dataCompressedBase);
    }

    if (config.scheme == compress::Scheme::None ||
        config.scheme == compress::Scheme::ProcLzrw1 ||
        built.image.decompText.empty()) {
        // Nothing for a line-granular decompressor to reconstruct: a
        // plain native program, the procedure-granular baseline (whose
        // per-procedure image depends on the cache configuration and is
        // built per-System), or a selection that left everything native.
        return built;
    }

    // Pad the compressed-region stream to a whole number of CodePack
    // groups (64 B; also a whole number of I-cache lines), since the
    // decompressor always reconstructs full lines/groups.
    std::vector<uint32_t> words = built.image.decompText;
    uint32_t pad_words = static_cast<uint32_t>(
        alignUp(words.size() * 4, 64) / 4 - words.size());
    for (uint32_t i = 0; i < pad_words; ++i)
        words.push_back(isa::nopWord());
    built.paddedRegionBytes = static_cast<uint32_t>(words.size()) * 4;

    switch (config.scheme) {
      case compress::Scheme::Dictionary:
        built.cimage = compress::DictionaryCompressor::buildImage(
            words, built.image.decompBase);
        break;
      case compress::Scheme::CodePack:
        built.cimage =
            compress::CodePack::buildImage(words, built.image.decompBase);
        break;
      case compress::Scheme::None:
      case compress::Scheme::ProcLzrw1:
        break;  // unreachable: handled above
    }
    if (config.integrity) {
        // CRC unit = what one decompression fill reconstructs: a
        // 64-byte group for CodePack, a cache line otherwise.
        uint32_t unit = config.scheme == compress::Scheme::CodePack
                            ? 64
                            : config.cpu.icache.lineBytes;
        compress::attachIntegrity(built.cimage, words, unit);
    }
    return built;
}

namespace {

/** Data-region half of validateBuiltImage. */
std::string
validateDataRegion(const BuiltImage &built, const SystemConfig &config)
{
    if (config.dataCompression == DataCompression::Off ||
        built.image.data.empty()) {
        return {};
    }
    const dmem::DataRegion &dr = built.dregion;
    if (dr.empty())
        return "corrupt data region: no pages built";

    auto need = [&dr](const char *name,
                      size_t min_bytes) -> std::string {
        const compress::CompressedSegment *seg = dr.segment(name);
        if (!seg)
            return std::string("missing segment ") + name;
        if (seg->bytes.size() < min_bytes) {
            return std::string(name) + " is " +
                   std::to_string(seg->bytes.size()) +
                   " bytes, need at least " + std::to_string(min_bytes);
        }
        return {};
    };

    std::string err;
    switch (dr.scheme) {
      case dmem::DataScheme::Dictionary:
        // One 16-bit index per data word, word-sized table entries.
        err = need(".dstream",
                   static_cast<size_t>(dr.numPages) * dr.pageBytes / 2);
        if (err.empty())
            err = need(".ddict", 4);
        if (err.empty() &&
            dr.segment(".ddict")->bytes.size() % 4 != 0) {
            err = ".ddict is not a whole number of words";
        }
        break;
      case dmem::DataScheme::Lzrw1:
        err = need(".dstream", 1);
        if (err.empty()) {
            err = need(".dmap", static_cast<size_t>(dr.numPages) *
                                    dmem::kMapEntryBytes);
        }
        break;
      case dmem::DataScheme::None:
        err = "scheme is none";
        break;
    }
    if (err.empty() && config.integrity)
        err = need(".dcrc", static_cast<size_t>(dr.numPages) * 4);
    if (err.empty() && dr.base != built.image.dataBase) {
        err = "region base " + std::to_string(dr.base) +
              " does not match the linked data base " +
              std::to_string(built.image.dataBase);
    }
    if (!err.empty())
        return "corrupt data region: " + err;
    return {};
}

} // namespace

std::string
lineSizeError(const SystemConfig &config)
{
    uint32_t line = config.cpu.icache.lineBytes;
    const char *needs = nullptr;
    if (config.scheme == compress::Scheme::Dictionary &&
        (line < 8 || line > 64))
        needs = "an 8-64 B";
    else if (config.scheme == compress::Scheme::CodePack && line != 32)
        needs = "a 32 B";
    if (!needs)
        return {};
    return std::string(compress::schemeName(config.scheme)) +
           " decompression needs " + needs + " I-line, not " +
           std::to_string(line) + " B";
}

std::string
validateBuiltImage(const BuiltImage &built, const SystemConfig &config)
{
    std::string derr = validateDataRegion(built, config);
    if (!derr.empty())
        return derr;

    using compress::Scheme;
    if (config.scheme == Scheme::None ||
        config.scheme == Scheme::ProcLzrw1 ||
        built.image.decompText.empty()) {
        return {};  // no line-granular compressed image to validate
    }
    std::string line_err = lineSizeError(config);
    if (!line_err.empty())
        return line_err;
    const compress::CompressedImage &ci = built.cimage;

    auto need = [&ci](const char *name,
                      size_t min_bytes) -> std::string {
        const compress::CompressedSegment *seg = ci.segment(name);
        if (!seg)
            return std::string("missing segment ") + name;
        if (seg->bytes.size() < min_bytes) {
            return std::string(name) + " is " +
                   std::to_string(seg->bytes.size()) +
                   " bytes, need at least " + std::to_string(min_bytes);
        }
        return {};
    };
    std::string err;
    switch (config.scheme) {
      case Scheme::Dictionary:
        // One 16-bit index per instruction word, word-sized entries.
        err = need(".indices", built.paddedRegionBytes / 2);
        if (err.empty())
            err = need(".dictionary", 4);
        if (err.empty() &&
            ci.segment(".dictionary")->bytes.size() % 4 != 0) {
            err = ".dictionary is not a whole number of words";
        }
        break;
      case Scheme::CodePack: {
        uint32_t groups = built.paddedRegionBytes / 64;
        err = need(".codewords", 1);
        if (err.empty())
            err = need(".map", 4 * ((groups + 1) / 2));  // u32 per pair
        if (err.empty())
            err = need(".highdict", 2);
        if (err.empty())
            err = need(".lowdict", 2);
        break;
      }
      default:
        break;
    }
    if (!err.empty())
        return "corrupt compressed image: " + err;
    if (ci.c0[isa::C0DecompBase] != built.image.decompBase) {
        return "corrupt compressed image: c0 decompressed base " +
               std::to_string(ci.c0[isa::C0DecompBase]) +
               " does not match the linked region base " +
               std::to_string(built.image.decompBase);
    }
    return {};
}

System::System(const prog::Program &program, const SystemConfig &config)
    : System(std::make_shared<const BuiltImage>(buildImage(program,
                                                           config)),
             config)
{
}

System::System(std::shared_ptr<const BuiltImage> built,
               const SystemConfig &config)
    : config_(config), built_(std::move(built))
{
    const prog::LoadedImage &image = built_->image;

    if (config_.dataCompression != DataCompression::Off) {
        if (config_.dmem.scheme == dmem::DataScheme::None) {
            throw SimError("dataCompression enabled with data scheme "
                           "none");
        }
        if (config_.dataCompression == DataCompression::DataOnly &&
            config_.scheme != compress::Scheme::None) {
            throw SimError("dataCompression=data requires scheme=none "
                           "(use dataCompression=both)");
        }
        if (config_.dataCompression == DataCompression::Both &&
            (config_.scheme == compress::Scheme::None ||
             config_.scheme == compress::Scheme::ProcLzrw1)) {
            throw SimError("dataCompression=both requires a "
                           "line-granular code scheme");
        }
    }
    // A program with no initialized data degenerates to code-only.
    bool dmem_active = config_.dataCompression != DataCompression::Off &&
                       !built_->dregion.empty();

    memory_ = mem::MainMemory(config.cpu.memTiming);

    // Native-region text and data live in main memory. With data
    // compression the data pages are deliberately *absent*: their
    // backing stays zero until the D-miss handler materializes them.
    if (!image.nativeText.empty()) {
        for (size_t i = 0; i < image.nativeText.size(); ++i) {
            memory_.write32(image.nativeBase +
                                static_cast<uint32_t>(i) * 4,
                            image.nativeText[i]);
        }
    }
    if (!image.data.empty() && !dmem_active) {
        memory_.writeBlock(image.dataBase, image.data.data(),
                           image.data.size());
    }

    bool line_scheme = config_.scheme != compress::Scheme::None &&
                       config_.scheme != compress::Scheme::ProcLzrw1 &&
                       !image.decompText.empty();
    if (line_scheme || dmem_active) {
        // Reject malformed images with a diagnostic before anything
        // downstream (handler, caches) can trip an assert on them.
        std::string diag = validateBuiltImage(*built_, config_);
        if (!diag.empty())
            throw SimError(diag);
    }
    // Fault plans corrupt a private copy of the shared compressed image
    // (data sites: of the shared data region); the ground-truth
    // decompression self-check must be off for those runs (detecting
    // the corruption is the Cpu fault path's job).
    const compress::CompressedImage *cimage = &built_->cimage;
    const dmem::DataRegion *dregion = &built_->dregion;
    if (config_.fault.enabled() && (line_scheme || dmem_active)) {
        config_.cpu.verifyDecompression = false;
        faultedImage_ = built_->cimage;
        faultedDataRegion_ = built_->dregion;
        faultReports_.reserve(config_.fault.plans.size());
        for (const fault::FaultPlan &plan : config_.fault.plans) {
            bool data_site = fault::isDataSite(plan.site);
            if (data_site && dmem_active) {
                faultReports_.push_back(
                    fault::injectData(faultedDataRegion_, plan));
            } else if (!data_site && line_scheme) {
                faultReports_.push_back(
                    fault::inject(faultedImage_, plan));
            } else {
                // Site side not present in this scenario: record the
                // plan with no injections so report order is stable.
                fault::FaultReport report;
                report.plan = plan;
                faultReports_.push_back(std::move(report));
            }
        }
        // Both injectors corrupt raw segment bytes; re-parse so a
        // corrupted CRC table is what the "hardware" compares against.
        compress::syncCrcsFromSegment(faultedImage_);
        dmem::syncPageCrcs(faultedDataRegion_);
        cimage = &faultedImage_;
        dregion = &faultedDataRegion_;
    }

    if (config_.observe.enabled) {
        observer_ = std::make_unique<obs::Observer>(
            config_.observe, config_.cpu.icache.lineBytes);
        config_.cpu.observer = observer_.get();
    }

    cpu_ = std::make_unique<cpu::Cpu>(config_.cpu, memory_, image);

    if (config_.scheme == compress::Scheme::ProcLzrw1) {
        // Procedure-based baseline: whole program compressed
        // per-procedure; no selective hybrid form.
        RTDC_ASSERT(image.nativeText.empty(),
                    "ProcLzrw1 does not support selective compression");
        pimage_ = proccache::compressProcedures(image);
        for (const compress::CompressedSegment &seg :
             pimage_.memory.segments) {
            memory_.writeBlock(seg.base, seg.bytes.data(),
                               seg.bytes.size());
        }
        procHandler_ = proccache::buildLzrw1Handler();
        cpu_->attachProcDecompressor(pimage_, procHandler_,
                                     config_.procCache);
    } else if (line_scheme) {
        for (const compress::CompressedSegment &seg : cimage->segments) {
            memory_.writeBlock(seg.base, seg.bytes.data(),
                               seg.bytes.size());
        }

        runtime::HandlerBuild handler = runtime::buildHandler(
            config_.scheme, config_.secondRegFile,
            config_.cpu.icache.lineBytes);
        if (dmem_active) {
            // "both": one handler image, the data-miss handler placed
            // right after the code handler in the same handler RAM.
            uint32_t entry_offset = handler.sizeBytes();
            runtime::HandlerBuild data = runtime::buildDataHandler(
                dregion->scheme, config_.secondRegFile,
                dregion->pageBytes,
                mem::HandlerRam::base + entry_offset);
            handler.code.insert(handler.code.end(), data.code.begin(),
                                data.code.end());
            dataHandler_ = handler;
            // Order matters: attachDecompressor overwrites all c0
            // registers from cimage; the data attach writes its own
            // c0 slots afterwards.
            cpu_->attachDecompressor(*cimage, dataHandler_,
                                     built_->paddedRegionBytes,
                                     config_.fault.enabled());
            cpu_->attachDataDecompressor(*dregion, dataHandler_,
                                         entry_offset,
                                         config_.dmem.stagingPages);
        } else {
            cpu_->attachDecompressor(*cimage, handler,
                                     built_->paddedRegionBytes,
                                     config_.fault.enabled());
        }
    } else if (dmem_active) {
        // Data-only: the data-miss handler is the whole handler image.
        dataHandler_ = runtime::buildDataHandler(
            dregion->scheme, config_.secondRegFile, dregion->pageBytes,
            mem::HandlerRam::base);
        cpu_->attachDataDecompressor(*dregion, dataHandler_, 0,
                                     config_.dmem.stagingPages);
    }

    if (dmem_active) {
        // The compressed data structures live in memory at their fixed
        // VAs (the handler reads them through the D-side).
        for (const compress::CompressedSegment &seg :
             dregion->segments) {
            memory_.writeBlock(seg.base, seg.bytes.data(),
                               seg.bytes.size());
        }
    }

    if (config_.profiling)
        cpu_->enableProfiling();
}

System::~System() = default;

SystemResult
System::run()
{
    const prog::LoadedImage &image = built_->image;
    SystemResult result;
    if (observer_)
        observer_->jobBegin(image.name, 0);
    result.stats = cpu_->run();
    if (observer_) {
        observer_->jobEnd(result.stats.cycles, result.stats.userInsns);
        result.metrics = observer_->metricsJson();
    }
    if (result.stats.timedOut) {
        warn("%s: run stopped by maxUserInsns after %llu instructions",
             image.name.c_str(),
             static_cast<unsigned long long>(result.stats.userInsns));
    }
    result.originalTextBytes = image.textBytes();
    result.compressedPayloadBytes =
        config_.scheme == compress::Scheme::ProcLzrw1
            ? pimage_.compressedBytes()
            : built_->cimage.compressedBytes();
    result.nativeRegionBytes = image.nativeTextBytes();
    result.originalDataBytes = built_->dregion.spanBytes();
    result.compressedDataBytes = built_->dregion.compressedBytes();
    result.faultReports = faultReports_;
    if (config_.profiling) {
        result.profile = profile::remapProfile(
            image, cpu_->procExecInsns(), cpu_->procMisses(),
            cpu_->procTransitions());
    }
    return result;
}

} // namespace rtd::core
