/**
 * @file
 * The top-level System: wires a linked program, main memory, the
 * compression scheme, the exception handler, and the CPU into one
 * runnable simulation — the public entry point of the library.
 *
 * Typical use:
 * @code
 *   rtd::workload::WorkloadGenerator gen(spec);
 *   rtd::prog::Program program = gen.generate();
 *
 *   rtd::core::SystemConfig config;
 *   config.scheme = rtd::compress::Scheme::Dictionary;
 *   config.secondRegFile = true;
 *   rtd::core::System system(program, config);
 *   rtd::core::SystemResult result = system.run();
 * @endcode
 */

#ifndef RTDC_CORE_SYSTEM_H
#define RTDC_CORE_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "compress/compressed_image.h"
#include "cpu/cpu.h"
#include "dmem/data_region.h"
#include "fault/fault.h"
#include "harness/json.h"
#include "mem/main_memory.h"
#include "obs/observer.h"
#include "proccache/proc_image.h"
#include "profile/profile.h"
#include "program/linker.h"
#include "program/program.h"

namespace rtd::core {

/**
 * Which memory sides are compressed (DESIGN.md section 18): the
 * code/data/both scenario axis. `DataOnly` requires scheme == None
 * (the code stays native); `Both` requires a line-granular code scheme.
 */
enum class DataCompression : uint8_t
{
    Off,      ///< data region uncompressed (everything before src/dmem/)
    DataOnly, ///< only the data region is compressed
    Both,     ///< code (SystemConfig::scheme) and data both compressed
};

const char *dataCompressionName(DataCompression dc);

/** Data-side compression parameters (dataCompression != Off). */
struct DmemConfig
{
    dmem::DataScheme scheme = dmem::DataScheme::Dictionary;
    uint32_t pageBytes = dmem::kDefaultPageBytes;
    /** Staging cap on concurrently resident pages; 0 = unlimited. */
    uint32_t stagingPages = 0;
};

/** Full configuration of one simulated machine + program binding. */
struct SystemConfig
{
    cpu::CpuConfig cpu;  ///< machine parameters (defaults = Table 1)
    compress::Scheme scheme = compress::Scheme::None;
    /** Data-region compression scenario (src/dmem/; off by default). */
    DataCompression dataCompression = DataCompression::Off;
    /** Data-side parameters (read when dataCompression != Off). */
    DmemConfig dmem;
    bool secondRegFile = false;  ///< handler uses the shadow register file
    /**
     * Per-procedure region assignment for selective compression. Empty
     * means: everything native when scheme == None, everything
     * compressed otherwise.
     */
    std::vector<prog::Region> regions;
    /**
     * Optional procedure emission order (profile-guided placement); a
     * permutation of procedure indices. Empty keeps program order.
     */
    std::vector<int32_t> order;
    bool profiling = false;  ///< collect per-procedure exec/miss counts
    /** Procedure-cache parameters (Scheme::ProcLzrw1 only). */
    proccache::ProcCacheConfig procCache;
    /**
     * Emit per-unit CRC-32 integrity metadata with the compressed image
     * (DESIGN.md section 12): the Cpu re-checks every decompressed unit
     * and raises an IntegrityFail machine check on mismatch. Off by
     * default — results and image layout are byte-identical to builds
     * that predate the fault subsystem when disabled.
     */
    bool integrity = false;
    /**
     * Fault-injection plans applied to this System's private copy of the
     * compressed image (src/fault/). Non-empty plans disable
     * cpu.verifyDecompression (the ground-truth self-check would panic
     * on the corruption the run is meant to study) and surface a
     * FaultReport per plan in SystemResult::faultReports.
     */
    fault::FaultConfig fault;
    /**
     * Observability (src/obs/): when enabled the System creates an
     * obs::Observer, points cpu.observer at it, and fills
     * SystemResult::metrics after the run. Off by default with the
     * byte-identical-when-off guarantee the predecode/blocks/fault
     * subsystems established: stdout, BENCH_*.json and RunStats are
     * unchanged when disabled.
     */
    obs::ObserveConfig observe;
};

/** Everything a System run produces. */
struct SystemResult
{
    cpu::RunStats stats;

    uint32_t originalTextBytes = 0;    ///< total text of the program
    uint32_t compressedPayloadBytes = 0;  ///< segments in memory
    uint32_t nativeRegionBytes = 0;    ///< text left native

    /// @name Data side (zero unless dataCompression != Off)
    /// @{
    uint32_t originalDataBytes = 0;    ///< page-padded initialized data
    uint32_t compressedDataBytes = 0;  ///< data-region segments in memory
    /// @}

    /** Per-procedure profile (Program order); filled when profiling. */
    profile::ProcedureProfile profile;

    /** What the fault injector did (one report per configured plan). */
    std::vector<fault::FaultReport> faultReports;

    /**
     * Observer::metricsJson() of this run — counters, histograms, and
     * trace/heat summaries. JSON null unless SystemConfig::observe was
     * enabled.
     */
    harness::Json metrics;

    /**
     * The paper's compression ratio (Eq. 1): compressed size / original
     * size. For hybrids the numerator includes the native-region text.
     */
    double compressionRatio() const;

    /** Data-side ratio: compressed data / original data (0 when off). */
    double dataCompressionRatio() const;
};

/**
 * The immutable link + compress products of one simulation point: the
 * linked memory image and (when a line-granular scheme is selected) the
 * compressed image with its dictionaries. Building these is the
 * expensive, machine-independent front half of constructing a System;
 * a BuiltImage is never mutated after buildImage() returns, so one
 * instance can back many Systems concurrently (the sweep harness's
 * ArtifactCache shares them across jobs).
 */
struct BuiltImage
{
    prog::LoadedImage image;
    /** Empty for Scheme::None and Scheme::ProcLzrw1. */
    compress::CompressedImage cimage;
    /** Compressed-region bytes including group padding. */
    uint32_t paddedRegionBytes = 0;
    /** Compressed data region; empty unless dataCompression != Off. */
    dmem::DataRegion dregion;
};

/**
 * Link @p program and compress its compressed region as System's
 * constructor would. Reads only config.scheme, config.regions,
 * config.order, config.integrity, config.dataCompression, config.dmem
 * and (for integrity) config.cpu.icache.lineBytes — the rest of the
 * configuration can vary freely across Systems that share the result.
 */
BuiltImage buildImage(const prog::Program &program,
                      const SystemConfig &config);

/**
 * The I-line sizes the line decompressors can fill: the CodePack
 * handler expands 32 B lines, the dictionary handler 8 to 64 B lines
 * (buildImage pads the compressed region to whole 64 B groups, so a
 * longer line would run past it). Returns a diagnostic for any other
 * line size under a line-granular scheme, else an empty string.
 */
std::string lineSizeError(const SystemConfig &config);

/**
 * Structural validation of a (possibly externally supplied or corrupted)
 * BuiltImage against @p config before a System is constructed around it:
 * an I-line size the scheme's handler can fill (lineSizeError), required
 * segments present and plausibly sized, c0 registers consistent with
 * the image layout. Returns an empty string when the image is
 * well-formed, else a diagnostic; System's constructor throws SimError
 * with that diagnostic instead of asserting deep inside the simulator.
 */
std::string validateBuiltImage(const BuiltImage &built,
                               const SystemConfig &config);

/** One runnable simulation instance. */
class System
{
  public:
    /**
     * Build the system: links the program, loads memory, compresses the
     * compressed region, assembles and loads the matching handler.
     */
    System(const prog::Program &program, const SystemConfig &config);

    /**
     * Build the system around pre-built (possibly shared) link/compress
     * products. @p built must have been produced by buildImage() with a
     * config whose image-relevant fields match @p config.
     */
    System(std::shared_ptr<const BuiltImage> built,
           const SystemConfig &config);

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion and collect results. */
    SystemResult run();

    /// @name Handler-replay trace sharing (DESIGN.md section 19)
    /// @{
    /** Cpu::seedTraces: call before run(). */
    bool seedTraces(std::shared_ptr<const cpu::FrozenTraces> base)
    {
        return cpu_->seedTraces(std::move(base));
    }
    /** Cpu::freezeTraces: call after run(). */
    std::shared_ptr<const cpu::FrozenTraces> freezeTraces() const
    {
        return cpu_->freezeTraces();
    }
    /// @}

    /// @name Introspection (valid after construction)
    /// @{
    const prog::LoadedImage &image() const { return built_->image; }
    const compress::CompressedImage &compressedImage() const
    {
        return built_->cimage;
    }
    const cpu::Cpu &cpu() const { return *cpu_; }
    const mem::MainMemory &memory() const { return memory_; }
    /** nullptr unless SystemConfig::observe.enabled. */
    const obs::Observer *observer() const { return observer_.get(); }
    /// @}

  private:
    SystemConfig config_;
    std::shared_ptr<const BuiltImage> built_;
    mem::MainMemory memory_;
    proccache::ProcCompressedImage pimage_;
    runtime::HandlerBuild procHandler_;
    /** The loaded data-handler build (dataCompression != Off). */
    runtime::HandlerBuild dataHandler_;
    /** Private corrupted copy of built_->cimage (fault plans only). */
    compress::CompressedImage faultedImage_;
    /** Private corrupted copy of built_->dregion (data fault plans). */
    dmem::DataRegion faultedDataRegion_;
    std::vector<fault::FaultReport> faultReports_;
    /** Created before the Cpu (which holds a raw pointer to it). */
    std::unique_ptr<obs::Observer> observer_;
    std::unique_ptr<cpu::Cpu> cpu_;
};

} // namespace rtd::core

#endif // RTDC_CORE_SYSTEM_H
