/**
 * @file
 * Deterministic, seed-driven fault injection for compressed images
 * (DESIGN.md section 12).
 *
 * The paper's mechanism keeps code compressed in main memory and
 * reconstructs it on demand, so the compressed structures — codeword
 * streams, dictionaries, mapping tables, and the optional CRC table —
 * are exactly what flash/DRAM corruption would hit in an embedded
 * deployment. An injector takes a reproducible (seed, site, count) plan
 * and corrupts a *copy* of the built image (bit flips at a chosen site,
 * or truncation of the stream's tail, modeling a partially erased
 * flash); every individual corruption is recorded in a FaultReport that
 * travels with the run's results, so any failing plan replays exactly.
 *
 * Injection happens per-System on that System's private copy: the clean
 * BuiltImage stays immutable and shareable (the sweep harness's
 * ArtifactCache hands one instance to many jobs).
 */

#ifndef RTDC_FAULT_FAULT_H
#define RTDC_FAULT_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressed_image.h"
#include "dmem/data_region.h"

namespace rtd::fault {

/**
 * Where a plan injects corruption. The data-side sites (appended after
 * Any so the code-side wire encoding and Site::Any draws are unchanged)
 * target the compressed *data* region (src/dmem/) instead of the code
 * image; System routes them to its private DataRegion copy.
 */
enum class Site : uint8_t
{
    Stream,      ///< compressed text (indices / codewords)
    Dictionary,  ///< dictionary entries (.dictionary)
    HighDict,    ///< CodePack high-halfword dictionary
    LowDict,     ///< CodePack low-halfword dictionary
    MapTable,    ///< mapping table / LAT entries
    CrcTable,    ///< integrity metadata (.crc segment)
    Truncate,    ///< zero the tail of the stream (flash truncation)
    Any,         ///< pick a random applicable *code* site per fault
    DataStream,  ///< compressed data stream (.dstream)
    DataDict,    ///< data unique-word table (.ddict)
    DataMap,     ///< per-page mapping table (.dmap)
    DataCrc,     ///< per-page integrity metadata (.dcrc)
    DataTruncate,///< zero the tail of .dstream
};

const char *siteName(Site site);

/** True for the Site values that corrupt the data region. */
bool isDataSite(Site site);

/** Parse a siteName() string; false when unknown. */
bool siteFromName(const std::string &name, Site &out);

/**
 * The segment a site corrupts under a scheme; nullptr when the site
 * does not apply (e.g. HighDict under the dictionary scheme).
 */
const char *siteSegmentName(compress::Scheme scheme, Site site);

/**
 * The data-region segment a data site corrupts under a data scheme;
 * nullptr when the site does not apply (e.g. DataMap under the
 * dictionary data scheme, which needs no mapping table).
 */
const char *dataSiteSegmentName(dmem::DataScheme scheme, Site site);

/** One reproducible injection plan. */
struct FaultPlan
{
    uint64_t seed = 1;       ///< drives every random choice
    Site site = Site::Any;
    uint32_t count = 1;      ///< bit flips (or truncation events)
};

/** Fault-injection configuration of one System. */
struct FaultConfig
{
    std::vector<FaultPlan> plans;

    bool enabled() const { return !plans.empty(); }
};

/** One concrete corruption the injector applied. */
struct Injection
{
    std::string segment;          ///< segment name (e.g. ".dictionary")
    uint32_t offset = 0;          ///< byte offset within the segment
    uint8_t bitMask = 0;          ///< XOR-ed bits (0 for truncation)
    uint32_t truncatedBytes = 0;  ///< zeroed tail length (truncation)
};

/** Everything one executed plan did, for the run report. */
struct FaultReport
{
    FaultPlan plan;
    std::vector<Injection> injections;

    /** One-line human summary ("seed=7 site=dict flips=3 ..."). */
    std::string summary() const;
};

/**
 * Apply @p plan to @p image (in place). Deterministic: the same plan on
 * the same image always produces the same corruption. Sites that do not
 * apply to the image's scheme (or are empty) fall back to the stream
 * segment, so every plan corrupts *something*.
 */
FaultReport inject(compress::CompressedImage &image,
                   const FaultPlan &plan);

/**
 * Apply a data-site @p plan to @p region (in place), with the same
 * determinism and fall-back-to-.dstream semantics as inject(). The
 * caller re-syncs the page CRC table (dmem::syncPageCrcs) afterwards.
 */
FaultReport injectData(dmem::DataRegion &region, const FaultPlan &plan);

/** Apply every plan of @p config in order. */
std::vector<FaultReport> injectAll(compress::CompressedImage &image,
                                   const FaultConfig &config);

} // namespace rtd::fault

#endif // RTDC_FAULT_FAULT_H
