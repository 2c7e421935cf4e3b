#include "fault/fault.h"

#include <algorithm>
#include <cstdio>

#include "compress/integrity.h"
#include "support/rng.h"

namespace rtd::fault {

namespace {

/** Mutable segment lookup (CompressedImage only exposes const). */
compress::CompressedSegment *
findSegment(compress::CompressedImage &image, const std::string &name)
{
    for (auto &seg : image.segments) {
        if (seg.name == name)
            return &seg;
    }
    return nullptr;
}

/** Code sites a random Any/fallback choice may land on, in enum order.
 *  Data sites are deliberately excluded so Site::Any draws (and their
 *  seeds) are unchanged by the data-side extension. */
constexpr Site kConcreteSites[] = {
    Site::Stream,   Site::Dictionary, Site::HighDict, Site::LowDict,
    Site::MapTable, Site::CrcTable,   Site::Truncate,
};

/** Data sites, for name parsing. */
constexpr Site kDataSites[] = {
    Site::DataStream, Site::DataDict, Site::DataMap, Site::DataCrc,
    Site::DataTruncate,
};

/** Mutable data-region segment lookup. */
compress::CompressedSegment *
findDataSegment(dmem::DataRegion &region, const std::string &name)
{
    for (auto &seg : region.segments) {
        if (seg.name == name)
            return &seg;
    }
    return nullptr;
}

/** Non-empty target data segment for @p site, or nullptr. */
compress::CompressedSegment *
resolveDataSite(dmem::DataRegion &region, Site site)
{
    Site lookup = site == Site::DataTruncate ? Site::DataStream : site;
    const char *name = dataSiteSegmentName(region.scheme, lookup);
    if (!name)
        return nullptr;
    compress::CompressedSegment *seg = findDataSegment(region, name);
    if (!seg || seg->bytes.empty())
        return nullptr;
    return seg;
}

/** Non-empty target segment for @p site, or nullptr. */
compress::CompressedSegment *
resolveSite(compress::CompressedImage &image, Site site)
{
    Site lookup = site == Site::Truncate ? Site::Stream : site;
    const char *name = siteSegmentName(image.scheme, lookup);
    if (!name)
        return nullptr;
    compress::CompressedSegment *seg = findSegment(image, name);
    if (!seg || seg->bytes.empty())
        return nullptr;
    return seg;
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
      case Site::Stream:     return "stream";
      case Site::Dictionary: return "dict";
      case Site::HighDict:   return "highdict";
      case Site::LowDict:    return "lowdict";
      case Site::MapTable:   return "map";
      case Site::CrcTable:   return "crc";
      case Site::Truncate:   return "truncate";
      case Site::Any:        return "any";
      case Site::DataStream:   return "dstream";
      case Site::DataDict:     return "ddict";
      case Site::DataMap:      return "dmap";
      case Site::DataCrc:      return "dcrc";
      case Site::DataTruncate: return "dtruncate";
    }
    return "?";
}

bool
isDataSite(Site site)
{
    return site >= Site::DataStream && site <= Site::DataTruncate;
}

bool
siteFromName(const std::string &name, Site &out)
{
    for (Site s : kConcreteSites) {
        if (name == siteName(s)) {
            out = s;
            return true;
        }
    }
    for (Site s : kDataSites) {
        if (name == siteName(s)) {
            out = s;
            return true;
        }
    }
    if (name == siteName(Site::Any)) {
        out = Site::Any;
        return true;
    }
    return false;
}

const char *
siteSegmentName(compress::Scheme scheme, Site site)
{
    using compress::Scheme;
    switch (scheme) {
      case Scheme::Dictionary:
        switch (site) {
          case Site::Stream:     return ".indices";
          case Site::Dictionary: return ".dictionary";
          case Site::CrcTable:   return ".crc";
          default:               return nullptr;
        }
      case Scheme::CodePack:
        switch (site) {
          case Site::Stream:   return ".codewords";
          case Site::MapTable: return ".map";
          case Site::HighDict: return ".highdict";
          case Site::LowDict:  return ".lowdict";
          case Site::CrcTable: return ".crc";
          default:             return nullptr;
        }
      default:
        return nullptr;
    }
}

const char *
dataSiteSegmentName(dmem::DataScheme scheme, Site site)
{
    using dmem::DataScheme;
    switch (scheme) {
      case DataScheme::Dictionary:
        switch (site) {
          case Site::DataStream: return ".dstream";
          case Site::DataDict:   return ".ddict";
          case Site::DataCrc:    return ".dcrc";
          default:               return nullptr;
        }
      case DataScheme::Lzrw1:
        switch (site) {
          case Site::DataStream: return ".dstream";
          case Site::DataMap:    return ".dmap";
          case Site::DataCrc:    return ".dcrc";
          default:               return nullptr;
        }
      default:
        return nullptr;
    }
}

std::string
FaultReport::summary() const
{
    char head[96];
    std::snprintf(head, sizeof head, "seed=%llu site=%s count=%u:",
                  static_cast<unsigned long long>(plan.seed),
                  siteName(plan.site), plan.count);
    std::string out = head;
    for (const Injection &inj : injections) {
        char buf[96];
        if (inj.truncatedBytes) {
            std::snprintf(buf, sizeof buf, " %s[-%u..]=0",
                          inj.segment.c_str(), inj.truncatedBytes);
        } else {
            std::snprintf(buf, sizeof buf, " %s[%u]^=0x%02x",
                          inj.segment.c_str(), inj.offset, inj.bitMask);
        }
        out += buf;
    }
    if (injections.empty())
        out += " (no applicable site)";
    return out;
}

FaultReport
inject(compress::CompressedImage &image, const FaultPlan &plan)
{
    FaultReport report;
    report.plan = plan;
    Rng rng(plan.seed);

    for (uint32_t n = 0; n < plan.count; ++n) {
        Site site = plan.site;
        compress::CompressedSegment *seg = nullptr;
        if (site == Site::Any) {
            // Uniform over the sites that exist in this image. Collect
            // first so the draw is stable across schemes.
            std::vector<Site> applicable;
            for (Site s : kConcreteSites) {
                if (resolveSite(image, s))
                    applicable.push_back(s);
            }
            if (applicable.empty())
                break;
            site = applicable[rng.nextBelow(applicable.size())];
            seg = resolveSite(image, site);
        } else {
            seg = resolveSite(image, site);
            if (!seg) {
                // Inapplicable/missing site: fall back to the stream so
                // the plan still corrupts something deterministic.
                site = Site::Stream;
                seg = resolveSite(image, site);
                if (!seg)
                    break;
            }
        }

        Injection inj;
        inj.segment = seg->name;
        if (site == Site::Truncate) {
            uint64_t max_tail =
                std::min<uint64_t>(64, seg->bytes.size());
            auto tail =
                static_cast<uint32_t>(1 + rng.nextBelow(max_tail));
            std::fill(seg->bytes.end() - tail, seg->bytes.end(), 0);
            inj.offset =
                static_cast<uint32_t>(seg->bytes.size() - tail);
            inj.truncatedBytes = tail;
        } else {
            inj.offset =
                static_cast<uint32_t>(rng.nextBelow(seg->bytes.size()));
            inj.bitMask = static_cast<uint8_t>(1u << rng.nextBelow(8));
            seg->bytes[inj.offset] ^= inj.bitMask;
        }
        report.injections.push_back(std::move(inj));
    }
    return report;
}

FaultReport
injectData(dmem::DataRegion &region, const FaultPlan &plan)
{
    FaultReport report;
    report.plan = plan;
    Rng rng(plan.seed);

    for (uint32_t n = 0; n < plan.count; ++n) {
        Site site = plan.site;
        compress::CompressedSegment *seg = resolveDataSite(region, site);
        if (!seg) {
            // Inapplicable/missing site: fall back to the data stream
            // so the plan still corrupts something deterministic.
            site = Site::DataStream;
            seg = resolveDataSite(region, site);
            if (!seg)
                break;
        }

        Injection inj;
        inj.segment = seg->name;
        if (site == Site::DataTruncate) {
            uint64_t max_tail =
                std::min<uint64_t>(64, seg->bytes.size());
            auto tail =
                static_cast<uint32_t>(1 + rng.nextBelow(max_tail));
            std::fill(seg->bytes.end() - tail, seg->bytes.end(), 0);
            inj.offset =
                static_cast<uint32_t>(seg->bytes.size() - tail);
            inj.truncatedBytes = tail;
        } else {
            inj.offset =
                static_cast<uint32_t>(rng.nextBelow(seg->bytes.size()));
            inj.bitMask = static_cast<uint8_t>(1u << rng.nextBelow(8));
            seg->bytes[inj.offset] ^= inj.bitMask;
        }
        report.injections.push_back(std::move(inj));
    }
    return report;
}

std::vector<FaultReport>
injectAll(compress::CompressedImage &image, const FaultConfig &config)
{
    std::vector<FaultReport> reports;
    reports.reserve(config.plans.size());
    for (const FaultPlan &plan : config.plans)
        reports.push_back(inject(image, plan));
    // The Cpu checks lines against image.unitCrcs, while the injector
    // corrupts the raw ".crc" segment bytes; re-parse so a corrupted CRC
    // table is what the "hardware" actually compares against.
    compress::syncCrcsFromSegment(image);
    return reports;
}

} // namespace rtd::fault
