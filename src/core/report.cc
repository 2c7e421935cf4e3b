#include "core/report.h"

#include <cstdio>
#include <sstream>

#include "core/experiment.h"
#include "support/stats.h"
#include "support/table.h"

namespace rtd::core {

namespace {

/** Why the run stopped: halt, an unrecovered machine check (its kind
 *  and faulting address), cancellation or the instruction cap. */
std::string
formatStatus(const cpu::RunStats &s)
{
    if (s.halted)
        return "halted";
    if (s.machineCheckHalt) {
        char addr[16];
        std::snprintf(addr, sizeof addr, "0x%08x", s.faultAddr);
        return std::string("machine check (") +
               cpu::mcKindName(s.faultKind) + " at " + addr + ")";
    }
    if (s.cancelled)
        return "cancelled";
    if (s.timedOut)
        return "stopped (maxUserInsns)";
    return "?";
}

} // namespace

std::string
formatReport(const SystemResult &result)
{
    const cpu::RunStats &s = result.stats;
    std::ostringstream os;
    auto line = [&os](const char *name, const std::string &value) {
        os << "  " << name;
        for (size_t i = std::string(name).size(); i < 28; ++i)
            os << ' ';
        os << value << "\n";
    };

    os << "run:\n";
    line("cycles", fmtCount(s.cycles));
    line("user instructions", fmtCount(s.userInsns));
    line("handler instructions", fmtCount(s.handlerInsns));
    line("CPI (user)", fmtDouble(s.cpi(), 3));
    line("status", formatStatus(s));

    os << "instruction cache:\n";
    line("fetches", fmtCount(s.icacheAccesses));
    line("misses", fmtCount(s.icacheMisses));
    line("miss ratio", fmtPercent(100 * s.icacheMissRatio(), 3));
    line("hardware fills", fmtCount(s.nativeMisses));
    line("decompression exceptions", fmtCount(s.exceptions));

    os << "data cache:\n";
    line("accesses", fmtCount(s.dcacheAccesses));
    line("misses", fmtCount(s.dcacheMisses));
    line("miss ratio", fmtPercent(100 * s.dcacheMissRatio(), 3));
    line("writebacks", fmtCount(s.writebacks));

    os << "pipeline:\n";
    line("branch lookups", fmtCount(s.branchLookups));
    line("branch mispredicts", fmtCount(s.branchMispredicts));
    line("mispredict ratio",
         fmtPercent(100 * ratio(s.branchMispredicts, s.branchLookups),
                    2));
    line("load-use stalls", fmtCount(s.loadUseStalls));

    if (s.procFaults) {
        os << "procedure cache:\n";
        line("faults", fmtCount(s.procFaults));
        line("evictions", fmtCount(s.procEvictions));
        line("bytes compacted", fmtCount(s.procCompactedBytes));
        line("bytes decompressed", fmtCount(s.procDecompressedBytes));
    }

    os << "code size:\n";
    line("original text", fmtCount(result.originalTextBytes) + " B");
    line("compressed payload",
         fmtCount(result.compressedPayloadBytes) + " B");
    line("native region", fmtCount(result.nativeRegionBytes) + " B");
    line("compression ratio",
         fmtPercent(100 * result.compressionRatio(), 1));
    return os.str();
}

std::string
formatSummary(const SystemResult &result, const SystemResult *native)
{
    std::ostringstream os;
    os << fmtCount(result.stats.cycles) << " cycles, CPI "
       << fmtDouble(result.stats.cpi(), 2) << ", I-miss "
       << fmtPercent(100 * result.stats.icacheMissRatio(), 2)
       << ", size " << fmtPercent(100 * result.compressionRatio(), 1);
    if (native && native != &result)
        os << ", slowdown " << fmtDouble(slowdown(result, *native), 2)
           << "x";
    return os.str();
}

} // namespace rtd::core
