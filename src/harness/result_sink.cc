#include "harness/result_sink.h"

#include <cstdio>

#include "support/logging.h"

namespace rtd::harness {

std::string
machineHeaderLine(const cpu::CpuConfig &machine)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "machine: 1-wide in-order | I$ %uKB/%uB/%u-way LRU | "
                  "D$ %uKB/%uB/%u-way LRU | bimodal %u | mem %u-cycle "
                  "latency, %u-cycle rate, %u-bit bus\n",
                  machine.icache.sizeBytes / 1024,
                  machine.icache.lineBytes, machine.icache.assoc,
                  machine.dcache.sizeBytes / 1024,
                  machine.dcache.lineBytes, machine.dcache.assoc,
                  machine.predictorEntries,
                  machine.memTiming.firstAccessCycles,
                  machine.memTiming.burstRateCycles,
                  machine.memTiming.busBytes * 8);
    return buf;
}

Json
machineJson(const cpu::CpuConfig &machine)
{
    Json icache = Json::object();
    icache.set("size_bytes", machine.icache.sizeBytes);
    icache.set("line_bytes", machine.icache.lineBytes);
    icache.set("assoc", machine.icache.assoc);
    Json dcache = Json::object();
    dcache.set("size_bytes", machine.dcache.sizeBytes);
    dcache.set("line_bytes", machine.dcache.lineBytes);
    dcache.set("assoc", machine.dcache.assoc);
    Json mem = Json::object();
    mem.set("first_access_cycles", machine.memTiming.firstAccessCycles);
    mem.set("burst_rate_cycles", machine.memTiming.burstRateCycles);
    mem.set("bus_bits", machine.memTiming.busBytes * 8);
    Json result = Json::object();
    result.set("pipeline", "1-wide in-order");
    result.set("icache", std::move(icache));
    result.set("dcache", std::move(dcache));
    result.set("predictor_entries", machine.predictorEntries);
    result.set("memory", std::move(mem));
    return result;
}

double
announceScale(double scale)
{
    if (scale != 1.0)
        std::printf("dynamic-length scale: %.3fx (RTDC_BENCH_SCALE)\n",
                    scale);
    return scale;
}

void
ResultSink::setScale(double scale)
{
    hasScale_ = true;
    scale_ = scale;
}

void
ResultSink::setMachine(const cpu::CpuConfig &machine)
{
    hasMachine_ = true;
    machineLine_ = machineHeaderLine(machine);
    machineJson_ = machineJson(machine);
}

void
ResultSink::printMachineHeader() const
{
    RTDC_ASSERT(hasMachine_, "printMachineHeader without setMachine");
    std::fputs(machineLine_.c_str(), stdout);
}

void
ResultSink::addRow(Json row)
{
    RTDC_ASSERT(row.kind() == Json::Kind::Object,
                "sink rows must be JSON objects");
    rows_.push_back(std::move(row));
}

void
ResultSink::addRow(
    std::initializer_list<std::pair<const char *, Json>> fields)
{
    Json row = Json::object();
    for (const auto &[key, value] : fields)
        row.set(key, value);
    rows_.push_back(std::move(row));
}

void
ResultSink::addMetrics(const std::string &tag, Json metrics)
{
    RTDC_ASSERT(metrics.kind() == Json::Kind::Object,
                "sink metrics must be JSON objects");
    metrics_.emplace_back(tag, std::move(metrics));
}

Json
ResultSink::toJson() const
{
    Json doc = Json::object();
    doc.set("sweep", sweep_);
    if (hasMachine_)
        doc.set("machine", machineJson_);
    if (hasScale_)
        doc.set("scale", scale_);
    Json rows = Json::array();
    for (const Json &row : rows_)
        rows.push(row);
    doc.set("rows", std::move(rows));
    // After "rows" so observe-off documents keep their historical byte
    // layout as a prefix property, and absent entirely when unused.
    if (!metrics_.empty()) {
        Json metrics = Json::object();
        for (const auto &[tag, value] : metrics_)
            metrics.set(tag, value);
        doc.set("metrics", std::move(metrics));
    }
    return doc;
}

bool
ResultSink::writeJson(const std::string &path) const
{
    std::string contents = toJson().dump(2) + "\n";
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    size_t written =
        std::fwrite(contents.data(), 1, contents.size(), file);
    bool ok = written == contents.size() && std::fclose(file) == 0;
    if (!ok)
        warn("short write to '%s'", path.c_str());
    return ok;
}

} // namespace rtd::harness
