/**
 * @file
 * ResultSink: machine-readable row collection for sweeps.
 *
 * Every registered sweep prints its human tables on stdout; the sink
 * additionally collects one flat JSON object per result row plus sweep
 * metadata (machine configuration, dynamic-length scale) and writes
 * them to `BENCH_<sweep>.json` and, optionally, CSV. The machine
 * configuration is formatted here — once — in both the human header
 * form and JSON form, so the two can never drift apart.
 *
 * Timing is deliberately excluded from the files: their bytes depend
 * only on the result rows, so a `--jobs 4` sweep writes exactly the
 * same file as `--jobs 1`.
 */

#ifndef RTDC_HARNESS_RESULT_SINK_H
#define RTDC_HARNESS_RESULT_SINK_H

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu.h"
#include "harness/json.h"

namespace rtd::harness {

/**
 * The Table 1 machine-configuration line every sweep prints under its
 * title (trailing newline included).
 */
std::string machineHeaderLine(const cpu::CpuConfig &machine);

/** The same machine configuration as a JSON object. */
Json machineJson(const cpu::CpuConfig &machine);

/** Print the dynamic-length banner for @p scale (only when != 1) and
 *  return it. */
double announceScale(double scale);

/** Collects one sweep's rows + metadata; writes JSON/CSV on demand. */
class ResultSink
{
  public:
    explicit ResultSink(std::string sweep) : sweep_(std::move(sweep)) {}

    const std::string &sweep() const { return sweep_; }

    /** Record the dynamic-length scale in the metadata. */
    void setScale(double scale);

    /** Record the machine configuration (human line + JSON form). */
    void setMachine(const cpu::CpuConfig &machine);

    /** Print the recorded machine header to stdout. */
    void printMachineHeader() const;

    /** Append one result row (a flat JSON object). */
    void addRow(Json row);

    /** Append one result row from (key, value) fields, in order. */
    void addRow(std::initializer_list<std::pair<const char *, Json>> fields);

    /**
     * Attach one job's observability metrics
     * (core::SystemResult::metrics), keyed by the job tag. The document
     * only gains a "metrics" member when at least one was attached, so
     * sweeps that never observe keep emitting byte-identical JSON.
     */
    void addMetrics(const std::string &tag, Json metrics);

    size_t rowCount() const { return rows_.size(); }
    size_t metricsCount() const { return metrics_.size(); }

    /** Whole document: {"sweep":..., "machine":?, "scale":?,
     *  "rows":[...], "metrics":?}. */
    Json toJson() const;

    /** Write toJson() pretty-printed; false (with warn) on I/O error. */
    bool writeJson(const std::string &path) const;

    /**
     * Write the rows as CSV: columns are the union of row keys in
     * first-seen order; false (with warn) on I/O error.
     */
    bool writeCsv(const std::string &path) const;

  private:
    std::string sweep_;
    bool hasScale_ = false;
    double scale_ = 1.0;
    bool hasMachine_ = false;
    std::string machineLine_;
    Json machineJson_;
    std::vector<Json> rows_;
    /** (job tag, metrics) pairs in attachment order. */
    std::vector<std::pair<std::string, Json>> metrics_;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_RESULT_SINK_H
