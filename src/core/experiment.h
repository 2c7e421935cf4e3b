/**
 * @file
 * Experiment helpers: canonical machine configurations, run wrappers,
 * slowdown/ratio computations, and the profiling + selection pipeline
 * of the paper's selective-compression experiments.
 */

#ifndef RTDC_CORE_EXPERIMENT_H
#define RTDC_CORE_EXPERIMENT_H

#include <string>

#include "core/system.h"
#include "profile/selection.h"
#include "program/program.h"

namespace rtd::core {

/** The paper's Table 1 machine. @p icache_bytes varies for Figure 4. */
cpu::CpuConfig paperMachine(uint32_t icache_bytes = 16 * 1024);

/** Run @p program natively on @p machine (optionally re-placed). */
SystemResult runNative(const prog::Program &program,
                       const cpu::CpuConfig &machine,
                       const std::vector<int32_t> &order = {});

/**
 * Run @p program under @p scheme (optionally with the second register
 * file, a selective region assignment, and a placement order).
 */
SystemResult runCompressed(const prog::Program &program,
                           compress::Scheme scheme, bool second_reg_file,
                           const cpu::CpuConfig &machine,
                           const std::vector<prog::Region> &regions = {},
                           const std::vector<int32_t> &order = {});

/**
 * Profile the original (fully native) program: per-procedure dynamic
 * instructions and non-speculative I-misses (paper section 4.2).
 */
profile::ProcedureProfile profileProgram(const prog::Program &program,
                                         const cpu::CpuConfig &machine);

/** Execution-time slowdown of @p run relative to @p native (Table 3). */
double slowdown(const SystemResult &run, const SystemResult &native);

/**
 * LZRW1 compression ratio of the whole .text section compressed as one
 * unit (Table 2's lower bound for procedure-based LZRW1), in percent.
 */
double lzrw1TextRatio(const prog::Program &program);

/**
 * Region assignment accommodating programs with more unique
 * instructions than a 16-bit-index dictionary can hold (paper section
 * 3.1): procedures are compressed in program order until the dictionary
 * fills; "the remainder of the program is left in the native code
 * region", exactly as CodePack's hardware does.
 *
 * @param program     the program
 * @param max_uniques dictionary capacity to target; defaults below 64K
 *                    to leave margin for the address-dependent encodings
 *                    that change when the remainder is split off
 */
std::vector<prog::Region> dictionaryCapacityRegions(
    const prog::Program &program, size_t max_uniques = 63 * 1024);

/**
 * Parse @p text as a positive, finite number, the whole string; fatal
 * otherwise ("bad <what> '<text>': need a positive number"), so a typo
 * such as "0.03x" never silently runs a different scale.
 */
double positiveNumber(const char *what, const char *text);

/**
 * Parse @p text as a whole-string decimal count in [0, @p max] into
 * @p value. False (value untouched) on an empty string, a sign or
 * leading space, trailing characters, or overflow, so "4x", "-1" and
 * "abc" never silently mean some other count.
 */
bool parseCount(const char *text, uint64_t max, uint64_t &value);

/**
 * Dynamic-length scale factor for sweeps, from the RTDC_BENCH_SCALE
 * environment variable (default 1.0). Values < 1 shorten runs. A value
 * that is not a positive number is fatal: a sweep silently running at
 * scale 1.0 because of a typo wastes hours, a dead process does not.
 */
double benchScaleFromEnv();

} // namespace rtd::core

#endif // RTDC_CORE_EXPERIMENT_H
