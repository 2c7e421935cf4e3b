/**
 * @file
 * fsio: the serve stack's file-I/O seam with injectable faults.
 *
 * The journal, the daemon's only disk store, routes its writes
 * through these thin wrappers instead of calling write()/fsync()/
 * rename() directly. In production the wrappers are pass-throughs with
 * EINTR retry; under test a *fault plan* makes write-class operations
 * fail deterministically — full ENOSPC-style failures or short writes
 * that leave a torn record behind — which is how the chaos harness
 * (examples/rtdc_chaos) proves that disk-full and crash-mid-write
 * degrade to recoverable states instead of corruption.
 *
 * A plan can be installed two ways:
 *
 *  - programmatically, via setFaultPlan() (unit tests), or
 *  - through the environment variable RTDC_FSIO_FAULT, parsed once on
 *    first use:
 *
 *        RTDC_FSIO_FAULT="after=N[,every=M][,mode=enospc|short]"
 *
 *    The first N-1 write-class operations succeed; operation N fails,
 *    and with every=M so does every M-th operation after it (every=0 =
 *    fail only once). mode=enospc fails without writing anything
 *    (errno ENOSPC); mode=short writes roughly half the buffer first,
 *    so the file ends mid-record. The env route crosses fork/exec, so
 *    the chaos harness can arm a daemon it spawns as a real process.
 *
 * Read-class operations are never faulted: the recovery paths must see
 * exactly what landed on disk.
 *
 * Thread-safe: the operation counter is atomic; plans are installed
 * before the threads that exercise them start.
 */

#ifndef RTDC_SERVE_FSIO_H
#define RTDC_SERVE_FSIO_H

#include <cstdint>
#include <string>

namespace rtd::serve::fsio {

enum class FaultMode
{
    None,    ///< no faults (the default)
    Enospc,  ///< fail outright, errno = ENOSPC
    Short,   ///< write about half the buffer, then fail
};

/**
 * Install a fault plan: write-class op number @p after (1-based) fails,
 * and with @p every > 0 so does every @p every-th op after it.
 * Supersedes any plan from the environment.
 */
void setFaultPlan(uint64_t after, uint64_t every, FaultMode mode);

/** Remove any installed plan (including one parsed from the env). */
void clearFaultPlan();

/** Write-class operations performed since the plan was installed. */
uint64_t opCount();

/**
 * write() the whole buffer with EINTR retry. Returns true when all
 * @p size bytes landed; false with errno set otherwise (a faulted
 * short write returns false after writing part of the buffer).
 */
bool writeAll(int fd, const void *bytes, size_t size);

/** fsync() with EINTR retry; faultable (ENOSPC mode only). */
bool syncFd(int fd);

/** rename() wrapper; faultable (ENOSPC mode only — a short rename does
 *  not exist; Short plans fail it outright too). */
bool renameFile(const std::string &from, const std::string &to);

} // namespace rtd::serve::fsio

#endif // RTDC_SERVE_FSIO_H
