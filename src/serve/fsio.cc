#include "serve/fsio.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace rtd::serve::fsio {

namespace {

struct Plan
{
    uint64_t after = 0;  ///< 0 = no plan
    uint64_t every = 0;
    FaultMode mode = FaultMode::None;
};

std::mutex g_planMutex;
Plan g_plan;
bool g_envParsed = false;
std::atomic<uint64_t> g_ops{0};

/** Parse RTDC_FSIO_FAULT (see fsio.h). Malformed input = no plan. */
void
parseEnvLocked()
{
    if (g_envParsed)
        return;
    g_envParsed = true;
    const char *spec = std::getenv("RTDC_FSIO_FAULT");
    if (!spec || !*spec)
        return;
    Plan plan;
    plan.mode = FaultMode::Enospc;
    for (const char *p = spec; *p;) {
        const char *comma = std::strchr(p, ',');
        std::string field = comma ? std::string(p, comma) : std::string(p);
        if (field.rfind("after=", 0) == 0)
            plan.after = std::strtoull(field.c_str() + 6, nullptr, 10);
        else if (field.rfind("every=", 0) == 0)
            plan.every = std::strtoull(field.c_str() + 6, nullptr, 10);
        else if (field == "mode=short")
            plan.mode = FaultMode::Short;
        else if (field == "mode=enospc")
            plan.mode = FaultMode::Enospc;
        p = comma ? comma + 1 : field.c_str() + field.size();
        if (comma)
            continue;
        break;
    }
    if (plan.after > 0)
        g_plan = plan;
}

/**
 * Account one write-class operation; returns the fault to apply to it
 * (None almost always).
 */
FaultMode
nextOpFault()
{
    FaultMode mode;
    uint64_t after, every;
    {
        std::lock_guard<std::mutex> lock(g_planMutex);
        parseEnvLocked();
        mode = g_plan.mode;
        after = g_plan.after;
        every = g_plan.every;
    }
    uint64_t op = g_ops.fetch_add(1) + 1;
    if (after == 0 || mode == FaultMode::None || op < after)
        return FaultMode::None;
    if (op == after)
        return mode;
    return every != 0 && (op - after) % every == 0 ? mode
                                                   : FaultMode::None;
}

bool
rawWriteAll(int fd, const char *bytes, size_t size)
{
    size_t written = 0;
    while (written < size) {
        ssize_t n = ::write(fd, bytes + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

void
setFaultPlan(uint64_t after, uint64_t every, FaultMode mode)
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    g_envParsed = true;  // a programmatic plan overrides the env
    g_plan.after = after;
    g_plan.every = every;
    g_plan.mode = mode;
    g_ops.store(0);
}

void
clearFaultPlan()
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    g_envParsed = true;
    g_plan = Plan{};
}

uint64_t
opCount()
{
    return g_ops.load();
}

bool
writeAll(int fd, const void *bytes, size_t size)
{
    const char *p = static_cast<const char *>(bytes);
    switch (nextOpFault()) {
    case FaultMode::None:
        return rawWriteAll(fd, p, size);
    case FaultMode::Short:
        // Land half the buffer, then fail: the torn-record shape a
        // crash mid-write (or a filling disk) leaves behind.
        rawWriteAll(fd, p, size / 2);
        errno = ENOSPC;
        return false;
    case FaultMode::Enospc:
    default:
        errno = ENOSPC;
        return false;
    }
}

bool
syncFd(int fd)
{
    if (nextOpFault() != FaultMode::None) {
        errno = ENOSPC;
        return false;
    }
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

bool
renameFile(const std::string &from, const std::string &to)
{
    if (nextOpFault() != FaultMode::None) {
        errno = ENOSPC;
        return false;
    }
    return ::rename(from.c_str(), to.c_str()) == 0;
}

} // namespace rtd::serve::fsio
