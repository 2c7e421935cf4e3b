/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (a bug in the simulator itself), fatal() for user/configuration errors
 * the simulation cannot continue past, warn()/inform() for status messages
 * that never stop the run.
 */

#ifndef RTDC_SUPPORT_LOGGING_H
#define RTDC_SUPPORT_LOGGING_H

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace rtd {

/**
 * Structured simulation error: the exception form of fatal()/panic().
 *
 * Thrown directly by code that reports recoverable input problems (e.g.
 * the dictionary compressor's 64K-unique-instruction overflow, a corrupt
 * BuiltImage rejected at System construction), and by fatal()/panic()
 * themselves while a ScopedErrorTrap is armed on the calling thread —
 * which is how the sweep harness isolates a poisoned job as a structured
 * failure row instead of killing the whole process.
 */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * RAII guard that converts fatal()/panic() on this thread into thrown
 * SimError for its lifetime. Nestable; affects only the arming thread,
 * so each sweep-pool or daemon dispatcher thread traps its own jobs
 * while the default process-exit behavior stays untouched everywhere
 * else.
 */
class ScopedErrorTrap
{
  public:
    ScopedErrorTrap();
    ~ScopedErrorTrap();
    ScopedErrorTrap(const ScopedErrorTrap &) = delete;
    ScopedErrorTrap &operator=(const ScopedErrorTrap &) = delete;

    /** True when a trap is armed on the calling thread. */
    static bool active();
};

/** Print a formatted message and abort(); use for simulator bugs.
 *  Throws SimError instead while a ScopedErrorTrap is armed. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message and exit(1); use for user errors.
 *  Throws SimError instead while a ScopedErrorTrap is armed. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; never stops the run. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setInformEnabled(bool enabled);

/**
 * Assert-like check that is always compiled in.
 * Panics with the given message when the condition is false.
 */
#define RTDC_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond))                                                        \
            ::rtd::panic("assertion failed: %s: %s", #cond,                 \
                         ::rtd::detail::formatMessage(__VA_ARGS__).c_str());\
    } while (0)

namespace detail {

/** Render a printf-style message to a std::string (helper for macros). */
std::string formatMessage(const char *fmt = "", ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace rtd

#endif // RTDC_SUPPORT_LOGGING_H
