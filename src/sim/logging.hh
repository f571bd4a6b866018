/**
 * @file
 * Error and status reporting in the spirit of gem5's base/logging.hh.
 *
 * panic()  - an internal invariant was violated; this is a library bug.
 *            Prints and aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Prints and exits.
 * warn()   - something works well enough but deserves attention.
 * inform() - plain status output.
 *
 * DPRINTF(flag, ...) prints only when the named debug flag is enabled
 * (programmatically or via the MSCP_DEBUG environment variable, a
 * comma-separated flag list; "All" enables everything).
 *
 * warn() and inform() are additionally gated by a runtime log level,
 * settable programmatically (setLogLevel) or via the MSCP_LOG
 * environment variable ("silent", "error", "warn", "info" - the
 * default - or "debug"). panic/fatal are never suppressed, and
 * DPRINTF stays governed by its own flag set.
 */

#ifndef MSCP_SIM_LOGGING_HH
#define MSCP_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mscp
{

/**
 * Runtime verbosity. Each level includes everything above it:
 * Silent suppresses warn() and inform(), Warn shows warnings only,
 * Info (the default) restores the historical behavior where both
 * print. Error exists as an explicit "problems only" setting; since
 * panic/fatal are never suppressed it currently filters like Silent.
 */
enum class LogLevel : int
{
    Silent = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
};

/** Set the runtime log level (overrides MSCP_LOG). */
void setLogLevel(LogLevel lvl);
LogLevel logLevel();

/** Set the log level to Silent for a scope and restore the previous
 *  level on exit (model checking visits panic-adjacent states on
 *  purpose; their warnings are not output). */
class SilenceLogging
{
  public:
    SilenceLogging() : saved(logLevel())
    {
        setLogLevel(LogLevel::Silent);
    }
    ~SilenceLogging() { setLogLevel(saved); }
    SilenceLogging(const SilenceLogging &) = delete;
    SilenceLogging &operator=(const SilenceLogging &) = delete;

  private:
    LogLevel saved;
};

/**
 * Parse a level name ("silent", "error", "warn"/"warning", "info",
 * "debug", case-sensitive lowercase as documented) or a numeric
 * value 0-4. @return @p fallback for anything unrecognized.
 */
LogLevel parseLogLevel(const std::string &name, LogLevel fallback);

/** Printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list variant of csprintf. */
std::string vcsprintf(const char *fmt, va_list args);

[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * When true (default in tests), panic/fatal throw PanicError /
 * FatalError instead of terminating the process, so that death paths
 * are unit-testable without gtest death tests forking the simulator.
 */
void setLoggingThrows(bool throws);
bool loggingThrows();

/** Exception thrown by panic() when setLoggingThrows(true). */
struct PanicError
{
    std::string message;
};

/** Exception thrown by fatal() when setLoggingThrows(true). */
struct FatalError
{
    std::string message;
};

namespace debug
{

/** Enable one debug flag by name ("All" enables every flag). */
void enable(const std::string &flag);
/** Disable one debug flag by name. */
void disable(const std::string &flag);
/** @return true iff the flag (or "All") is enabled. */
bool enabled(const std::string &flag);
/** Remove all enabled flags. */
void clear();

/**
 * True iff at least one debug flag is enabled. DPRINTF reads this
 * before doing any work, so the disabled case costs one predictable
 * branch instead of a std::string construction and a set lookup per
 * call site.
 */
extern bool anyEnabled;

} // namespace debug

/** Emit a debug line guarded by a flag. */
void dprintfImpl(const char *flag, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace mscp

#define panic(...) \
    ::mscp::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::mscp::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

#define panic_if(cond, ...)                                       \
    do {                                                          \
        if (cond)                                                 \
            ::mscp::panicImpl(__FILE__, __LINE__, __VA_ARGS__);   \
    } while (0)

#define fatal_if(cond, ...)                                       \
    do {                                                          \
        if (cond)                                                 \
            ::mscp::fatalImpl(__FILE__, __LINE__, __VA_ARGS__);   \
    } while (0)

#define warn(...) ::mscp::warnImpl(__VA_ARGS__)
#define inform(...) ::mscp::informImpl(__VA_ARGS__)

#define DPRINTF(flag, ...)                                        \
    do {                                                          \
        if (::mscp::debug::anyEnabled)                            \
            ::mscp::dprintfImpl(flag, __VA_ARGS__);               \
    } while (0)

#endif // MSCP_SIM_LOGGING_HH
