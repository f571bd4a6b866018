/**
 * @file
 * Error and status reporting in the spirit of gem5's base/logging.hh.
 *
 * panic()  - an internal invariant was violated; this is a library bug.
 *            Throws PanicError.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Throws FatalError.
 * warn()   - something works well enough but deserves attention.
 * inform() - plain status output.
 *
 * Both error types are std::exceptions whose what() is the message,
 * so an uncaught one still explains itself through the terminate
 * handler, and the model checker can turn an engine panic into a
 * counterexample.
 *
 * warn() and inform() are gated by a runtime log level, settable
 * programmatically (setLogLevel) or via the MSCP_LOG environment
 * variable ("silent", "warn", "info" - the default). panic/fatal are
 * never suppressed.
 */

#ifndef MSCP_SIM_LOGGING_HH
#define MSCP_SIM_LOGGING_HH

#include <cstdarg>
#include <exception>
#include <string>
#include <utility>

namespace mscp
{

/**
 * Runtime verbosity. Each level includes everything above it:
 * Silent suppresses warn() and inform(), Warn shows warnings only,
 * Info (the default) prints both.
 */
enum class LogLevel : int
{
    Silent = 0,
    Warn = 2,
    Info = 3,
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
 * Parse a level name ("silent", "warn"/"warning", "info",
 * case-sensitive lowercase as documented) or a numeric value 0-4.
 * "error"/1 read as Silent and "debug"/4 as Info, the levels they
 * filter like. @return @p fallback for anything unrecognized.
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

/** Exception thrown by panic(); what() is the message. */
struct PanicError : std::exception
{
    explicit PanicError(std::string msg) : message(std::move(msg)) {}
    const char *what() const noexcept override { return message.c_str(); }
    std::string message;
};

/** Exception thrown by fatal(); what() is the message. */
struct FatalError : std::exception
{
    explicit FatalError(std::string msg) : message(std::move(msg)) {}
    const char *what() const noexcept override { return message.c_str(); }
    std::string message;
};

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

#endif // MSCP_SIM_LOGGING_HH
