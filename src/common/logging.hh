/**
 * @file
 * Status-message and error-reporting helpers, modeled on the gem5
 * logging conventions (inform/warn/fatal/panic).
 *
 * fatal() is for user errors (bad input design, bad metadata): it throws
 * a FatalError so library embedders can recover. panic() is for internal
 * invariant violations (bugs in this library): it aborts.
 */

#ifndef R2U_COMMON_LOGGING_HH
#define R2U_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace r2u
{

/** Exception thrown by fatal(): the input (design/metadata/test) is bad. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Global verbosity: 0 = quiet, 1 = inform, 2 = debug. */
int logVerbosity();
void setLogVerbosity(int level);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
std::string vstrfmt(const char *fmt, va_list ap);

/**
 * Informative status message (verbosity >= 1). Like every log line it
 * goes to stderr, so a tool's stdout carries only its own output.
 */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Debug-level message (verbosity >= 2), on stderr. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Something works but is suspicious; always printed to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Unrecoverable *user* error: throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Unrecoverable *internal* error: prints and aborts. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** assert-like check that survives NDEBUG and panics with a message. */
#define R2U_ASSERT(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::r2u::panic("assertion '%s' failed at %s:%d: %s", #cond,     \
                         __FILE__, __LINE__,                              \
                         ::r2u::strfmt(__VA_ARGS__).c_str());             \
        }                                                                 \
    } while (0)

} // namespace r2u

#endif // R2U_COMMON_LOGGING_HH
