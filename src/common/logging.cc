#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace r2u
{

namespace
{
int g_verbosity = 1;

/**
 * Serializes whole log lines. The BMC engine's workers log from
 * multiple threads; each message is formatted first and then emitted
 * under this lock so lines never tear or interleave.
 */
std::mutex g_log_mutex;

void
emitLine(std::FILE *stream, const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stream, "%s%s\n", prefix, msg.c_str());
}
} // namespace

int
logVerbosity()
{
    return g_verbosity;
}

void
setLogVerbosity(int level)
{
    g_verbosity = level;
}

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
inform(const char *fmt, ...)
{
    if (g_verbosity < 1)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    emitLine(stderr, "info: ", s);
}

void
debugLog(const char *fmt, ...)
{
    if (g_verbosity < 2)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    emitLine(stderr, "debug: ", s);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    emitLine(stderr, "warn: ", s);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    throw FatalError(s);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

} // namespace r2u
