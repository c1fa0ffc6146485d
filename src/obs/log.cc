#include "log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace bolt {
namespace obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};

std::mutex g_sink_mutex;
std::function<void(LogLevel, std::string_view)> g_sink; // null = stderr

void
stderrSink(LogLevel level, std::string_view message)
{
    // One fprintf so concurrent messages interleave at line granularity.
    std::fprintf(stderr, "[bolt:%s] %.*s\n", logLevelName(level),
                 static_cast<int>(message.size()), message.data());
}

} // namespace

const char*
logLevelName(LogLevel level)
{
    return util::enumKey(kLogLevelKeys, level);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
           g_level.load(std::memory_order_relaxed);
}

void
setLogSink(std::function<void(LogLevel, std::string_view)> sink)
{
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_sink = std::move(sink);
}

void
logMessage(LogLevel level, std::string_view message)
{
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    if (g_sink)
        g_sink(level, message);
    else
        stderrSink(level, message);
}

} // namespace obs
} // namespace bolt
