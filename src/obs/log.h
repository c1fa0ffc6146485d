#ifndef BOLT_OBS_LOG_H
#define BOLT_OBS_LOG_H

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/enum_keys.h"

namespace bolt {
namespace obs {

/**
 * Leveled logger shared by the whole library. Off by default above
 * Warn, so a run produces no log output unless asked (--log-level).
 *
 * The level check is one relaxed atomic load, so a compiled-in
 * BOLT_LOG_DEBUG in a hot path costs a branch when debug logging is
 * off. Message formatting only happens when the level is enabled.
 *
 * Log output is diagnostics, never data: nothing in the library's
 * results depends on it, and the default sink writes to stderr so
 * stdout (tables, JSON) stays machine-consumable.
 *
 * The levels, least verbose first:  X(Sym, "key")
 */
#define BOLT_LOG_LEVEL_CATALOG(X)                                              \
    X(Error, "error")                                                          \
    X(Warn, "warn")                                                            \
    X(Info, "info")                                                            \
    X(Debug, "debug")

enum class LogLevel : int { BOLT_LOG_LEVEL_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_LOG_LEVEL_KEY(Sym, Key) {LogLevel::Sym, Key},
/** The --log-level spellings. */
inline constexpr util::EnumKey<LogLevel> kLogLevelKeys[] = {
    BOLT_LOG_LEVEL_CATALOG(BOLT_LOG_LEVEL_KEY)};
#undef BOLT_LOG_LEVEL_KEY

/** Lowercase level name (its kLogLevelKeys spelling). */
const char* logLevelName(LogLevel level);

/** Set the global threshold: messages above it are dropped. */
void setLogLevel(LogLevel level);

/** Current global threshold (default: Warn). */
LogLevel logLevel();

/** Whether a message at `level` would currently be emitted. */
bool logEnabled(LogLevel level);

/**
 * Replace the sink all messages go to. The sink is called with the
 * already-formatted message body (no trailing newline) under an
 * internal mutex, so it needs no locking of its own. Passing nullptr
 * restores the default stderr sink ("[bolt:LEVEL] message\n").
 */
void setLogSink(std::function<void(LogLevel, std::string_view)> sink);

/** Emit one message (bypasses the level check — prefer the macros). */
void logMessage(LogLevel level, std::string_view message);

} // namespace obs
} // namespace bolt

/**
 * Stream-style logging: BOLT_LOG_INFO("placed " << n << " victims").
 * The expression is not evaluated when the level is disabled.
 */
#define BOLT_LOG(level_, expr_)                                          \
    do {                                                                 \
        if (::bolt::obs::logEnabled(level_)) {                           \
            std::ostringstream bolt_log_os_;                             \
            bolt_log_os_ << expr_;                                       \
            ::bolt::obs::logMessage(level_, bolt_log_os_.str());         \
        }                                                                \
    } while (0)

#define BOLT_LOG_ERROR(expr_) BOLT_LOG(::bolt::obs::LogLevel::Error, expr_)
#define BOLT_LOG_WARN(expr_) BOLT_LOG(::bolt::obs::LogLevel::Warn, expr_)
#define BOLT_LOG_INFO(expr_) BOLT_LOG(::bolt::obs::LogLevel::Info, expr_)
#define BOLT_LOG_DEBUG(expr_) BOLT_LOG(::bolt::obs::LogLevel::Debug, expr_)

#endif // BOLT_OBS_LOG_H
