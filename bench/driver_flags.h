/**
 * @file
 * The flag prologue of every bench driver: the shared observability
 * flags (obs::applyObsFlags), then a strict util::CliArgs parse of
 * --threads plus the driver's own flags, then the global pool sized
 * from --threads. An unknown flag, a missing value or a value that is
 * not an integer in range is a usage error, never a run with defaults.
 */
#ifndef BOLT_BENCH_DRIVER_FLAGS_H
#define BOLT_BENCH_DRIVER_FLAGS_H

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/report.h"
#include "util/cli_flags.h"
#include "util/thread_pool.h"

namespace bolt {
namespace bench {

/**
 * Parse argv against `spec` plus --threads and resize the global pool.
 * Returns the parsed flags, or nothing after printing a diagnostic;
 * main() then returns 2.
 */
inline std::optional<util::CliArgs>
parseDriverFlags(int& argc, char** argv,
                 const std::vector<util::CliFlagSpec>& spec = {})
{
    if (!obs::applyObsFlags(argc, argv))
        return std::nullopt;
    const std::vector<util::CliFlagSpec> common = {
        {"threads", util::FlagKind::Int, 0, util::kMaxThreadsFlag},
    };
    util::CliArgs args;
    std::string err;
    if (!args.parse(argc, argv, 1, spec, common, &err)) {
        std::cerr << argv[0] << ": " << err;
        return std::nullopt;
    }
    util::ThreadPool::setGlobalThreads(
        static_cast<unsigned>(args.getInt("threads", 0)));
    return args;
}

} // namespace bench
} // namespace bolt

#endif // BOLT_BENCH_DRIVER_FLAGS_H
