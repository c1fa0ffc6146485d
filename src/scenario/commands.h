#ifndef BOLT_SCENARIO_COMMANDS_H
#define BOLT_SCENARIO_COMMANDS_H

#include <vector>

#include "util/cli_flags.h"

namespace bolt {
namespace scenario {

/**
 * The driver flags of bolt_cli's commands, parsed by util::CliArgs.
 * Stage commands (one per `stage:` kind) take kStageCliFlags and pass
 * every other `--key value` through to compileFlags; `run` and
 * `report` take their own list. Every command also takes
 * util::kCommonFlags.
 */
inline const std::vector<util::CliFlagSpec> kStageCliFlags = {
    {"dump", util::FlagKind::Flag},
};
inline const std::vector<util::CliFlagSpec> kRunCliFlags = {
    {"scenario", util::FlagKind::String},
    {"dump", util::FlagKind::Flag},
};
inline const std::vector<util::CliFlagSpec> kReportCliFlags = {
    {"telemetry", util::FlagKind::String},
    {"top", util::FlagKind::Int, 1, 1000},
};

} // namespace scenario
} // namespace bolt

#endif // BOLT_SCENARIO_COMMANDS_H
