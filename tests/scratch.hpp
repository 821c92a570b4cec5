/**
 * @file
 * Per-process scratch paths for the tests. Every path a test writes
 * under the system temp directory carries the process id, so two test
 * processes running at once (two build trees' ctest runs on one
 * machine, say) never remove or overwrite each other's files.
 */

#pragma once

#include <filesystem>
#include <string>

#include <unistd.h>

namespace tcm::test {

/** temp_directory_path() / "tcmsim_<pid>_<name>". */
inline std::filesystem::path
scratchPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           ("tcmsim_" + std::to_string(::getpid()) + "_" + name);
}

} // namespace tcm::test
