/**
 * @file
 * Whole-file writers that report every failure, the final flush in
 * fclose included: a full disk often shows only there, after every
 * fwrite has returned normally into the stdio buffer.
 */

#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace tcm {

/**
 * Create or truncate @p path, let @p body write it, and close it.
 * Throws std::runtime_error prefixed with "@p who: " when the file
 * cannot be opened, a write fails, or closing it fails; the file may
 * then hold a prefix of the intended bytes.
 */
void writeFile(const std::string &path, const char *who,
               const std::function<void(std::FILE *)> &body);

/** writeFile with @p text as the whole content. */
void writeFile(const std::string &path, const char *who,
               std::string_view text);

/**
 * Atomic replace: writeFile to "<path>.tmp", then rename it over
 * @p path only once it closed cleanly. On any failure @p path keeps
 * its previous content and std::runtime_error is thrown as by
 * writeFile.
 */
void replaceFile(const std::string &path, const char *who,
                 std::string_view text);

} // namespace tcm
