#include "common/file_io.hpp"

#include <stdexcept>

namespace tcm {

void
writeFile(const std::string &path, const char *who,
          const std::function<void(std::FILE *)> &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error(std::string(who) + ": cannot write " +
                                 path);
    body(f);
    const bool bad = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || bad)
        throw std::runtime_error(std::string(who) + ": write error on " +
                                 path);
}

void
writeFile(const std::string &path, const char *who, std::string_view text)
{
    writeFile(path, who, [text](std::FILE *f) {
        std::fwrite(text.data(), 1, text.size(), f);
    });
}

void
replaceFile(const std::string &path, const char *who, std::string_view text)
{
    const std::string tmp = path + ".tmp";
    writeFile(tmp, who, text);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error(std::string(who) + ": cannot rename " +
                                 tmp + " to " + path);
}

} // namespace tcm
