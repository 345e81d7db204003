#include "common/artifact.hh"

#include <cstdio>

#include "common/logging.hh"

namespace hsipc
{

void
writeArtifact(const std::string &path, const std::string &doc,
              const std::string &what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        hsipc_fatal("cannot open " + what + " " + path);
    const bool written =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (std::fclose(f) != 0 || !written)
        hsipc_fatal("cannot write " + what + " " + path);
}

} // namespace hsipc
