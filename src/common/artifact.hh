/**
 * @file
 * Writing an output artifact (a trace, metrics dump, timeline,
 * engine profile or bench JSON) to a file, checked end to end.
 */

#ifndef HSIPC_COMMON_ARTIFACT_HH
#define HSIPC_COMMON_ARTIFACT_HH

#include <string>

namespace hsipc
{

/**
 * Replace the file at @p path with @p doc.  A file that cannot be
 * opened, a short write or a failed close (where buffered data
 * reaches the disk, so a full disk shows up there) is fatal: a
 * truncated artifact must never pass for a complete one.  @p what
 * names the artifact in the message, e.g. "trace file".
 */
void writeArtifact(const std::string &path, const std::string &doc,
                   const std::string &what);

} // namespace hsipc

#endif // HSIPC_COMMON_ARTIFACT_HH
