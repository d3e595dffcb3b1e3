// Whole-file reads and durable writes.
//
// The one module that decides how bytes reach the disk: the ledger
// journal, checkpoints and the exported artifacts (--prom-out,
// --report-out, --trace-out, --metrics-out, the ready file) all write
// through it, and it is the only code that renames a file into place or
// fsyncs a directory. A file replaced with WriteFileDurably is never seen
// half-written: a reader finds the old bytes or the new ones, and after a
// crash the disk holds one of the two.
#ifndef IREDUCT_COMMON_FILE_H_
#define IREDUCT_COMMON_FILE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace ireduct {

/// kIoError "<what> '<path>': <strerror(errno)>".
Status ErrnoError(const std::string& what, const std::string& path);

/// The whole file at `path`.
Result<std::string> ReadFile(const std::string& path);

/// Writes all of `data` to `fd`, resuming after short writes and EINTR.
/// `path` only names the file in the error.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// Renames `tmp` over `path`, then fsyncs their directory so the rename
/// survives a crash. `tmp` is unlinked if the rename fails.
Status RenameDurably(const std::string& tmp, const std::string& path);

/// Replaces `path` with `data`: writes `path + ".tmp"`, fsyncs it, then
/// RenameDurably. No ".tmp" is left behind on failure, and the old file
/// is untouched unless the rename happened.
Status WriteFileDurably(const std::string& path, std::string_view data);

/// mkdir -p for the directory part of `path`. Existing directories,
/// including ones a concurrent caller just made, are fine.
Status MakeParentDirs(const std::string& path);

}  // namespace ireduct

#endif  // IREDUCT_COMMON_FILE_H_
