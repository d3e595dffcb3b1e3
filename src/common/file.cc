#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace ireduct {

namespace {

// fsyncs the directory holding `path`, making a just-completed rename into
// it durable: without this a crash could resurrect the replaced file.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("opening directory", dir);
  const int rc = ::fsync(fd);
  const Status status =
      rc == 0 ? Status::OK() : ErrnoError("fsyncing directory", dir);
  ::close(fd);
  return status;
}

}  // namespace

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("opening", path);
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) break;
    if (n > 0) {
      contents.append(buffer, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      const Status status = ErrnoError("reading", path);
      ::close(fd);
      return status;
    }
  }
  ::close(fd);
  return contents;
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("writing", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RenameDurably(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = ErrnoError("renaming '" + tmp + "' over", path);
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDir(path);
}

Status WriteFileDurably(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("creating", tmp);
  Status status = WriteAll(fd, data, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = ErrnoError("fsyncing", tmp);
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return RenameDurably(tmp, path);
}

Status MakeParentDirs(const std::string& path) {
  size_t slash = path.find('/', path[0] == '/' ? 1 : 0);
  while (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash);
    if (!dir.empty() && ::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
      return ErrnoError("creating directory", dir);
    }
    slash = path.find('/', slash + 1);
  }
  return Status::OK();
}

}  // namespace ireduct
