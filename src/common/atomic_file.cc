#include "common/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fault_injection.h"

namespace desalign::common {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

// Fsync the directory holding `path` so the rename itself is durable.
// Best-effort: some filesystems refuse O_RDONLY directory fds.
void SyncParentDir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& bytes,
                       const std::string& fault_site) {
  FaultInjector& faults = FaultInjector::Global();
  const std::string tmp = path + ".tmp";

  if (faults.OnSite(fault_site + ".open")) {
    return Status::IoError("injected open failure for " + tmp);
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create", tmp);

  std::string staged;  // only allocated when a fault mutates the payload
  const char* data = bytes.data();
  size_t size = bytes.size();
  bool injected_torn_write = false;
  if (const FaultAction act = faults.OnSite(fault_site + ".data")) {
    switch (act.kind) {
      case FaultKind::kFail:
        ::close(fd);
        ::unlink(tmp.c_str());
        return Status::IoError("injected write failure for " + tmp);
      case FaultKind::kShortWrite:
        size = std::min(size, static_cast<size_t>(act.param));
        injected_torn_write = true;  // still publish: a torn final file
        break;
      case FaultKind::kBitFlip:
        staged = bytes;
        if (!staged.empty()) {
          staged[static_cast<size_t>(act.param) % staged.size()] ^= 1;
        }
        data = staged.data();
        break;
      default:
        break;
    }
  }

  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Errno("short write to", tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (!injected_torn_write && ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Errno("fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Errno("close failed for", tmp);
  }

  if (faults.OnSite(fault_site + ".rename")) {
    ::unlink(tmp.c_str());
    return Status::IoError("injected rename failure for " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("cannot publish", path);
  }
  SyncParentDir(path);
  return Status::Ok();
}

Status ReadFileToString(const std::string& path, std::string* out,
                        const std::string& fault_site) {
  const FaultAction act = FaultInjector::Global().OnSite(fault_site);
  if (act.kind == FaultKind::kFail) {
    return Status::IoError("injected read failure for " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  // One read into a buffer of the file's size: no geometric regrowth, so
  // the peak is the file itself.
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("read error on " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IoError("read error on " + path);
    }
    if (n == 0) break;  // truncated since fstat: keep what is there
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  if (act.kind == FaultKind::kBitFlip && !bytes.empty()) {
    bytes[static_cast<size_t>(act.param) % bytes.size()] ^= 1;
  }
  *out = std::move(bytes);
  return Status::Ok();
}

}  // namespace desalign::common
