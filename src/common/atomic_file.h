#ifndef DESALIGN_COMMON_ATOMIC_FILE_H_
#define DESALIGN_COMMON_ATOMIC_FILE_H_

#include <string>

#include "common/status.h"

namespace desalign::common {

/// Crash-safe whole-file publish: writes `bytes` to `path + ".tmp"`,
/// fsyncs the file, renames it over `path`, then fsyncs the containing
/// directory. Readers therefore only ever observe the old complete file or
/// the new complete file — a crash at any point never leaves a partially
/// written `path` (the stale .tmp, if any, is overwritten by the next
/// attempt). On failure the temp file is removed and `path` is untouched.
///
/// FaultInjector sites, for crash-safety tests (see docs/ROBUSTNESS.md):
///   <site>.open    fail        — cannot create the temp file
///   <site>.data    fail        — write error before publish
///   <site>.data    short:N     — only N bytes land, yet the rename still
///                                happens (simulates write/rename
///                                reordering on a real crash)
///   <site>.data    bitflip:N   — bit 0 of byte N is corrupted in flight
///   <site>.rename  fail        — crash between write and publish
/// `site` defaults to "atomic_write"; callers pass their own prefix so a
/// spec can target one write path (e.g. "ckpt.write.data:short:64").
Status AtomicWriteFile(const std::string& path, const std::string& bytes,
                       const std::string& fault_site = "atomic_write");

/// Reads the whole of `path` into `*out` with one read into a buffer of
/// the file's size. IoError on missing/unreadable files. FaultInjector
/// site `<site>` supports `fail` and `bitflip:N` (corrupts byte N of the
/// returned buffer), so loaders can be tested against transient read
/// errors and media bit rot without touching the on-disk file. `site`
/// defaults to "file.read".
Status ReadFileToString(const std::string& path, std::string* out,
                        const std::string& fault_site = "file.read");

}  // namespace desalign::common

#endif  // DESALIGN_COMMON_ATOMIC_FILE_H_
